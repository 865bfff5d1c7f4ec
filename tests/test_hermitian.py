"""Hermitian structures: integrability, Lee form, predicates, connections."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.forms import KForm, exterior_derivative, pullback, sort_indices, wedge, wedge_power
from aalg.scalars import EXACT, FLOAT, coerce, is_zero
from aalg.hermitian import (ComplexStructure, HermitianError, HermitianStructure,
                            Metric, levi_civita, nijenhuis, riemann_is_flat)
from aalg.lie import LieAlgebra
from aalg.almost_abelian import build_algebra, standard_j1
from aalg.catalog import ENTRIES, LCHK_LIST, _restrict_last, instantiate, witness_structures
from aalg.lchk import LchkError, construct_lchk

from conftest import (ALL_SHAPES, bracket, data_stream, random_data, random_shear,
                      transported)


def g4_algebra():
    return LieAlgebra(6, {(i, 5): [F(-1) if t == i else F(0) for t in range(6)]
                          for i in range(4)})


def test_complex_structure_validation():
    with pytest.raises(HermitianError):
        ComplexStructure.from_matrix(linalg.idmat(2))
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    assert linalg.mat_eq(linalg.mat_mul(J.matrix, J.matrix),
                         linalg.mat_scale(F(-1), linalg.idmat(4)))


def test_metric_validation():
    with pytest.raises(HermitianError):
        Metric.from_matrix([[F(1), F(2)], [F(2), F(1)]])  # not pd
    with pytest.raises(HermitianError):
        Metric.from_matrix([[F(1), F(2)], [F(0), F(1)]])  # not symmetric


def test_abelian_any_j_integrable():
    L = LieAlgebra(4, {})
    for pairs in ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]):
        J = ComplexStructure.from_pairs(4, pairs)
        assert not nijenhuis(J, L)


def test_g4_adapted_j_integrable():
    L = g4_algebra()
    J = ComplexStructure.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    assert not nijenhuis(J, L)


def test_g4_incompatible_j_not_integrable():
    L = g4_algebra()
    # pairs (f4, f5) straddle the eigenvalue split diag(1,1,1,1,0): the
    # restriction diag(1, 0) cannot commute with a rotation
    J = ComplexStructure.from_pairs(6, [(0, 5), (1, 2), (3, 4)])
    assert any(not linalg.is_zero_vector(v) for v in nijenhuis(J, L).values())


def test_lee_form_flat_torus():
    L = LieAlgebra(4, {})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    H = HermitianStructure(L, J, Metric.identity(4))
    assert H.lee_form().is_zero()
    assert H.is_kahler_direct()


def test_lee_form_aff2_gprime():
    """theta' = f2 + f4 and d omega' = (f2 + f4) ^ omega' on aff2 + 2R."""
    L = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    gp = Metric.from_matrix([[F(2), F(0), F(1), F(0)],
                             [F(0), F(2), F(0), F(1)],
                             [F(1), F(0), F(1), F(0)],
                             [F(0), F(1), F(0), F(1)]])
    H = HermitianStructure(L, J, gp)
    theta = H.lee_form()
    assert theta == KForm(1, 4, {(1,): F(1), (3,): F(1)})
    assert H.domega() == wedge(theta, H.omega)
    assert H.domega() == KForm.basis(4, 0, 1, 3)  # f124
    assert H.is_lck_direct() and not H.is_kahler_direct()


def test_lee_form_b2_gprime():
    """theta' = f5 + f6 for the non-balanced LCB metric on b2."""
    L = LieAlgebra(6, {(0, 5): [F(-1)] + [F(0)] * 5,
                       (2, 5): [F(0), F(-1), F(0), F(0), F(0), F(0)],
                       (4, 5): [F(0), F(0), F(0), F(-1), F(0), F(0)]})
    J = ComplexStructure.from_pairs(6, [(0, 5), (1, 3), (2, 4)])
    g = linalg.idmat(6)
    g[0][0] = F(3); g[5][5] = F(3)
    g[0][1] = g[1][0] = F(1)
    g[0][2] = g[2][0] = F(1)
    g[3][5] = g[5][3] = F(1)
    g[4][5] = g[5][4] = F(1)
    H = HermitianStructure(L, J, Metric.from_matrix(g))
    assert H.lee_form() == KForm(1, 6, {(4,): F(1), (5,): F(1)})
    assert H.is_lcb_direct()
    assert not H.is_balanced_direct()
    assert not H.is_lck_direct()


def test_kahler_implies_all():
    L = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    H = HermitianStructure(L, J, Metric.identity(4))
    assert H.is_kahler_direct() and H.is_balanced_direct() and H.is_lck_direct()
    assert H.is_lcb_direct() and H.is_skt_direct()


def test_s4_skt_and_lcb():
    a = F(1)
    brackets = {
        (0, 3): [-a, F(0), F(0), F(0)],
        (1, 3): [F(0), a / 2, F(1), F(0)],
        (2, 3): [F(0), F(-1), a / 2, F(0)],
    }
    L = LieAlgebra(4, brackets)
    J = ComplexStructure.from_pairs(4, [(0, 3), (1, 2)])
    H = HermitianStructure(L, J, Metric.identity(4))
    assert H.is_skt_direct() and H.is_lcb_direct()
    assert not H.is_balanced_direct()


def test_non_integrable_rejected():
    L = g4_algebra()
    J = ComplexStructure.from_pairs(6, [(0, 5), (1, 2), (3, 4)])
    H = HermitianStructure(L, J, Metric.identity(6))
    with pytest.raises(HermitianError) as err:
        H.is_kahler_direct()
    assert err.value.code == "NON_INTEGRABLE"


def _stream(seed, count, dims):
    """Structures from data_stream, every second one moved by a shear, so
    that g is not the identity."""
    rng = random.Random(seed)
    for k, d in enumerate(data_stream(seed, count, dims=dims)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        yield transported(L, J, g, random_shear(rng, L.dim)) if k % 2 else (L, J, g)


# -- references: torsion and parallel tensors, entry by entry ----------------------

def torsion_tensor(gamma, L: LieAlgebra):
    """T(e_i, e_j) = D_i e_j - D_j e_i - [e_i, e_j]."""
    n = L.dim
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            col_ij = [gamma[i][k][j] for k in range(n)]
            col_ji = [gamma[j][k][i] for k in range(n)]
            vec = linalg.vec_sub(linalg.vec_sub(col_ij, col_ji), bracket(L, i, j))
            out[(i, j)] = vec
    return out


def torsion_is_totally_skew(gamma, L: LieAlgebra, g: Metric) -> bool:
    """g(T(X, Y), Z) alternating in all three arguments.

    Antisymmetry in (X, Y) is structural, so it suffices that the lowered
    tensor kills repeated indices and is antisymmetric in the last two slots.
    """
    n = L.dim
    gm = g.matrix
    tor = torsion_tensor(gamma, L)
    lowered = {key: linalg.mat_vec(gm, vec) for key, vec in tor.items()}
    for (i, j), gv in lowered.items():
        if not (is_zero(gv[i]) and is_zero(gv[j])):
            return False
        for l in range(n):
            if l in (i, j):
                continue
            pair = (i, l) if i < l else (l, i)
            sgn = 1 if i < l else -1
            if not is_zero(gv[l] + sgn * lowered[pair][j]):
                return False
    return True


def connection_preserves_metric(gamma, g: Metric) -> bool:
    """D g = 0: with constant g this is Gamma_i^t G + G Gamma_i = 0."""
    gm = g.matrix
    for gi in gamma:
        m = linalg.mat_mul(gm, gi)
        if not linalg.mat_eq(m, linalg.mat_scale(-1, linalg.transpose(m))):
            return False
    return True


def connection_preserves_tensor(gamma, t) -> bool:
    """D t = 0 for an endomorphism t: [Gamma_i, t] = 0 for all i."""
    return all(linalg.commutes(gi, t) for gi in gamma)


def _tables(table):
    """The connection matrices Gamma_i = G_i / D of an integer table (D, G)."""
    d, gamma = table
    return [linalg._over(gi, d) for gi in gamma]


def test_levi_civita_properties():
    """Metric and torsion-free, also in sheared bases."""
    for L, J, g in _stream(77, 8, dims=(2, 3)):
        gamma = _tables(levi_civita(L, g))
        assert connection_preserves_metric(gamma, g)
        assert all(linalg.is_zero_vector(v) for v in torsion_tensor(gamma, L).values())


def test_bismut_invariants():
    """D^B g = 0, D^B J = 0, totally skew torsion on random structures,
    half of them in a sheared basis."""
    for L, J, g in _stream(78, 8, dims=(2, 3)):
        H = HermitianStructure(L, J, g)
        gamma = _tables(H.bismut_connection())
        assert connection_preserves_metric(gamma, g)
        assert connection_preserves_tensor(gamma, J.matrix)
        assert torsion_is_totally_skew(gamma, L, g)


def _reference_connections(H):
    """(Gamma^LC, Gamma^B) by the entrywise formula: Koszul's
    g(D_{e_i} e_j, e_l) = 1/2 (g([e_i, e_j], e_l) - g([e_j, e_l], e_i)
    + g([e_l, e_i], e_j)) raised by g^-1, and
    Gamma^B_i = Gamma^LC_i + g^-1 (1/2 sigma(e_i, ., e_l))_i with
    sigma = d omega(J., J., J.)."""
    L, n = H.L, H.dim
    half = coerce(1, L.kind) / 2
    gm = H.g.matrix
    ginv = linalg.inverse(gm)
    low = [[[linalg.dot(bracket(L, i, j), [row[l] for row in gm]) for l in range(n)]
            for j in range(n)] for i in range(n)]
    sigma = pullback(H.domega(), H.J.matrix)

    def sig(i, j, l):
        key = sort_indices((i, j, l))
        return coerce(0, L.kind) if key is None else key[1] * sigma.get(key[0])

    lc = [linalg.mat_mul(ginv, [[half * (low[i][j][l] - low[j][l][i] + low[l][i][j])
                                 for j in range(n)] for l in range(n)]) for i in range(n)]
    bismut = [linalg.mat_add(lc[i], linalg.mat_mul(
        ginv, [[half * sig(i, j, l) for j in range(n)] for l in range(n)])) for i in range(n)]
    return lc, bismut


def test_fused_tables_match_the_entrywise_formula():
    """levi_civita and bismut_connection, the integer tables (D, G) raised
    from the one integer lowered table, equal the entrywise formula
    exactly on rational structures at dims 4, 6, 8 (every second one
    sheared), and within 1e-12 max(1, |entry|) of it on float copies."""
    for L, J, g in _stream(79, 12, dims=(2, 3, 4)):
        for H in (HermitianStructure(L, J, g), _float_structure(L, J, g)):
            lc, bismut = _reference_connections(H)
            for got, want in ((_tables(levi_civita(H.L, H.g)), lc),
                              (_tables(H.bismut_connection()), bismut)):
                if H.L.kind == EXACT:
                    assert got == want
                else:
                    assert all(abs(x - y) <= 1e-12 * max(1, abs(y))
                               for gi, wi in zip(got, want)
                               for rg, rw in zip(gi, wi) for x, y in zip(rg, rw))


def test_mixed_scalar_kinds_are_a_hermitian_error():
    """J and g must have the algebra's kind: a float J or g on an exact
    algebra, or exact ones on a float algebra, is KIND_MISMATCH."""
    L = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    Lf = LieAlgebra(4, {(0, 1): [-1.0, 0.0, 0.0, 0.0]})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    Jf = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)], kind=FLOAT)
    g, gf = Metric.identity(4), Metric.from_matrix(linalg.idmat(4, FLOAT))
    for args in ((L, Jf, g), (L, J, gf), (L, Jf, gf), (Lf, J, gf), (Lf, Jf, g)):
        with pytest.raises(HermitianError) as err:
            HermitianStructure(*args)
        assert err.value.code == "KIND_MISMATCH"
    assert HermitianStructure(Lf, Jf, gf).is_kahler_direct()


def test_bismut_ricci_dim4_value():
    # data (a=1, v=0, A=0) -> rho^B = -e1 ^ e4
    L, J, g = build_algebra(F(1), [0, 0], linalg.zeros(2, 2), standard_j1(2))
    H = HermitianStructure(L, J, g)
    assert H.bismut_ricci_oracle() == KForm(2, 4, {(0, 3): F(-1)})


def test_bismut_ricci_abelian_flat():
    L = LieAlgebra(6, {})
    J = ComplexStructure.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    H = HermitianStructure(L, J, Metric.identity(6))
    assert H.bismut_ricci_oracle().is_zero()


def test_vaisman_kahler_note():
    L = LieAlgebra(4, {})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    H = HermitianStructure(L, J, Metric.identity(4))
    verdict, note = H.is_vaisman()
    assert verdict and note == "Kahler"


def test_vaisman_h3r_random_metrics():
    """Every Hermitian metric on h3 + R is Vaisman."""
    rng = random.Random(31)
    L = LieAlgebra(4, {(0, 1): [F(0), F(0), F(0), F(-1)]})
    J = ComplexStructure.from_pairs(4, [(1, 0), (2, 3)])
    jm = J.matrix
    for _ in range(5):
        p = [[F(rng.randint(-1, 2)) for _ in range(4)] for _ in range(4)]
        g0 = linalg.mat_add(linalg.mat_mul(linalg.transpose(p), p),
                            linalg.mat_scale(F(4), linalg.idmat(4)))
        g = linalg.mat_scale(F(1, 2), linalg.mat_add(
            g0, linalg.mat_mul(linalg.transpose(jm), linalg.mat_mul(g0, jm))))
        H = HermitianStructure(L, J, Metric.from_matrix(g))
        verdict, _ = H.is_vaisman()
        assert H.is_lck_direct() and verdict


def test_vaisman_g1_witness_fails():
    """The g1 LCK witness has non-parallel Lee form."""
    L, J, g = build_algebra(F(1), [0, 0, 0, 0], linalg.idmat(4), standard_j1(4))
    H = HermitianStructure(L, J, g)
    assert H.is_lck_direct()
    verdict, note = H.is_vaisman()
    assert not verdict and note == "theta not parallel"


def test_vaisman_implies_lck():
    for d in data_stream(99, 10, dims=(2, 3)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        verdict, _ = H.is_vaisman()
        if verdict and not H.lee_form().is_zero():
            assert H.is_lck_direct()


def test_lcb_direct_is_dtheta_zero():
    """Tautology guard: is_lcb_direct <=> d(lee_form) = 0."""
    for d in data_stream(55, 30, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        assert H.is_lcb_direct() == exterior_derivative(H.lee_form(), L).is_zero()


def test_lee_form_defining_equation():
    """The contraction of d omega solves d(omega^{n-1}) = theta ^ omega^{n-1}
    with omega^{n-1} built by wedging: exactly on rational structures at
    dims 4, 6, 8, half of them in a sheared basis, and within 1e-12
    relative on float copies; is_balanced_direct is d(omega^{n-1}) = 0."""
    rng = random.Random(67)
    for k, d in enumerate(data_stream(66, 24, dims=(2, 3, 4))):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        if k % 2:
            L, J, g = transported(L, J, g, random_shear(rng, L.dim))
        for H in (HermitianStructure(L, J, g), _float_structure(L, J, g)):
            om = wedge_power(H.omega, H.n - 1)
            lhs = exterior_derivative(om, H.L)
            rhs = wedge(H.lee_form(), om)
            if H.L.kind == EXACT:
                assert lhs == rhs
            else:
                keys = set(lhs.coeffs) | set(rhs.coeffs)
                scale = max((abs(lhs.get(t)) + abs(rhs.get(t)) for t in keys), default=0)
                assert all(abs(lhs.get(t) - rhs.get(t)) <= 1e-12 * scale for t in keys)
            assert H.is_balanced_direct() == lhs.is_zero()


def test_dim_2_is_balanced_and_has_no_lee_form():
    H = HermitianStructure(LieAlgebra(2, {(0, 1): [F(1), F(0)]}),
                           ComplexStructure.from_pairs(2, [(0, 1)]), Metric.identity(2))
    assert H.is_balanced_direct()
    with pytest.raises(HermitianError) as err:
        H.lee_form()
    assert err.value.code == "DIMENSION"


def test_dim_2_is_lck_and_lcb():
    """On aff(R), d omega is a 3-form on R^2, so theta = 0: every predicate on
    the Lee form holds, and Vaisman reduces to Kahler."""
    H = HermitianStructure(LieAlgebra(2, {(0, 1): [F(-1), F(0)]}),
                           ComplexStructure.from_pairs(2, [(0, 1)]), Metric.identity(2))
    assert H.is_kahler_direct() and H.is_lck_direct() and H.is_lcb_direct()
    assert H.is_vaisman() == (True, "Kahler")


def test_five_predicates_take_three_differentials(monkeypatch):
    """d omega, d theta and d(d^c omega) are each computed once per structure,
    and the Nijenhuis tensor of J is evaluated once."""
    from aalg import hermitian
    d = random_data(random.Random(4), 3, "lcb")
    H = HermitianStructure(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix))
    real_d, real_n = hermitian.exterior_derivative, hermitian.nijenhuis
    seen, evaluated = [], []
    monkeypatch.setattr(hermitian, "exterior_derivative",
                        lambda alpha, L: seen.append(alpha.degree) or real_d(alpha, L))
    monkeypatch.setattr(hermitian, "nijenhuis",
                        lambda J, L: evaluated.append(J) or real_n(J, L))
    for name in ("kahler", "lck", "balanced", "skt", "lcb"):
        getattr(H, f"is_{name}_direct")()
    assert sorted(seen) == [1, 2, 3]
    assert evaluated == [H.J]


def _float_structure(L, J, g):
    return HermitianStructure(
        # an abelian L has no constant to read the kind from
        LieAlgebra(L.dim, {k: [float(x) for x in v] for k, v in L.brackets.items()},
                   kind=FLOAT),
        ComplexStructure.from_matrix([[float(x) for x in row] for row in J.matrix]),
        Metric.from_matrix([[float(x) for x in row] for row in g.matrix]))


def curvature_operator(gamma, L: LieAlgebra, i, j):
    """R(e_i, e_j) = [Gamma_i, Gamma_j] - Gamma_{[e_i, e_j]}, by its definition
    on the connection matrices."""
    r = linalg.mat_sub(linalg.mat_mul(gamma[i], gamma[j]), linalg.mat_mul(gamma[j], gamma[i]))
    for t, c in enumerate(bracket(L, i, j)):
        if not is_zero(c):
            r = linalg.mat_sub(r, linalg.mat_scale(c, gamma[t]))
    return r


def _literal_flat(L, g):
    """Every curvature matrix R(e_i, e_j), i < j, of the Levi-Civita
    connection is zero."""
    gamma = _tables(levi_civita(L, g))
    return all(linalg.is_zero_matrix(curvature_operator(gamma, L, i, j))
               for i in range(L.dim) for j in range(i + 1, L.dim))


def _float_pair(L, g):
    return (LieAlgebra(L.dim, {k: [float(x) for x in v] for k, v in L.brackets.items()},
                       kind=FLOAT),
            Metric.from_matrix([[float(x) for x in row] for row in g.matrix]))


def _sheared(L, g, s):
    """(L, g) in the basis b_j = sum_i s[i][j] e_i."""
    return L.change_basis(s), Metric.from_matrix(
        linalg.mat_mul(linalg.transpose(s), linalg.mat_mul(g.matrix, s)))


def _flatness_cases():
    """(family, label) -> (L, g): the hyperkahler witness of every LCHK
    catalog sample that has one, data_stream structures at dims 4, 6, 8 in
    their adapted basis and in a sheared one, and the real hyperbolic
    algebras R x|_I R^k, k = 2..5."""
    cases = {}
    for name in LCHK_LIST:
        for i, params in enumerate(ENTRIES[name].samples):
            verdict, witness = construct_lchk(_restrict_last(instantiate(ENTRIES[name], params)))
            if verdict.hyperkahler and not isinstance(witness, LchkError):
                Lc, triple, _, _ = witness
                cases["hyperkahler", f"{name} {i}"] = Lc, triple.g
    rng = random.Random(83)
    for k, d in enumerate(data_stream(82, 96, dims=(2, 3, 4))):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        cases["stream", k] = L, g
        cases["stream", f"{k} sheared"] = _sheared(L, g, random_shear(rng, L.dim))
    for k in range(2, 6):
        cases["hyperbolic", k] = LieAlgebra.semidirect(linalg.idmat(k)), Metric.identity(k + 1)
    return cases


def test_riemann_is_flat_is_the_literal_curvature_test():
    """riemann_is_flat, on the integer Levi-Civita tables, equals the
    all-pairs test of the literal curvature matrices: True on every
    hyperkahler catalog witness, False on the real hyperbolic algebras,
    both on data_stream structures; and float copies of every case get the
    exact verdict."""
    verdicts = {}
    for (family, label), (L, g) in _flatness_cases().items():
        flat = riemann_is_flat(L, g)
        assert flat == _literal_flat(L, g), (family, label)
        assert riemann_is_flat(*_float_pair(L, g)) == flat, (family, label)
        verdicts.setdefault(family, set()).add(flat)
    assert verdicts == {"hyperkahler": {True}, "stream": {True, False},
                        "hyperbolic": {False}}, verdicts


def test_flatness_clears_once_and_builds_no_fraction(monkeypatch):
    """An exact riemann_is_flat runs on integers: it clears its operands in
    one linalg._numerators call (the lowered table's), whatever n, and
    builds no Fraction matrix (no linalg._over call).  Measured on flat
    algebras R x|_A R^(2m - 1), A skew, in a sheared basis, so that every
    pair is tested; the metric's inverse and the algebra's constants,
    cleared once per object, are in place first."""
    rng = random.Random(84)
    counts = {}
    for m in (2, 4, 6):
        rotation = linalg.block_diag([[[F(0), F(-t)], [F(t), F(0)]] for t in range(1, m)]
                                     + [[[F(0)]]])
        L, g = _sheared(LieAlgebra.semidirect(rotation), Metric.identity(2 * m),
                        random_shear(rng, 2 * m))
        g.inverse, L.constants    # cleared once per object, before the count
        calls = {"_numerators": 0, "_over": 0}
        with monkeypatch.context() as mp:
            for name in calls:
                real = getattr(linalg, name)
                mp.setattr(linalg, name, lambda *a, _real=real, _name=name:
                           calls.__setitem__(_name, calls[_name] + 1) or _real(*a))
            assert riemann_is_flat(L, g)
        counts[2 * m] = calls
    assert counts == {n: {"_numerators": 1, "_over": 0} for n in (4, 8, 12)}, counts


def _literal_rho(H):
    """-1/2 tr(W R(e_i, e_j)) for every pair, W = g^-1 J^t g, with the
    curvature matrix R formed by its definition from the entrywise Bismut
    connection of :func:`_reference_connections`."""
    gamma = _reference_connections(H)[1]
    gm = H.g.matrix
    weight = linalg.mat_mul(linalg.inverse(gm),
                            linalg.mat_mul(linalg.transpose(H.J.matrix), gm))
    half = coerce(1, H.L.kind) / 2
    return {(i, j): -half * linalg.trace(
                linalg.mat_mul(weight, curvature_operator(gamma, H.L, i, j)))
            for i in range(H.dim) for j in range(i + 1, H.dim)}


def test_rho_oracle_is_the_literal_curvature_trace():
    """The trace-form oracle equals -1/2 tr(W R) pair by pair, with R from
    the entrywise Bismut connection: exactly on rational structures at
    dims 4, 6, 8 (half of them in a basis with a non-identity metric) and
    on one dense sheared structure at dim 12, within the default tolerance
    on float copies."""
    rng = random.Random(41)
    stream = data_stream(42, 24, dims=(2, 3, 4)) + [random_data(random.Random(43), 6, "generic")]
    for k, d in enumerate(stream):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        if k % 2 or L.dim == 12:
            L, J, g = transported(L, J, g, random_shear(rng, L.dim))
        H = HermitianStructure(L, J, g)
        rho = H.bismut_ricci_oracle()
        literal = _literal_rho(H)
        assert all(rho.get(key) == val for key, val in literal.items())
        assert set(rho.coeffs) <= set(literal)
        Hf = _float_structure(L, J, g)
        rho_f = Hf.bismut_ricci_oracle()
        assert all(is_zero(rho_f.get(key) - val) for key, val in _literal_rho(Hf).items())
        assert all(is_zero(rho_f.get(key) - float(val)) for key, val in literal.items())


def _literal_vaisman(H):
    """LCK and D theta = 0 for the entrywise Levi-Civita connection of
    :func:`_reference_connections`: (D_{e_i} theta)(e_j) =
    -sum_k theta_k Gamma_i[k][j] vanishes for every i, j."""
    lc = _reference_connections(H)[0]
    theta = [H.lee_form().get((k,)) for k in range(H.dim)]
    return H.is_lck_direct() and all(
        is_zero(linalg.dot(theta, col)) for gi in lc for col in zip(*gi))


def _vaisman_cases():
    """data_stream structures at dims 4, 6, 8, plain and sheared, and the
    witnesses of the catalog entries that claim vaisman (h3R, and aff2+2R
    with an identity and a non-identity metric)."""
    rng = random.Random(86)
    cases = []
    for d in data_stream(85, 32, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        cases += [(L, J, g), transported(L, J, g, random_shear(rng, L.dim))]
    for name in ("h3R", "aff2+2R"):
        entry = ENTRIES[name]
        cases += [(H.L, H.J, H.g) for _, H, _, _ in witness_structures(entry, instantiate(entry))]
    return cases


def test_is_vaisman_is_the_literal_parallel_test():
    """is_vaisman, on the integer Levi-Civita tables, equals LCK plus the
    literal D theta = 0 on every case of :func:`_vaisman_cases` and on
    their float copies; the catalog witnesses are Vaisman, and the stream
    has LCK structures that are not."""
    verdicts = []
    for L, J, g in _vaisman_cases():
        for H in (HermitianStructure(L, J, g), _float_structure(L, J, g)):
            vaisman, note = H.is_vaisman()
            assert vaisman == _literal_vaisman(H), (L, J, g, note)
            verdicts.append((vaisman, note))
    assert verdicts[-6:] == [(True, "parallel")] * 2 + [(True, "Kahler")] * 2 + [
        (True, "parallel")] * 2, verdicts[-6:]
    assert (False, "theta not parallel") in verdicts and (False, "not LCK") in verdicts


def test_oracle_and_vaisman_make_one_over_call(monkeypatch):
    """With the Bismut lowered table cached, an exact bismut_ricci_oracle
    builds Fractions in one linalg._over call (rho^B's coefficients), no
    connection table; with the Lee form cached, an exact is_vaisman makes
    one (the sums against theta).  The metric's inverse, g^-1 J^t and the
    algebra's constants, cleared once per object, are in place first."""
    counts = []
    for L, J, g in _vaisman_cases():
        H = HermitianStructure(L, J, g)
        H._bismut_lowered(), H.lee_form(), H._ginv_jt, g.inverse, L.constants
        lck = H.is_lck_direct()
        calls = []
        with monkeypatch.context() as mp:
            real = linalg._over
            mp.setattr(linalg, "_over", lambda *a: calls.append(1) or real(*a))
            H.bismut_ricci_oracle()
            oracle = len(calls)
            H.is_vaisman()
        counts.append((oracle, len(calls) - oracle, lck))
    assert {(o, v) for o, v, lck in counts if lck} == {(1, 1)}, counts
    assert {(o, v) for o, v, lck in counts if not lck} == {(1, 0)}, counts


def _random_pairing(rng, dim):
    """J from a random perfect matching of the basis, random orientations."""
    order = rng.sample(range(dim), dim)
    pairs = [(order[t], order[t + 1]) if rng.random() < 0.5 else (order[t + 1], order[t])
             for t in range(0, dim, 2)]
    return ComplexStructure.from_pairs(dim, pairs)


@settings(max_examples=24, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5), st.sampled_from(ALL_SHAPES), st.booleans())
def test_float_kernels_agree_with_exact(seed, n, shape, sheared):
    """The one rho^B and Nijenhuis code on a float copy of a rational
    structure (dims 4-10, half in a sheared basis): every rho^B coefficient
    within 1e-12 max(1, |exact|) of the exact one, and the Nijenhuis tensor
    nonzero on the same pairs, for the adapted J and for random pairings,
    non-integrable ones included."""
    rng = random.Random(seed)
    d = random_data(rng, n, shape)
    L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
    if sheared:
        L, J, g = transported(L, J, g, random_shear(rng, L.dim))
    H, Hf = HermitianStructure(L, J, g), _float_structure(L, J, g)
    rho, rho_f = H.bismut_ricci_oracle(), Hf.bismut_ricci_oracle()
    assert rho_f.kind == FLOAT
    for key in set(rho.coeffs) | set(rho_f.coeffs):
        exact = rho.get(key)
        assert abs(rho_f.get(key) - float(exact)) <= 1e-12 * max(1, abs(float(exact))), key
    pairings = [_random_pairing(rng, L.dim) for _ in range(3)]
    for Jp in [J] + pairings:
        Jf = ComplexStructure.from_matrix([[float(x) for x in row] for row in Jp.matrix])
        assert set(nijenhuis(Jf, Hf.L)) == set(nijenhuis(Jp, L))


def test_oracle_product_count_grows_linearly(monkeypatch):
    """One bismut_ricci_oracle() makes O(n) matrix products (each product,
    mat_mul or on numerators, is one linalg._row_sums call): a dense
    product per pair (O(n^2) of them) would break the ratio below."""
    counts = {}
    for n in (4, 6):
        d = data_stream(43, 1, dims=(n,))[0]
        H = HermitianStructure(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix))
        calls = []
        real = linalg._row_sums
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_row_sums", lambda a, b, z: calls.append(1) or real(a, b, z))
            H.bismut_ricci_oracle()
        counts[2 * n] = len(calls)
    assert 0 < counts[12] * 8 <= counts[8] * 12, counts
