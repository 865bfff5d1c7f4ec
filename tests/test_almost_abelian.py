"""The (a, v, A) data calculus: extraction, predicates, closed formulas."""

import random
from fractions import Fraction as F

import pytest

from aalg import linalg
from aalg.forms import KForm, exterior_derivative, pullback
from aalg.hermitian import ComplexStructure, HermitianStructure, Metric
from aalg.lie import LieAlgebra, abelian_ideal
from aalg.almost_abelian import (DATA_PREDICATES, DataError, adapted_J_matrix,
                                 build_algebra, data_from_parts, extract_data,
                                 is_balanced_data, is_kahler_data, is_lcb_data,
                                 is_lck_data, is_skt_data, is_type_11,
                                 lee_form_closed, rho_b_closed, skt_to_lcb,
                                 standard_j1)
from aalg.catalog import ENTRIES, instantiate, witness_structures
from aalg.documents import to_ideal
from aalg.scalars import is_zero

from conftest import adjoint, data_stream, random_data, random_shear, transported


def test_g4_data_example():
    """g4 with the adapted J: a = 0, v = 0, A = Id (LCK with lambda = 1)."""
    from aalg.catalog import ENTRIES, instantiate, witness_structures
    [(label, H, d, claims)] = witness_structures(ENTRIES["g4"], instantiate(ENTRIES["g4"], {}))
    assert d.a == 0
    assert all(x == 0 for x in d.v)
    assert [list(r) for r in d.A] == [[1 if i == j else 0 for j in range(4)]
                                      for i in range(4)]
    assert is_lck_data(d) and not is_kahler_data(d)


def test_abelian_data_zero():
    L = LieAlgebra(6, {})
    J = ComplexStructure.from_pairs(6, [(0, 5), (1, 2), (3, 4)])
    d = extract_data(HermitianStructure(L, J, Metric.identity(6)), None)
    assert d.a == 0 and all(x == 0 for x in d.v)
    assert linalg.is_zero_matrix(d.A_matrix)


def test_h3r_data_shape():
    """h3 + R: n = 2 case with A = 0 and v != 0."""
    L = LieAlgebra(4, {(0, 1): [F(0), F(0), F(0), F(-1)]})
    J = ComplexStructure.from_pairs(4, [(1, 0), (2, 3)])
    ideal = ((F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1)))
    H = HermitianStructure(L, J, Metric.identity(4))
    d = extract_data(H, ideal)
    assert d.n == 2
    assert linalg.is_zero_matrix(d.A_matrix)
    assert any(x != 0 for x in d.v)
    assert is_lck_data(d)
    assert lee_form_closed(d).equals(H.lee_form())


def test_build_extract_round_trip():
    for d in data_stream(17, 24, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        d2 = extract_data(HermitianStructure(L, J, g), None)
        assert d2.a == d.a
        assert d2.is_orthonormal()
        # gauge invariants agree
        inv1, inv2 = d.gauge_invariants(), d2.gauge_invariants()
        assert inv1["trace_A"] == inv2["trace_A"]
        assert inv1["v_norm_sq"] == inv2["v_norm_sq"]
        assert inv1["charpoly_A"] == inv2["charpoly_A"]
        assert inv1["rank_A"] == inv2["rank_A"]


def test_build_rejects_noncommuting():
    j1 = standard_j1(4)
    A = linalg.zeros(4, 4)
    A[0][0] = F(1)  # diag(1,0,0,0) does not commute with the pairing
    with pytest.raises(DataError) as err:
        build_algebra(F(0), [0, 0, 0, 0], A, j1)
    assert err.value.code == "COMMUTATION"


def test_extract_requires_abelian_ideal():
    """A declared subspace that is not abelian, not an ideal, or not given
    by a basis of a hyperplane is refused with IDEAL_NOT_ABELIAN."""
    # so(3) + R has no codimension-one abelian ideal at all
    so3 = LieAlgebra(4, {(0, 1): [F(0), F(0), F(1), F(0)],
                         (1, 2): [F(1), F(0), F(0), F(0)],
                         (0, 2): [F(0), F(-1), F(0), F(0)]})
    # aff(2) + R^2 with [e_1, e_2] = -e_1: span(e_2, e_3, e_4) is abelian
    # but [e_1, e_2] leaves it
    aff2 = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    e = linalg.idmat(4)
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    for L, vecs in ((so3, e[:3]), (aff2, e[1:]), (aff2, [e[0], e[2], e[2]])):
        bad = tuple(map(tuple, vecs))
        with pytest.raises(DataError) as exc:
            extract_data(HermitianStructure(L, J, Metric.identity(4)), bad)
        assert exc.value.code == "IDEAL_NOT_ABELIAN"


def test_lcb_degenerate_witness():
    """a = p with v in the cokernel of a degenerate A: LCB with a rank jump."""
    p = F(1)
    A = [[p, F(1), F(0), F(0)],
         [F(0), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(0)],
         [F(0), F(0), F(1), p]]
    j1 = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    d = data_from_parts(p, [0, 0, 1, 0], A, j1)
    assert is_lcb_data(d)
    # v not in im(A - p Id): rank jump certifies non-balanced LCB
    shifted = linalg.mat_sub(d.A_matrix, linalg.mat_scale(p, linalg.idmat(4)))
    aug = linalg.transpose(shifted)
    assert linalg.rank(aug + [list(d.v)]) == linalg.rank(aug) + 1


def test_dimension_2_data_satisfies_every_predicate():
    """n = 1: n_1 = 0, so A and v are empty, and d omega, a 3-form, vanishes."""
    for a in (0, 1, F(-3, 2)):
        d = data_from_parts(a, [], [], [])
        assert all(pred(d) for pred in DATA_PREDICATES.values())


def test_adjoint_is_computed_once_per_data():
    """The integer view, the numerators of A* among it, is cached on the
    instance; field equality and hashing ignore it."""
    d = random_data(random.Random(8), 3, "skt")
    twin = data_from_parts(d.a, d.v, d.A, d.J1)
    first = d.cleared
    assert d.cleared is first
    assert d == twin and hash(d) == hash(twin)
    assert twin.cleared == first
    _, _, (k, star, _), _ = first
    dd = first[0][0]
    assert [[F(x, k * dd) for x in row] for row in star] == adjoint(d)


def test_lcb_trivial_v_zero():
    for d in data_stream(41, 10, dims=(2, 3), shapes=("v0", "kahler", "balanced")):
        assert is_lcb_data(d)


def test_lcb_false_on_image_vectors():
    rng = random.Random(6)
    found = 0
    for _ in range(20):
        d = random_data(rng, 3, "lcb_false")
        atv = linalg.mat_vec(adjoint(d), list(d.v))
        if linalg.is_zero_vector(atv):
            continue
        found += 1
        assert not is_lcb_data(d)
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        assert not exterior_derivative(H.lee_form(), L).is_zero()
    assert found >= 10


def test_lee_form_closed_g4():
    d = data_from_parts(F(0), [0, 0, 0, 0], linalg.idmat(4), standard_j1(4))
    assert lee_form_closed(d) == KForm(1, 6, {(5,): F(-4)})


def test_lee_form_closed_kahler_zero():
    for d in data_stream(43, 6, dims=(2, 3), shapes=("kahler",)):
        assert lee_form_closed(d).is_zero()


def test_rho_b_closed_substitutions():
    d1 = data_from_parts(F(1), [0, 0], linalg.zeros(2, 2), standard_j1(2))
    assert rho_b_closed(d1) == KForm(2, 4, {(0, 3): F(-1)})
    d2 = data_from_parts(F(0), [1, 0], linalg.zeros(2, 2), standard_j1(2))
    assert rho_b_closed(d2) == KForm(2, 4, {(0, 3): F(-1)})


def test_predicates_match_direct_on_shapes():
    """Every *_data predicate agrees with the *_direct one on built output."""
    checks = (
        ("kahler", is_kahler_data, lambda H: H.is_kahler_direct()),
        ("lck", is_lck_data, lambda H: H.is_lck_direct()),
        ("balanced", is_balanced_data, lambda H: H.is_balanced_direct()),
        ("skt", is_skt_data, lambda H: H.is_skt_direct()),
        ("lcb", is_lcb_data, lambda H: H.is_lcb_direct()),
    )
    hits = {name: 0 for name, _, _ in checks}
    for d in data_stream(51, 64, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        for name, data_fn, direct_fn in checks:
            dv = data_fn(d)
            assert dv == direct_fn(H), (name, d)
            hits[name] += dv
    # the stream must exercise every predicate in the True state
    assert all(c > 0 for c in hits.values()), hits


def test_rho_closed_equals_oracle():
    for d in data_stream(52, 16, dims=(2, 3)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        assert rho_b_closed(d) == H.bismut_ricci_oracle()


def test_type_11_equivalence():
    """LCB <=> rho^B of type (1,1) <=> rho^B vanishes on n_1."""
    for d in data_stream(53, 24, dims=(2, 3, 4)):
        rho = rho_b_closed(d)
        units = linalg.idmat(2 * d.n, d.kind)
        rep = {
            "is_lcb": is_lcb_data(d),
            "rho_type_11": is_type_11(rho, adapted_J_matrix(d)),
            "rho_vanishes_on_n1": all(is_zero(pullback(rho, list(zip(x, e))).get((0, 1)))
                                      for x in d.frame[1:-1] for e in units),
        }
        assert len(set(rep.values())) == 1, (rep, d)


def test_type_11_j_invariant_plane():
    rho = KForm(2, 4, {(0, 1): F(1)})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    assert is_type_11(rho, J)
    rho2 = KForm(2, 4, {(0, 2): F(1)})
    assert not is_type_11(rho2, J)


def test_skt_to_lcb_nonzero_a_kills_v():
    rng = random.Random(77)
    count = 0
    for _ in range(30):
        d = random_data(rng, rng.choice([2, 3]), "skt")
        if not is_skt_data(d) or d.a == 0:
            continue
        count += 1
        out = skt_to_lcb(d)
        assert all(x == 0 for x in out.v)
        assert is_lcb_data(out)
    assert count >= 10


def test_skt_to_lcb_a_zero_projects():
    """a = 0: v' is the kernel component; skew A with nontrivial kernel."""
    j1 = standard_j1(4)
    A = [[F(0), F(1), F(0), F(0)],
         [F(-1), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(0)]]
    v = [F(2), F(-1), F(3), F(1, 2)]
    d = data_from_parts(F(0), v, A, j1)
    assert is_skt_data(d)
    out = skt_to_lcb(d)
    # kernel of A^t is spanned by eps_3, eps_4: v' keeps exactly that part
    assert list(out.v) == [F(0), F(0), F(3), F(1, 2)]
    assert is_lcb_data(out)


def test_skt_to_lcb_v_in_image_vanishes():
    """v in im(A - a Id) is absorbed entirely: v' = 0 (the a = 0 case)."""
    j1 = standard_j1(4)
    A = [[F(0), F(2), F(0), F(0)],
         [F(-2), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(-1)],
         [F(0), F(0), F(1), F(0)]]
    x = [F(1), F(-1), F(2), F(1, 2)]
    v = linalg.mat_vec(A, x)
    d = data_from_parts(F(0), v, A, j1)
    assert is_skt_data(d)
    out = skt_to_lcb(d)
    assert all(c == 0 for c in out.v)


def test_skt_to_lcb_precondition():
    d = data_from_parts(F(1), [0, 0, 0, 0], linalg.idmat(4), standard_j1(4))
    assert not is_skt_data(d)
    with pytest.raises(DataError) as err:
        skt_to_lcb(d)
    assert err.value.code == "PRECONDITION"


def test_skt_to_lcb_metric_direct():
    rng = random.Random(78)
    done = 0
    for _ in range(20):
        d = random_data(rng, 2, "skt")
        if not is_skt_data(d):
            continue
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, skt_to_lcb(d).metric())
        assert H.is_lcb_direct()
        done += 1
    assert done >= 8


def _moved(vectors, s):
    """Coordinates of ambient vectors in the basis given by the columns of s."""
    sinv = linalg.inverse(s)
    return tuple(tuple(linalg.mat_vec(sinv, list(v))) for v in vectors)


def test_skt_to_lcb_is_realised_by_its_frame():
    """On SKT data in scaled, non-orthonormal frames, the frame of
    skt_to_lcb(d) realizes its (a, v', A): ad of its last vector has that
    block form in it, and the closed Lee and Bismut-Ricci forms and every
    data predicate agree with the direct route on (L, J, metric())."""
    rng = random.Random(80)
    rot = [[F(0), F(1)], [F(-1), F(0)]]
    # a = 0 and v off the image of A: v' != 0, so the outer pair moves
    stream = [data_from_parts(F(0), [F(2), F(-1), F(3), F(1, 2)],
                              linalg.block_diag([rot, linalg.zeros(2, 2)]), standard_j1(4)),
              data_from_parts(F(0), [F(1), F(2), F(-1), F(1, 2), F(3), F(0)],
                              linalg.block_diag([rot, linalg.zeros(2, 2),
                                                 linalg.mat_scale(2, rot)]), standard_j1(6))]
    stream += [random_data(rng, rng.choice([2, 3]), "skt") for _ in range(40)]
    done = projected = 0
    for d0 in stream:
        if not is_skt_data(d0):
            continue
        L, J, g = build_algebra(d0.a, list(d0.v), d0.A_matrix, d0.J1_matrix)
        s = random_shear(rng, L.dim)
        L, J, g = transported(L, J, g, s)
        g = Metric.from_matrix(linalg.mat_scale(rng.choice([F(2), F(3), F(1, 2)]), g.matrix))
        ideal = _moved(linalg.idmat(L.dim)[:-1], s)
        d = extract_data(HermitianStructure(L, J, g), ideal)
        dp = skt_to_lcb(d)
        n2, m = L.dim, dp.m
        assert linalg.mat_eq(linalg.mat_mul(dp.coframe, linalg.transpose(dp.frame)),
                             linalg.idmat(n2))
        ad = L.ad(dp.frame[-1])
        img = [linalg.mat_vec(dp.coframe, linalg.mat_vec(ad, w)) for w in dp.frame]
        assert img[0] == [dp.a] + list(dp.v) + [0]
        for t in range(m):
            assert img[1 + t] == [0] + [dp.A[r][t] for r in range(m)] + [0]
        H = HermitianStructure(L, J, dp.metric())
        assert lee_form_closed(dp).equals(H.lee_form())
        assert rho_b_closed(dp) == H.bismut_ricci_oracle()
        for name, predicate in DATA_PREDICATES.items():
            assert predicate(dp) == getattr(H, f"is_{name}_direct")(), name
        assert is_lcb_data(dp)
        done += 1
        projected += d.a == 0 and any(x != 0 for x in dp.v)
    assert done >= 30 and projected >= 2, (done, projected)


def test_metric_is_read_off_the_frame():
    """extract_data(H, ideal).metric() is g exactly, for every Hermitian catalog
    witness at every sample, also after a rational change of basis."""
    rng = random.Random(81)
    checked = 0
    for entry in ENTRIES.values():
        for params in entry.samples:
            L = instantiate(entry, params)
            for _, H, d, _ in witness_structures(entry, L):
                assert d.metric() == H.g
                s = random_shear(rng, L.dim)
                L2, J2, g2 = transported(L, H.J, H.g, s)
                ideal = abelian_ideal(L, to_ideal(entry.document))
                moved = _moved(ideal, s)
                assert extract_data(HermitianStructure(L2, J2, g2), moved).metric() == g2
                checked += 1
    assert checked >= 40


def test_balanced_vs_lcb_rank_obstruction():
    """Unimodular balanced data: rank(ad_X) = rank(A); a nonzero-v LCB
    datum on the same algebra would force rank(A) + 1."""
    j1 = standard_j1(4)
    A = [[F(0), F(1), F(0), F(0)],
         [F(-1), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(2)],
         [F(0), F(0), F(-2), F(0)]]
    d = data_from_parts(F(0), [0, 0, 0, 0], A, j1)
    assert is_balanced_data(d)
    L, J, g = build_algebra(F(0), [0, 0, 0, 0], A, j1)
    x = [F(0)] * 5 + [F(1)]
    ad = L.ad(x)
    assert linalg.rank(ad) == linalg.rank(A)
    # LCB data with v != 0 on a kernel block jumps the rank by one
    A2 = [list(r) for r in A]
    for t in (2, 3):
        for s in range(4):
            A2[t][s] = A2[s][t] = F(0)
    d2 = data_from_parts(F(0), [0, 0, 1, 0], A2, j1)
    assert is_lcb_data(d2) and not is_balanced_data(d2)
    L2, _, _ = build_algebra(F(0), [0, 0, 1, 0], A2, j1)
    ad2 = L2.ad(x)
    assert linalg.rank(ad2) == linalg.rank(A2) + 1


def test_extract_data_scaled_frame():
    """Non-perfect-square norms keep the exact path on a scaled frame."""
    L = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)])
    g = Metric.from_matrix([[F(2), F(0), F(0), F(0)],
                            [F(0), F(2), F(0), F(0)],
                            [F(0), F(0), F(3), F(0)],
                            [F(0), F(0), F(0), F(3)]])
    H = HermitianStructure(L, J, g)
    d = extract_data(H, None)
    assert not d.is_orthonormal()
    assert lee_form_closed(d).equals(H.lee_form())
    assert rho_b_closed(d) == H.bismut_ricci_oracle()
    assert is_kahler_data(d) == H.is_kahler_direct()
