"""Float kernel: the same operations under the global tolerance."""

import math
import random
from fractions import Fraction as F

from aalg import linalg
from aalg.forms import KForm, wedge
from aalg.scalars import FLOAT, tolerance
from aalg.hermitian import ComplexStructure, HermitianStructure, Metric, nijenhuis
from aalg.lie import LieAlgebra, abelian_ideal_defect, find_codim1_abelian_ideal
from aalg.almost_abelian import (build_algebra, extract_data, is_lcb_data,
                                 is_lck_data, is_skt_data, lee_form_closed,
                                 rho_b_closed)

from conftest import ALL_SHAPES, data_stream, random_data, random_shear, transported


def to_float_data(d):
    a = float(d.a)
    v = [float(x) for x in d.v]
    A = [[float(x) for x in row] for row in d.A]
    j1 = [[float(x) for x in row] for row in d.J1]
    return a, v, A, j1


def test_float_closed_formulas_match_oracle():
    """Float path residual of closed vs oracle rho stays under 1e-8."""
    for d in data_stream(301, 12, dims=(2, 3)):
        a, v, A, j1 = to_float_data(d)
        L, J, g = build_algebra(a, v, A, j1)
        H = HermitianStructure(L, J, g)
        df = extract_data(H, None)
        closed = rho_b_closed(df)
        oracle = H.bismut_ricci_oracle()
        diff = closed - oracle
        assert all(abs(x) <= 1e-8 for x in diff.coeffs.values())
        with tolerance(1e-8):
            assert lee_form_closed(df).equals(H.lee_form())


def test_float_predicates_agree_with_exact():
    for d in data_stream(302, 24, dims=(2, 3)):
        a, v, A, j1 = to_float_data(d)
        Lf, Jf, gf = build_algebra(a, v, A, j1)
        df = extract_data(HermitianStructure(Lf, Jf, gf), None)
        Le, Je, ge = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        de = extract_data(HermitianStructure(Le, Je, ge), None)
        assert is_lcb_data(df) == is_lcb_data(de)
        assert is_lck_data(df) == is_lck_data(de)
        assert is_skt_data(df) == is_skt_data(de)


def test_float_wedge_properties():
    """Graded anticommutativity and associativity within the tolerance."""
    rng = random.Random(303)
    for _ in range(20):
        dim = 5
        def rand_form(deg):
            from itertools import combinations
            keys = list(combinations(range(dim), deg))
            return KForm(deg, dim, {rng.choice(keys): rng.uniform(-2, 2)
                                    for _ in range(2)})
        a, b, c = rand_form(1), rand_form(2), rand_form(1)
        sign = (-1.0) ** (a.degree * b.degree)
        with tolerance(1e-9):
            assert wedge(a, b).equals(wedge(b, a).scale(sign))
            assert wedge(wedge(a, b), c).equals(wedge(a, wedge(b, c)))


def test_float_wedge_tolerant_equality():
    a = KForm(1, 4, {(0,): 1.0, (2,): 0.5})
    b = KForm(2, 4, {(1, 3): 2.0})
    w = wedge(a, b)
    wp = wedge(a, b)
    shifted = KForm(3, 4, {k: v + 1e-12 for k, v in w.coeffs.items()})
    assert w.equals(wp)
    with tolerance(1e-9):
        assert w.equals(shifted)
    with tolerance(1e-14):
        assert not w.equals(shifted)


def test_float_jacobi_tolerance():
    eps = 1e-12
    L = LieAlgebra(3, {(0, 1): [0.0, 0.0, 1.0 + eps],
                       (0, 2): [0.0, 0.0, 0.0]})
    assert L.kind == "float"


def test_float_extract_normalizes():
    """The float path always produces an orthonormal adapted frame."""
    L = LieAlgebra(4, {(0, 1): [-1.0, 0.0, 0.0, 0.0]})
    J = ComplexStructure.from_pairs(4, [(0, 1), (2, 3)], kind="float")
    g = Metric.from_matrix([[2.0, 0, 0, 0], [0, 2.0, 0, 0],
                            [0, 0, 3.0, 0], [0, 0, 0, 3.0]])
    d = extract_data(HermitianStructure(L, J, g), None)
    assert d.is_orthonormal()
    assert abs(d.a + 1 / math.sqrt(2)) < 1e-12 or abs(d.a - 1 / math.sqrt(2)) < 1e-12


def _float_copy(L):
    return LieAlgebra(L.dim, {key: [float(x) for x in vec]
                              for key, vec in L.brackets.items()})


def test_float_integrability_is_relative_to_the_constants():
    """Float copies of 200 sheared structures whose (a, v, A) are scaled by
    10^6/3 .. 10^9/3: the float integrability verdict is the exact one, on
    the adapted J and on a random pairing.  N's terms are products of one
    constant and two entries of J, so float N of an integrable J is
    rounding of that size (2.8e-9 at max |c| ~ 4.6e6 and max |J| = 2),
    beyond the absolute tolerance but within eps max(1, max |c|)
    max(1, max |J|)^2."""
    rng = random.Random(31)
    verdicts = []
    for _ in range(200):
        n = rng.randint(2, 5)
        d = random_data(rng, n, rng.choice(ALL_SHAPES))
        s = F(10 ** rng.randint(6, 9), 3)
        Le, Je, _ = transported(*build_algebra(
            s * d.a, [s * x for x in d.v], [[s * x for x in row] for row in d.A_matrix],
            d.J1_matrix), random_shear(rng, 2 * n))
        Lf = LieAlgebra(Le.dim, {key: [float(x) for x in vec] for key, vec in Le.brackets.items()},
                        kind=FLOAT, _validated=True)
        order = rng.sample(range(Le.dim), Le.dim)
        pairs = list(zip(order[::2], order[1::2]))
        for Jx, Jy in ((Je, ComplexStructure(tuple(tuple(map(float, row)) for row in Je.J))),
                       (ComplexStructure.from_pairs(Le.dim, pairs),
                        ComplexStructure.from_pairs(Le.dim, pairs, FLOAT))):
            exact = not nijenhuis(Jx, Le)
            assert (not nijenhuis(Jy, Lf)) == exact
            verdicts.append(exact)
    # every adapted J is integrable, and most pairings are not
    assert all(verdicts[::2]) and verdicts[1::2].count(False) > 150


def test_float_structure_verdicts_agree_with_exact():
    """Float copies of rational generator structures: the same Jacobi
    outcome, integrability verdicts (the adapted J and random pairings)
    and ideal-defect strings as the exact builds, at the default
    tolerance."""
    rng = random.Random(304)
    for d in data_stream(304, 16, dims=(2, 3, 4)):
        Le, Je, _ = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        Lf = _float_copy(Le)
        assert Le.jacobi_witness() is None and Lf.jacobi_witness() is None
        Jf = ComplexStructure.from_matrix([[float(x) for x in row] for row in Je.matrix])
        assert not nijenhuis(Je, Le) and not nijenhuis(Jf, Lf)
        for _ in range(3):
            order = rng.sample(range(Le.dim), Le.dim)
            pairs = list(zip(order[::2], order[1::2]))
            assert (not nijenhuis(ComplexStructure.from_pairs(Le.dim, pairs), Le)
                    == (not nijenhuis(ComplexStructure.from_pairs(Le.dim, pairs, "float"), Lf)))
        ideal = find_codim1_abelian_ideal(Le)
        hyperplanes = [ideal] + [
            linalg.nullspace([[F(rng.choice((0, 0, 1, -1, 2))) for _ in range(Le.dim)]])
            for _ in range(3)]
        for vecs in hyperplanes:
            fvecs = [[float(x) for x in v] for v in vecs]
            assert abelian_ideal_defect(Lf, fvecs) == abelian_ideal_defect(Le, vecs)
    # an abelian hyperplane that is not an ideal: [e_n, e_1] = e_1 / 3 and
    # the kernel of e^1 + e^n / 3
    for dim in (4, 6):
        D = [[F(1, 3) if i == j == 0 else F(0) for j in range(dim - 1)]
             for i in range(dim - 1)]
        Le = LieAlgebra.semidirect(D)
        vecs = linalg.nullspace([[F(1)] + [F(0)] * (dim - 2) + [F(1, 3)]])
        fvecs = [[float(x) for x in v] for v in vecs]
        assert abelian_ideal_defect(Le, vecs) == "not an ideal"
        assert abelian_ideal_defect(_float_copy(Le), fvecs) == "not an ideal"


def test_float_jacobi_witness_agrees_with_exact():
    """Broken bracket tables: the float copy fails Jacobi on the same first
    triple as the exact build, with the same cyclic sum up to rounding."""
    rng = random.Random(305)
    broken = 0
    for _ in range(60):
        dim = rng.choice([3, 4, 5, 6])
        brackets = {}
        for _ in range(rng.randint(1, 5)):
            i, j = sorted(rng.sample(range(dim), 2))
            vec = [F(0)] * dim
            vec[rng.randrange(dim)] = rng.choice([F(1), F(-1), F(1, 3), F(2, 7)])
            brackets[(i, j)] = vec
        Le = LieAlgebra(dim, brackets, _validated=True)
        floats = {key: [float(x) for x in vec] for key, vec in brackets.items()}
        we = Le.jacobi_witness()
        wf = LieAlgebra(dim, floats, _validated=True).jacobi_witness()
        if we is None:
            assert wf is None
            continue
        broken += 1
        assert wf[:3] == we[:3]
        assert all(abs(x - float(y)) <= 1e-12 for x, y in zip(wf[3], we[3]))
    assert broken >= 10
