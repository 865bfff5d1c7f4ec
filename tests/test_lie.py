"""Lie algebra validation, adjoints, unimodularity and the ideal probe."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.forms import KForm, exterior_derivative
from aalg.lie import LieAlgebra, LieAlgebraError, find_codim1_abelian_ideal

from conftest import bracket
from test_ideal_search import ref_ambiguous


def test_validate_aff2_tuple():
    # [e1, e2] = -e1, the other brackets zero
    L = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    assert L.dim == 4
    assert bracket(L, 0, 1) == [F(-1), F(0), F(0), F(0)]


def test_jacobi_violation_witness():
    # [e1,e2]=e1, [e1,e3]=e3: cyclic sum on (e1,e2,e3) is e3
    with pytest.raises(LieAlgebraError) as err:
        LieAlgebra(3, {(0, 1): [F(1), F(0), F(0)], (0, 2): [F(0), F(0), F(1)]})
    assert err.value.code == "JACOBI_VIOLATION"
    assert err.value.witness == (0, 1, 2)


def test_ad_g4_diagonal():
    g4 = LieAlgebra(6, {(i, 5): [F(-1) if t == i else F(0) for t in range(6)]
                        for i in range(4)})
    ad = g4.ad_basis(5)
    assert [ad[i][i] for i in range(6)] == [F(1)] * 4 + [F(0), F(0)]


def test_ad_abelian_zero():
    L = LieAlgebra(5, {})
    x = [F(1), F(-2), F(0), F(3), F(1)]
    assert linalg.is_zero_matrix(L.ad(x))


def test_ad_linearity():
    rng = random.Random(2)
    g4 = LieAlgebra(6, {(i, 5): [F(-1) if t == i else F(0) for t in range(6)]
                        for i in range(4)})
    for _ in range(10):
        x = [F(rng.randint(-3, 3)) for _ in range(6)]
        y = [F(rng.randint(-3, 3)) for _ in range(6)]
        lhs = g4.ad([a + b for a, b in zip(x, y)])
        rhs = linalg.mat_add(g4.ad(x), g4.ad(y))
        assert linalg.mat_eq(lhs, rhs)


def test_unimodular_g1_locus():
    def g1(p):
        scal = {0: F(1), 1: p, 2: p, 3: p, 4: p}
        return LieAlgebra(6, {(i, 5): [-scal[i] if t == i else F(0) for t in range(6)]
                              for i in range(5)})
    assert g1(F(-1, 4)).is_unimodular()
    assert not g1(F(1)).is_unimodular()


def test_unimodular_heisenberg_and_aff2():
    h3r = LieAlgebra(4, {(0, 1): [F(0), F(0), F(0), F(-1)]})
    assert h3r.is_unimodular()
    aff = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    assert not aff.is_unimodular()


def test_unimodularity_basis_independent():
    rng = random.Random(8)
    aff = LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})
    h3r = LieAlgebra(4, {(0, 1): [F(0), F(0), F(0), F(-1)]})
    for L, expected in ((aff, False), (h3r, True)):
        for _ in range(5):
            while True:
                s = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
                if linalg.inverse(s) is not None:
                    break
            assert L.change_basis(s).is_unimodular() == expected


def test_ideal_g4():
    g4 = LieAlgebra(6, {(i, 5): [F(-1) if t == i else F(0) for t in range(6)]
                        for i in range(4)})
    assert find_codim1_abelian_ideal(g4) == tuple(map(tuple, linalg.idmat(6)[:5]))
    assert not ref_ambiguous(g4)


def test_ideal_abelian_canonical_and_ambiguous():
    L = LieAlgebra(4, {})
    assert ref_ambiguous(L)
    assert find_codim1_abelian_ideal(L) == tuple(map(tuple, linalg.idmat(4)[:3]))


def test_ideal_simple_none():
    so3 = LieAlgebra(3, {(0, 1): [F(0), F(0), F(1)],
                         (1, 2): [F(1), F(0), F(0)],
                         (0, 2): [F(0), F(-1), F(0)]})
    assert find_codim1_abelian_ideal(so3) is None


def test_ideal_found_on_every_catalog_algebra():
    """Detection succeeds and [L, L] lands inside the ideal, all entries."""
    from aalg.catalog import ENTRIES, instantiate
    for name, entry in sorted(ENTRIES.items()):
        L = instantiate(entry, entry.samples[0])
        ideal = find_codim1_abelian_ideal(L)
        assert ideal is not None, name
        assert len(ideal) == linalg.rank(ideal) == entry.dim - 1
        for v in L.derived_algebra():
            assert linalg.rank([*ideal, v]) == entry.dim - 1, name


def test_ideal_nilpotent_flagged():
    n1 = LieAlgebra(6, {(0, 1): [F(0)] * 5 + [F(-1)]})
    assert find_codim1_abelian_ideal(n1) is not None and ref_ambiguous(n1)


@st.composite
def semidirect_sheared(draw):
    """(D, R^k x|_D R in a basis moved by k + 1 integer shears), k = 1 .. 5:
    D is a random matrix, or u w^t half of the time, which is rank one
    with D^2 = 0 whenever w . u = 0."""
    k = draw(st.integers(1, 5))
    entry = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2)])
    if draw(st.booleans()):
        D = [[draw(entry) for _ in range(k)] for _ in range(k)]
    else:
        u, w = ([draw(entry) for _ in range(k)] for _ in "uw")
        D = [[x * y for y in w] for x in u]
    s = linalg.idmat(k + 1)
    for _ in range(draw(st.integers(0, k + 1))):
        i, j = draw(st.permutations(range(k + 1)))[:2]
        c = draw(st.sampled_from([F(1), F(-1), F(2)]))
        for row in s:
            row[i] += c * row[j]
    return D, LieAlgebra.semidirect(D).change_basis(s)


@settings(max_examples=300, deadline=None)
@given(semidirect_sheared())
def test_ideal_ambiguous_exactly_for_abelian_and_heisenberg(case):
    """L has more than one codimension-one abelian ideal (dim V > 1 in the
    search, every pivot branch solved in the reference) exactly when
    D^2 = 0 and rank D <= 1: g abelian or h_3 + R^(k - 2)."""
    D, L = case
    assert find_codim1_abelian_ideal(L) is not None
    assert ref_ambiguous(L) == (linalg.is_zero_matrix(linalg.mat_mul(D, D))
                                and linalg.rank(D) <= 1)


def test_jacobi_iff_d_squared_zero():
    """Cross-check on 50 random sparse tensors (both directions)."""
    rng = random.Random(123)
    valid = invalid = 0
    for trial in range(50):
        dim = rng.choice([3, 4])
        brackets = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(dim), 2))
            vec = [F(0)] * dim
            vec[rng.randrange(dim)] = F(rng.choice([-1, 1, 2]))
            brackets[(i, j)] = vec
        try:
            L = LieAlgebra(dim, brackets)
            valid += 1
            ok = True
        except LieAlgebraError:
            L = LieAlgebra(dim, brackets, _validated=True)
            invalid += 1
            ok = False
        dd_zero = all(
            exterior_derivative(exterior_derivative(KForm.basis(dim, k), L), L).is_zero()
            for k in range(dim))
        assert dd_zero == ok
    assert valid >= 5 and invalid >= 5


def sheared_r4_by_r():
    """A sheared R^4 x| R with constants of order 10^3 (0-based pairs)."""
    b01 = [F(x, 17) for x in (8100, 2100, -3350, 275, -5450)]
    b13 = [F(x, 17) for x in (-31104, -8064, 12864, -1056, 20928)]
    return {(0, 1): b01, (0, 2): [-x for x in b01], (0, 4): b01,
            (1, 2): [F(-52974, 17), F(-13734, 17), F(21909, 17), F(-3597, 34), F(35643, 17)],
            (1, 3): b13,
            (1, 4): [F(18954, 17), F(4914, 17), F(-7839, 17), F(1287, 34), F(-12753, 17)],
            (2, 3): [-x for x in b13],
            (2, 4): [F(x, 17) for x in (34020, 8820, -14070, 1155, -22890)],
            (3, 4): [-x for x in b13]}


def as_float(brackets):
    return {key: [float(x) for x in vec] for key, vec in brackets.items()}


def test_float_jacobi_scales_with_the_constants():
    """The cyclic sums are quadratic in the constants, so their float
    rounding grows with max |c|^2: the float copy of a valid algebra with
    constants near 3000 is accepted, as the exact algebra is."""
    brackets = sheared_r4_by_r()
    assert LieAlgebra(5, brackets).jacobi_witness() is None
    assert LieAlgebra(5, as_float(brackets)).kind == "float"


def test_float_jacobi_rejects_a_perturbed_constant():
    """One constant moved by about 1e-3 max |c| breaks Jacobi on both
    paths, with the same witness triple."""
    brackets = sheared_r4_by_r()
    brackets[(0, 1)][0] += 3
    for table in (brackets, as_float(brackets)):
        with pytest.raises(LieAlgebraError) as err:
            LieAlgebra(5, table)
        assert err.value.code == "JACOBI_VIOLATION"
        assert err.value.witness == (0, 1, 2)
