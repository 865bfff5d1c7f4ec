"""The codimension-one abelian ideal: the search against its multi-branch
reference, and ``lie.abelian_ideal`` as the one cached owner.

The reference solves every pivot branch of xi and flags the answer
ambiguous when a branch has free parameters or a second branch is
consistent; the search solves one homogeneous system for xi and reads
ambiguity off the dimension of its null space.  Both must return the same
vectors and flag on R^k x|_D R (random D, rank-one D with D^2 = 0, D = 0,
optionally in a sheared basis), and a float copy must return the exact
answer within 1e-12 relative; both return None on so(3) + R^k and h5.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.catalog import _s2n_entry, entry_document
from aalg.documents import to_algebra
from aalg.lie import (LieAlgebra, LieAlgebraError, Subspace, abelian_ideal,
                      abelian_ideal_defect, find_codim1_abelian_ideal)
from aalg.scalars import coerce, is_zero, zero


# -- reference: every pivot branch solved ------------------------------------------

def ref_find_codim1_abelian_ideal(L):
    n = L.dim
    kind = L.kind
    derived = L.derived_algebra()
    solutions = []
    total_freedom = 0
    for t in range(n - 1, -1, -1):
        rows = []
        rhs = []
        for vec in derived.vectors:
            rows.append([coerce(vec[s], kind) for s in range(t)])
            rhs.append(-coerce(vec[t], kind))
        adt = L.ad_basis(t)
        for i in range(n):
            adi = L.ad_basis(i)
            for j in range(i + 1, n):
                if t in (i, j):
                    continue
                for k in range(n):
                    coeffs = [zero(kind) for _ in range(t)]
                    if i < t:
                        coeffs[i] += adt[k][j]
                    if j < t:
                        coeffs[j] -= adt[k][i]
                    if adi[k][j] != 0 or any(x != 0 for x in coeffs):
                        rows.append(coeffs)
                        rhs.append(adi[k][j])
        xi = linalg.idmat(n, kind)[t]
        if t > 0:
            aug = [row + [val] for row, val in zip(rows, rhs)]
            red, pivots = linalg.rref(aug)
            if t in pivots:
                continue
            freedom = t - len(pivots)
            for ridx, pc in enumerate(pivots):
                xi[pc] = red[ridx][t]
        else:
            if any(not is_zero(v) for v in rhs):
                continue
            freedom = 0
        solutions.append((t, xi, freedom))
        total_freedom += freedom
    if not solutions:
        return None
    t, xi, freedom = solutions[0]
    ambiguous = total_freedom > 0 or len(solutions) > 1
    basis = linalg.nullspace([xi])
    ideal = Subspace(len(basis), tuple(tuple(v) for v in basis), ambiguous=ambiguous)
    defect = abelian_ideal_defect(L, ideal.vectors)
    if defect is not None:
        raise LieAlgebraError("INTERNAL", f"ideal candidate is {defect}")
    return ideal


def float_copy(L):
    return LieAlgebra(L.dim, {key: [float(x) for x in vec] for key, vec in L.brackets.items()})


# -- strategies ------------------------------------------------------------------

ENTRY = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3)])


@st.composite
def semidirect_algebras(draw):
    """R^k x|_D R, k = 0..6, with D random, rank one with D^2 = 0, or zero;
    half of them in a rational sheared basis."""
    k = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["random", "square-zero", "zero"]))
    D = [[F(0)] * k for _ in range(k)]
    if shape == "random":
        D = [[draw(ENTRY) for _ in range(k)] for _ in range(k)]
    elif shape == "square-zero" and k:
        # D = u w^t with w orthogonal to u, so D^2 = (w . u) D = 0
        u = [draw(ENTRY) for _ in range(k)]
        w = [draw(ENTRY) for _ in range(k)]
        uu = linalg.dot(u, u)
        if uu:
            w = linalg.vec_sub(w, linalg.vec_scale(linalg.dot(w, u) / uu, u))
        D = [[ui * wj for wj in w] for ui in u]
        assert linalg.is_zero_matrix(linalg.mat_mul(D, D))
    L = LieAlgebra.semidirect(D)
    if draw(st.booleans()):
        s = [[draw(ENTRY) if i != j else F(1) for j in range(k + 1)] for i in range(k + 1)]
        if linalg.inverse(s) is not None:
            L = L.change_basis(s)
    return L


def so3_plus(k):
    vec = lambda *c: list(map(F, c)) + [F(0)] * k  # noqa: E731
    return LieAlgebra(3 + k, {(0, 1): vec(0, 0, 1), (1, 2): vec(1, 0, 0),
                              (0, 2): vec(0, -1, 0)})


H5 = LieAlgebra(5, {(0, 1): [F(0)] * 4 + [F(1)], (2, 3): [F(0)] * 4 + [F(1)]})


# -- the search against the reference ------------------------------------------------

def assert_close_answer(got, want, rel=0.0):
    """Same None result and flag; entries equal, or within rel max(1, |x|)."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got.ambiguous == want.ambiguous
        assert len(got.vectors) == len(want.vectors)
        for u, v in zip(got.vectors, want.vectors):
            if rel == 0.0:
                assert u == v
            else:
                assert all(abs(x - float(y)) <= rel * max(1.0, abs(float(y)))
                           for x, y in zip(u, v))


@settings(max_examples=150, deadline=None)
@given(semidirect_algebras())
def test_search_matches_every_branch_reference(L):
    want = ref_find_codim1_abelian_ideal(L)
    assert_close_answer(find_codim1_abelian_ideal(L), want)
    assert_close_answer(find_codim1_abelian_ideal(float_copy(L)), want, rel=1e-12)


def test_ill_conditioned_float_copy_finds_the_exact_ideal():
    """A sheared R^5 x|_D R with constants up to 1.4e3, an ill-conditioned
    float elimination: the float copy's ideal is the exact one within
    1e-12."""
    t, h = F(-1, 3), F(1, 2)
    D = [[0, -1, t, -1, h], [1, t, h, t, 2], [0, 1, h, 0, 2], [2, 0, 0, 0, t], [1, 1, 2, 0, 0]]
    s = [[1, 0, t, 1, 2, 2], [0, 1, -1, 1, 2, 1], [0, -1, 1, -1, t, h],
         [-1, t, 0, 1, -1, 0], [0, t, 0, 1, 1, t], [t, -1, 1, -1, t, 1]]
    L = LieAlgebra.semidirect([[F(x) for x in row] for row in D]).change_basis(
        [[F(x) for x in row] for row in s])
    assert 1e3 < max(abs(x) for vec in L.brackets.values() for x in vec) < 1.5e3
    want = find_codim1_abelian_ideal(L)
    assert want is not None and want == ref_find_codim1_abelian_ideal(L)
    assert_close_answer(find_codim1_abelian_ideal(float_copy(L)), want, rel=1e-12)


@pytest.mark.parametrize("L", [so3_plus(k) for k in range(4)] + [H5])
def test_no_abelian_hyperplane_ideal(L):
    for M in (L, float_copy(L)):
        assert find_codim1_abelian_ideal(M) is None
        assert ref_find_codim1_abelian_ideal(M) is None


def test_s12_search_runs_four_eliminations(monkeypatch):
    """On s_12, in its own basis and with the transversal moved first, the
    search runs four eliminations: the brackets' rref, the null space of
    the system, the ideal's basis and the re-check.  The multi-branch
    reference takes fourteen on s_12; stopping at the first consistent
    branch took fifteen with the transversal first."""
    L = to_algebra(entry_document(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)}))
    n = L.dim
    shift = [[F(int(i == (j - 1) % n)) for j in range(n)] for i in range(n)]
    rref = linalg.rref
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(1) or rref(a))
    for M in (L.change_basis(shift), L):
        calls.clear()
        got = find_codim1_abelian_ideal(M)
        assert len(calls) == 4
    calls.clear()
    assert ref_find_codim1_abelian_ideal(L) == got
    assert len(calls) == 14


# -- one owner, cached per declaration --------------------------------------------

def test_abelian_ideal_searches_or_validates_once(monkeypatch):
    from aalg import lie
    calls = {"find_codim1_abelian_ideal": 0, "abelian_ideal_defect": 0}
    for name in calls:
        original = getattr(lie, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(lie, name, counted)
    L = LieAlgebra.semidirect([[F(1), F(0)], [F(0), F(2)]])
    found = abelian_ideal(L, None)
    assert abelian_ideal(L, None) is found
    assert calls == {"find_codim1_abelian_ideal": 1, "abelian_ideal_defect": 1}
    e = linalg.idmat(3)
    declared = Subspace(2, (tuple(e[0]), tuple(e[1])))
    assert abelian_ideal(L, declared) is declared
    assert abelian_ideal(L, Subspace(2, (tuple(e[0]), tuple(e[1])))) is declared
    assert calls["abelian_ideal_defect"] == 2
    bad = Subspace(2, (tuple(e[0]), tuple(e[2])))
    for _ in range(2):
        with pytest.raises(LieAlgebraError) as err:
            abelian_ideal(L, bad)
        assert err.value.code == "IDEAL_NOT_ABELIAN"
        assert err.value.message == "declared subspace is not abelian"
    assert calls["abelian_ideal_defect"] == 3
    with pytest.raises(LieAlgebraError, match="no codimension-one abelian ideal"):
        abelian_ideal(H5, None)
