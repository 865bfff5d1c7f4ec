"""The codimension-one abelian ideal: the search against its multi-branch
reference, and ``lie.abelian_ideal`` as the one cached owner.

The reference solves every pivot branch of xi, and L has more than one
codimension-one abelian ideal when a branch has free parameters or a
second branch is consistent; the search solves one homogeneous system for
xi, on exact algebras in its coordinates over ann [L, L].  Both must return the same basis vectors on R^k x|_D R (random D,
rank-one D with D^2 = 0, D = 0, optionally in a sheared basis), and a
float copy must return the exact answer within 1e-12 relative; both
return None on so(3) + R^k and h5.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.almost_abelian import build_algebra
from aalg.catalog import _s2n_entry, entry_document
from aalg.documents import to_algebra
from aalg.forms import sort_indices
from aalg.lie import (LieAlgebra, LieAlgebraError, abelian_ideal,
                      abelian_ideal_defect, find_codim1_abelian_ideal)
from aalg.scalars import coerce, is_zero, zero

from conftest import ALL_SHAPES, random_data, random_shear, transported


# -- reference: every pivot branch solved ------------------------------------------

def ref_branches(L):
    """(t, xi, freedom) of each consistent pivot branch t of xi, the last t
    first: xi_t = 1 and xi_s = 0 for s > t, with ``freedom`` parameters."""
    n = L.dim
    kind = L.kind
    derived = L.derived_algebra()
    solutions = []
    for t in range(n - 1, -1, -1):
        rows = []
        rhs = []
        for vec in derived:
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
    return solutions


def ref_ambiguous(L):
    """L has more than one codimension-one abelian ideal: a branch with free
    parameters, or a second branch."""
    branches = ref_branches(L)
    return len(branches) > 1 or any(freedom for _, _, freedom in branches)


def ref_find_codim1_abelian_ideal(L):
    """ker xi of the first branch, or None."""
    branches = ref_branches(L)
    if not branches:
        return None
    ideal = tuple(map(tuple, linalg.nullspace([branches[0][1]])))
    defect = abelian_ideal_defect(L, ideal)
    if defect is not None:
        raise LieAlgebraError("INTERNAL", f"ideal candidate is {defect}")
    return ideal


# -- reference: the same system with Fraction rows ---------------------------------

def ref_fraction_row_search(L):
    """The search with its xi ^ de^k rows built as vectors of the algebra's
    scalars from the coframe's 2-forms, and the bracket vectors themselves
    as the other rows."""
    n = L.dim
    brackets = list(L.brackets.values())
    free = set(range(n)).difference(linalg.rref(brackets)[1])
    wedge = {}
    for k, de in enumerate(L.coframe_differentials()):
        for (a, b), c in de.coeffs.items():
            for l in range(n):
                if l not in (a, b) and free.intersection((l, a, b)):
                    key, sign = sort_indices((l, a, b))
                    row = wedge.setdefault((k, key), linalg.zero_vector(n, L.kind))
                    row[l] += sign * c
    system = [wedge[key] for key in sorted(wedge)] + brackets
    V = linalg.nullspace(system) if system else linalg.idmat(n, L.kind)
    if not V:
        return None
    return tuple(map(tuple, linalg.nullspace([V[-1]])))


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
            c = linalg.dot(w, u) / uu
            w = linalg.vec_sub(w, [c * x for x in u])
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
    """Same None result; entries equal, or within rel max(1, |x|)."""
    assert (got is None) == (want is None)
    if want is not None:
        assert len(got) == len(want)
        for u, v in zip(got, want):
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
    for M in (L, float_copy(L)):
        assert repr(find_codim1_abelian_ideal(M)) == repr(ref_fraction_row_search(M))


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


def sheared_algebra(seed):
    """The algebra of a random structure of a random shape, dim 4 to 10,
    moved by a random shear."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    d = random_data(rng, n, rng.choice(ALL_SHAPES))
    L, _, _ = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix),
                          random_shear(rng, 2 * n))
    return L


def dense_algebra(dim, shape):
    """The algebra of a random structure of one shape in dimension dim,
    moved by a random shear: a dense basis, seeded by dim and shape."""
    rng = random.Random(100 * dim + len(shape))
    d = random_data(rng, dim // 2, shape)
    L, _, _ = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix),
                          random_shear(rng, dim))
    return L


@pytest.mark.parametrize("seed", range(10))
def test_search_matches_the_fraction_row_reference_on_sheared_algebras(seed):
    """The integer rows are dc times the Fraction rows, so the exact answer
    is the same; the float rows are the same floats, so the float answer is
    the same in repr."""
    L = sheared_algebra(seed)
    for M in (L, float_copy(L)):
        got = find_codim1_abelian_ideal(M)
        assert got is not None and repr(got) == repr(ref_fraction_row_search(M))


def test_search_system_holds_ints_on_exact_algebras(monkeypatch):
    """The system whose null space the search takes: on an exact algebra,
    Python ints (no Fraction built and cleared again) in the r = dim
    ann [L, L] coordinates of xi over the brackets' null space; on its
    float copy, floats in the n coordinates of xi with the bracket rows
    last.  On s_12 the one free column carries all of ann [L, L] and no
    exact row survives, so only the float copy solves a system."""
    systems = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda a: systems.append(a) or nullspace(a))
    s12 = to_algebra(entry_document(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)}))
    for L in (s12, sheared_algebra(3), sheared_algebra(7), so3_plus(1), dense_algebra(16, "skt")):
        r = L.dim - linalg.rank(list(L.brackets.values()))
        systems.clear()
        find_codim1_abelian_ideal(L)
        if L is s12:
            assert [len(a) for a in systems] == [1, L.dim - 1]
        else:
            assert systems[0] and all(len(row) == r and all(type(x) is int for x in row)
                                      for row in systems[0])
        M = float_copy(L)
        systems.clear()
        find_codim1_abelian_ideal(M)
        rows = M.constants[1]
        assert systems[0][-len(rows):] == rows
        assert all(len(row) == M.dim and all(type(x) is float for x in row)
                   for row in systems[0])


@pytest.mark.parametrize("L", [so3_plus(k) for k in range(4)] + [H5])
def test_no_abelian_hyperplane_ideal(L):
    for M in (L, float_copy(L)):
        assert find_codim1_abelian_ideal(M) is None
        assert ref_find_codim1_abelian_ideal(M) is None


def test_s12_search_runs_three_eliminations(monkeypatch):
    """On s_12, in its own basis and with the transversal moved first, the
    search runs three eliminations: the brackets' rref, the ideal's basis
    and the re-check.  ann [L, L] is the line over the one free column, so
    no xi ^ de^k row survives and V[-1] is read off without an elimination.
    The multi-branch reference takes fourteen on s_12; stopping at the
    first consistent branch took fifteen with the transversal first."""
    L = to_algebra(entry_document(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)}))
    n = L.dim
    shift = [[F(int(i == (j - 1) % n)) for j in range(n)] for i in range(n)]
    rref = linalg.rref
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(1) or rref(a))
    for M in (L.change_basis(shift), L):
        calls.clear()
        got = find_codim1_abelian_ideal(M)
        assert len(calls) == 3
    calls.clear()
    assert ref_find_codim1_abelian_ideal(L) == got
    assert len(calls) == 14


@pytest.mark.parametrize("shape", ["skt", "lcb"])
def test_search_matches_the_fraction_row_reference_on_dense_algebras(shape):
    """Sheared dim-16 skt and lcb algebras, whose brackets leave three free
    columns: the exact search solves in three unknowns over ann [L, L] and
    must give the answer of the one system in all sixteen."""
    L = dense_algebra(16, shape)
    assert L.dim - linalg.rank(list(L.brackets.values())) == 3
    got = find_codim1_abelian_ideal(L)
    assert got is not None and got == ref_fraction_row_search(L)


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
    declared = (tuple(e[0]), tuple(e[1]))
    assert abelian_ideal(L, declared) is declared
    assert abelian_ideal(L, (tuple(e[0]), tuple(e[1]))) is declared
    assert calls["abelian_ideal_defect"] == 2
    bad = (tuple(e[0]), tuple(e[2]))
    for _ in range(2):
        with pytest.raises(LieAlgebraError) as err:
            abelian_ideal(L, bad)
        assert err.value.code == "IDEAL_NOT_ABELIAN"
        assert err.value.message == "declared subspace is not abelian"
    assert calls["abelian_ideal_defect"] == 3
    with pytest.raises(LieAlgebraError, match="no codimension-one abelian ideal"):
        abelian_ideal(H5, None)
