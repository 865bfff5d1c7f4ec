"""The ad table against direct bracket loops.

Jacobi (d^2 = 0 on the coframe), Nijenhuis (pair by pair from the nonzero
brackets), ad_x (a combination of the table's matrices) and the ideal test
(xi on the brackets) are compared exactly with references here that
bracket unit vectors pair by pair and triple by triple, on random bracket
tables, Jacobi-violating ones included, and random J.

The last section keeps the loops that the algebra's one integer table
(``LieAlgebra.constants``) replaced, the ad_x accumulation and the table of
ad matrices, and a Nijenhuis loop over every pair that sums in the
library's order.
Exact results must be equal and float results equal in repr, signed
zeros included.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.almost_abelian import build_algebra
from aalg.catalog import _s2n_entry, entry_document
from aalg.documents import to_algebra, to_complex_structure
from aalg.hermitian import ComplexStructure, nijenhuis
from aalg.lie import LieAlgebra, abelian_ideal_defect
from aalg.scalars import FLOAT, current_eps, is_zero

from conftest import ALL_SHAPES, random_data, random_shear, transported

SCALARS = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-1, 3)])


# -- references: the loops over unit vectors ------------------------------------

def ref_basis_bracket(L, i, j):
    if i == j:
        return linalg.zero_vector(L.dim, L.kind)
    if i < j:
        vec = L.brackets.get((i, j))
        return list(vec) if vec else linalg.zero_vector(L.dim, L.kind)
    vec = L.brackets.get((j, i))
    return [-x for x in vec] if vec else linalg.zero_vector(L.dim, L.kind)


def loop_bracket(L, x, y):
    """[x, y] as the sum of (x_i y_j - x_j y_i) [e_i, e_j] over the brackets
    dict, in its order, from the kind's zero."""
    out = linalg.zero_vector(L.dim, L.kind)
    for (i, j), vec in L.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c == 0:
            continue
        for t, v in enumerate(vec):
            if v != 0:
                out[t] += c * v
    return out


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def ref_ad(L, x):
    return linalg.transpose([loop_bracket(L, x, e) for e in linalg.idmat(L.dim, L.kind)])


def ref_dense_ad(L, x):
    """sum_i x_i ad_{e_i} as dense matrix sums over the nonzero x_i, in order."""
    out = linalg.zeros(L.dim, L.dim, L.kind)
    for i, xi in enumerate(x):
        if xi != 0:
            out = linalg.mat_add(out, linalg.mat_scale(xi, L.ad_basis(i)))
    return out


def ref_jacobi_witness(L):
    units = linalg.idmat(L.dim, L.kind)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            bij = ref_basis_bracket(L, i, j)
            for k in range(j + 1, L.dim):
                res = vec_add(
                    loop_bracket(L, bij, units[k]),
                    vec_add(loop_bracket(L, ref_basis_bracket(L, j, k), units[i]),
                            loop_bracket(L, ref_basis_bracket(L, k, i), units[j])))
                if not linalg.is_zero_vector(res):
                    return (i, j, k, res)
    return None


def ref_nijenhuis(J, L):
    jm = J.matrix
    units = linalg.idmat(L.dim, L.kind)
    cols = linalg.transpose(jm)
    out = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            term = loop_bracket(L, cols[i], cols[j])
            term = linalg.vec_sub(term, linalg.mat_vec(jm, loop_bracket(L, cols[i], units[j])))
            term = linalg.vec_sub(term, linalg.mat_vec(jm, loop_bracket(L, units[i], cols[j])))
            term = linalg.vec_sub(term, ref_basis_bracket(L, i, j))
            if not linalg.is_zero_vector(term):
                out[(i, j)] = term
    return out


def ref_abelian_ideal_defect(L, vectors):
    vecs = [list(v) for v in vectors]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if not linalg.is_zero_vector(loop_bracket(L, vecs[a], vecs[b])):
                return "not abelian"
    units = linalg.idmat(L.dim, L.kind)
    kernel = linalg.nullspace(vecs) if vecs else units
    if len(vecs) != L.dim - 1 or len(kernel) != 1:
        return "not a hyperplane"
    for e in units:
        for v in vecs:
            if not is_zero(linalg.dot(kernel[0], loop_bracket(L, e, v))):
                return "not an ideal"
    return None


# -- strategies ------------------------------------------------------------------

@st.composite
def random_tables(draw, dims=st.integers(2, 6)):
    """Unvalidated bracket tables: most of them violate Jacobi."""
    dim = draw(dims)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {}
    for key in draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True)):
        vec = [F(0)] * dim
        for k in draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=2, unique=True)):
            vec[k] = draw(SCALARS)
        brackets[key] = vec
    return LieAlgebra(dim, brackets, _validated=True)


@st.composite
def semidirect_tables(draw, dims=st.integers(2, 6)):
    """R^(n-1) x_D R, a Lie algebra, in a sheared basis."""
    dim = draw(dims)
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2)])
    D = [[draw(entry) for _ in range(dim - 1)] for _ in range(dim - 1)]
    L = LieAlgebra.semidirect(D)
    s = linalg.idmat(dim)
    s[0][dim - 1] = draw(st.sampled_from([F(0), F(1), F(-2)]))
    s[dim - 1][0] = draw(st.sampled_from([F(0), F(1, 2)]))
    return L.change_basis(s) if linalg.inverse(s) is not None else L


FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -1 / 3, 2.5, 1e-3, -7.25, 1e16])


# sums and products of these are exact in any order, so float results
# computed in different orders still agree in repr, zero signs included
DYADIC = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 0.25, 3.0])


@st.composite
def float_tables(draw, values=FLOATS):
    """Unvalidated float bracket tables, keys in random order and orientation,
    so that an entry of ad_x sums up to dim - 1 terms."""
    dim = draw(st.integers(2, 6))
    pairs = draw(st.permutations([(i, j) for i in range(dim) for j in range(i + 1, dim)]))
    brackets = {}
    for i, j in pairs[:draw(st.integers(0, len(pairs)))]:
        key = (j, i) if draw(st.booleans()) else (i, j)
        brackets[key] = [draw(values) for _ in range(dim)]
    return LieAlgebra(dim, brackets, kind=FLOAT, _validated=True)


tables = st.one_of(random_tables(), semidirect_tables())
EVEN = st.sampled_from([2, 4, 6])
even_tables = st.one_of(random_tables(EVEN), semidirect_tables(EVEN))


@st.composite
def complex_structures(draw, dim):
    """A random pairing J, half of the time conjugated by a product of dim
    integer shears (dense columns), a quarter of the time by one shear entry."""
    order = draw(st.permutations(range(dim)))
    J = ComplexStructure.from_pairs(dim, list(zip(order[::2], order[1::2])))
    s = linalg.idmat(dim)
    mode = draw(st.sampled_from(["pairing", "entry", "dense", "dense"]))
    if mode == "entry" and dim > 2:
        s[draw(st.integers(0, dim - 1))][draw(st.integers(0, dim - 1))] += draw(SCALARS)
    elif mode == "dense":
        # column i += c column j: unimodular, so s^-1 is integer too
        for _ in range(dim):
            i, j = draw(st.permutations(range(dim)))[:2]
            c = draw(st.sampled_from([1, -1, 2, -2]))
            for row in s:
                row[i] += c * row[j]
    sinv = linalg.inverse(s)
    if sinv is None:
        return J
    return ComplexStructure.from_matrix(linalg.mat_mul(s, linalg.mat_mul(J.matrix, sinv)))


# -- exact agreement -------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(tables)
def test_jacobi_witness_matches_triple_loop(L):
    assert L.jacobi_witness() == ref_jacobi_witness(L)


@settings(max_examples=100, deadline=None)
@given(tables, st.data())
def test_ad_matches_unit_vector_brackets(L, data):
    x = data.draw(st.lists(st.sampled_from([F(0), F(1), F(-2), F(1, 3)]),
                           min_size=L.dim, max_size=L.dim))
    assert L.ad(x) == ref_ad(L, x)
    for i in range(L.dim):
        assert [list(row) for row in L.ad_basis(i)] == ref_ad(L, linalg.idmat(L.dim)[i])


@settings(max_examples=150, deadline=None)
@given(float_tables(), st.data())
def test_float_ad_is_the_dense_sum_bit_for_bit(L, data):
    x = data.draw(st.lists(FLOATS, min_size=L.dim, max_size=L.dim))
    got, want = L.ad(x), ref_dense_ad(L, x)
    assert [[repr(v) for v in row] for row in got] == [[repr(v) for v in row] for row in want]


@settings(max_examples=100, deadline=None)
@given(even_tables, st.data())
def test_nijenhuis_matches_pairwise_loop(L, data):
    J = data.draw(complex_structures(L.dim))
    assert nijenhuis(J, L) == ref_nijenhuis(J, L)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("shape", ["generic", "skt", "lcb_false"])
def test_nijenhuis_matches_pairwise_loop_on_sheared_structures(n, shape):
    """Exactly the loop's N on sheared dim-12 and dim-16 structures, for the
    adapted J (integrable: no pair) and for random pairings of the sheared
    basis, which are not integrable."""
    rng = random.Random(100 * n + len(shape))
    d = random_data(rng, n, shape)
    L, J, _ = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix),
                          random_shear(rng, 2 * n))
    assert nijenhuis(J, L) == ref_nijenhuis(J, L) == {}
    for _ in range(2):
        order = rng.sample(range(2 * n), 2 * n)
        other = ComplexStructure.from_pairs(2 * n, list(zip(order[::2], order[1::2])))
        want = ref_nijenhuis(other, L)
        assert want and nijenhuis(other, L) == want


@settings(max_examples=100, deadline=None)
@given(tables, st.data())
def test_ideal_defect_matches_unit_vector_loop(L, data):
    coeff = st.sampled_from([F(0), F(0), F(1), F(-1), F(2)])
    xi = data.draw(st.lists(coeff, min_size=L.dim, max_size=L.dim))
    candidates = [linalg.nullspace([xi]) if any(xi) else []]
    # arbitrary vector lists exercise "not a hyperplane" and "not abelian"
    count = data.draw(st.integers(0, L.dim))
    candidates.append([data.draw(st.lists(coeff, min_size=L.dim, max_size=L.dim))
                       for _ in range(count)])
    for vecs in candidates:
        assert abelian_ideal_defect(L, vecs) == ref_abelian_ideal_defect(L, vecs)


def test_s12_validation_and_integrability_bracket_nothing(monkeypatch):
    """Validating s_12 and deciding the integrability of its J read the ad
    table and the coframe; no ad_x is formed, so no vector is bracketed."""
    calls = []
    ad = LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "ad", lambda self, x: calls.append(1) or ad(self, x))
    doc = entry_document(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)})
    L = to_algebra(doc)
    assert not nijenhuis(to_complex_structure(doc), L)
    assert calls == []


# -- the integer table against the loops it replaced -------------------------------

def loop_ad(L, x):
    """ad_x accumulating the nonzero constants: entry (k, j) adds x_i c^k_ij
    in increasing i from the kind's zero."""
    out = linalg.zeros(L.dim, L.dim, L.kind)
    for (i, j), vec in sorted(L.brackets.items()):
        xi, xj = x[i], x[j]
        for k, c in enumerate(vec):
            if c != 0:
                if xi != 0:
                    out[k][j] += xi * c
                if xj != 0:
                    out[k][i] -= xj * c
    return out


def loop_ad_table(L):
    """The n ad matrices, each constant written twice into zeros of the kind."""
    n = L.dim
    table = [linalg.zeros(n, n, L.kind) for _ in range(n)]
    for (i, j), vec in L.brackets.items():
        for k, c in enumerate(vec):
            if c != 0:
                table[i][k][j] = c
                table[j][k][i] = -c
    return table


def pairwise_table_nijenhuis(J, L):
    """Nijenhuis pair by pair on the ad matrices of :func:`loop_ad_table`, in
    the library's order of summation: K_i[b] = [Je_i, e_b] over the nonzero
    J_ai and nonzero [e_a, e_b] in increasing a; N(e_i, e_j) = sum_b J_bj
    K_i[b] over the nonzero J_bj in increasing b, minus [e_i, e_j], minus
    J (K_i[j] - K_j[i]) column by column; floats compared within
    eps max(1, max |c|) max(1, max |J|)^2."""
    n = L.dim
    ad = loop_ad_table(L)
    jm = J.matrix
    zeros = linalg.zero_vector(n, L.kind)

    def block(a, b):
        vec = [ad[a][k][b] for k in range(n)]
        return vec if any(x != 0 for x in vec) else None

    def k_vec(i, b):
        acc = None
        for a in range(n):
            if jm[a][i] != 0 and block(a, b) is not None:
                acc = [s + jm[a][i] * y for s, y in zip(acc or zeros, block(a, b))]
        return acc

    c = max([abs(x) for vec in L.brackets.values() for x in vec] + [0])
    m = max(abs(x) for row in jm for x in row)
    eps = current_eps() * max(1, c) * max(1, m) ** 2
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = zeros
            for b in range(n):
                if jm[b][j] != 0 and k_vec(i, b) is not None:
                    v = [s + jm[b][j] * y for s, y in zip(v, k_vec(i, b))]
            v = [s - y for s, y in zip(v, block(i, j) or zeros)]
            w = [s - t for s, t in zip(k_vec(i, j) or zeros, k_vec(j, i) or zeros)]
            for t in range(n):
                if w[t] != 0:
                    for r in range(n):
                        if jm[r][t] != 0:
                            v[r] -= jm[r][t] * w[t]
            if any(abs(x) > eps for x in v) if L.kind == FLOAT else any(v):
                out[(i, j)] = v
    return out


def reprs(value):
    """Nested lists and dicts of scalars as their reprs (-0.0 != 0.0)."""
    if isinstance(value, dict):
        return {key: reprs(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reprs(v) for v in value]
    return repr(value)


def assert_as_the_loops(L, x, J=None):
    assert reprs(L.ad(x)) == reprs(loop_ad(L, x))
    assert reprs([L.ad_basis(i) for i in range(L.dim)]) == reprs(loop_ad_table(L))
    if J is not None:
        assert reprs(nijenhuis(J, L)) == reprs(pairwise_table_nijenhuis(J, L))


def floats(m):
    return [[float(x) for x in row] for row in m]


def sheared(seed):
    """A random structure of a random shape moved by a random shear, and
    its float copy: (L, J, x) for each."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    d = random_data(rng, n, rng.choice(ALL_SHAPES))
    L, J, _ = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix),
                          random_shear(rng, 2 * n))
    x = [rng.choice([F(0), F(1), F(-1, 3), F(5, 2)]) for _ in range(2 * n)]
    fl = LieAlgebra(L.dim, {k: [float(c) for c in v] for k, v in L.brackets.items()},
                    kind=FLOAT, _validated=True)
    return (L, J, x), (fl, ComplexStructure(tuple(map(tuple, floats(J.matrix)))),
                       [float(c) for c in x])


@settings(max_examples=100, deadline=None)
@given(even_tables, st.data())
def test_table_reads_as_the_loops_on_random_tables(L, data):
    x = data.draw(st.lists(SCALARS | st.just(F(0)), min_size=L.dim, max_size=L.dim))
    assert_as_the_loops(L, x, data.draw(complex_structures(L.dim)))


@settings(max_examples=100, deadline=None)
@given(float_tables(), st.data())
def test_float_table_reads_as_the_loops_signed_zeros_included(L, data):
    x = data.draw(st.lists(FLOATS, min_size=L.dim, max_size=L.dim))
    J = None
    if L.dim % 2 == 0:
        order = data.draw(st.permutations(range(L.dim)))
        J = ComplexStructure.from_pairs(L.dim, list(zip(order[::2], order[1::2])), kind=FLOAT)
    assert_as_the_loops(L, x, J)


@pytest.mark.parametrize("seed", range(12))
def test_table_reads_as_the_loops_on_sheared_structures(seed):
    for L, J, x in sheared(seed):
        assert_as_the_loops(L, x, J)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tables, float_tables(DYADIC)), st.data())
def test_bracket_reads_as_the_dict_loop(L, data):
    """[x, y] as ad_x y on the table equals the loop over the brackets dict
    in repr, on exact tables (most of them Jacobi-violating) and on dyadic
    float tables with -0.0 constants."""
    values = DYADIC if L.kind == FLOAT else SCALARS | st.just(F(0))
    x, y = (data.draw(st.lists(values, min_size=L.dim, max_size=L.dim)) for _ in "xy")
    assert reprs(linalg.mat_vec(L.ad(x), y)) == reprs(loop_bracket(L, x, y))


@pytest.mark.parametrize("seed", range(12))
def test_bracket_reads_as_the_dict_loop_on_sheared_structures(seed):
    """Exactly equal in repr; the float copy, whose sums run in another
    order, within 1e-12 of the largest term."""
    (L, _, x), (fl, _, xf) = sheared(seed)
    y, yf = x[::-1], xf[::-1]
    assert reprs(linalg.mat_vec(L.ad(x), y)) == reprs(loop_bracket(L, x, y))
    scale = max(abs(c) for row in fl.constants[1] for c in row) * max(map(abs, xf)) ** 2
    got, want = linalg.mat_vec(fl.ad(xf), yf), loop_bracket(fl, xf, yf)
    assert all(type(a) is float and abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))


def test_a_second_j_clears_no_bracket_table(monkeypatch):
    """The table is cleared once per algebra: deciding the integrability of
    another J on the same algebra clears J and nothing else."""
    (L, J, _), _ = sheared(3)
    assert not nijenhuis(J, L)
    order = list(range(L.dim))
    random.Random(3).shuffle(order)
    other = ComplexStructure.from_pairs(L.dim, list(zip(order[::2], order[1::2])))
    cleared = []
    real = linalg._numerators
    monkeypatch.setattr(linalg, "_numerators", lambda *ms: cleared.append(ms) or real(*ms))
    nijenhuis(other, L)
    assert cleared == [(other.matrix,)]
