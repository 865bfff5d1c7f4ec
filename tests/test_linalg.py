"""Exact linear algebra and the univariate polynomial toolkit."""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.linalg import (charpoly, inverse, minpoly, nullspace, poly_deg,
                         poly_deriv, poly_divmod, poly_eval, poly_gcd, poly_monic,
                         rank, rational_roots, rref, solve, solve_general,
                         squarefree_factors, squarefree_part, sturm_distinct_real_roots)
from aalg.scalars import DEFAULT_EPS, EXACT, FLOAT, coerce, is_zero, kind_of, tolerance

from conftest import dense_conjugate


def test_solve_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = solve(a, [F(5), F(10)])
    assert x == [F(1), F(3)]
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None


def test_nullspace_deterministic():
    a = [[F(1), F(2), F(3)]]
    ns = nullspace(a)
    assert ns == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


def test_rank_det_inverse():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        d = _ref_det(a)
        if d == 0:
            assert rank(a) < n
            assert inverse(a) is None
        else:
            inv = inverse(a)
            assert linalg.mat_eq(linalg.mat_mul(a, inv), linalg.idmat(n))


def test_solve_general_least_structure():
    a = [[F(1), F(0)], [F(0), F(0)]]
    assert solve_general(a, [F(3), F(0)]) == [F(3), F(0)]
    assert solve_general(a, [F(0), F(1)]) is None
    assert solve_general([], []) == []


def poly_eval_matrix(p, m):
    """p(M) by Horner's rule on matrices."""
    n = len(m)
    acc = linalg.mat_scale(p[-1], linalg.idmat(n))
    for c in reversed(p[:-1]):
        acc = linalg.mat_shift(linalg.mat_mul(acc, m), c)
    return acc


def test_charpoly_matches_det():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        p = charpoly(a)
        assert p[-1] == 1
        # p(0) = det(-A) = (-1)^n det A
        assert p[0] == (F(-1) ** n) * _ref_det(a)
        assert linalg.is_zero_matrix(poly_eval_matrix(p, a))


def test_minpoly_divides_charpoly():
    rng = random.Random(14)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        mp = minpoly(a)
        cp = charpoly(a)
        _, rem = poly_divmod(cp, mp)
        assert rem == [F(0)]
        assert linalg.is_zero_matrix(poly_eval_matrix(mp, a))


def test_minpoly_projector():
    proj = [[F(1), F(0)], [F(0), F(0)]]
    assert minpoly(proj) == [F(0), F(-1), F(1)]  # x^2 - x


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return linalg.poly_trim(out)


def krylov_minpoly(m):
    """Reference minimal polynomial: the lcm of the annihilators of the
    Krylov chains e_i, M e_i, M^2 e_i, .. of the unit vectors."""
    n = len(m)
    result = [F(1)]
    for start in range(n):
        krylov = [[F(int(i == start)) for i in range(n)]]
        while True:
            w = linalg.mat_vec(m, krylov[-1])
            sol = solve_general(linalg.transpose(krylov), w)
            if sol is not None:
                ann = [-c for c in sol] + [F(1)]
                quot, rem = poly_divmod(poly_mul(result, ann), poly_gcd(result, ann))
                assert rem == [0]
                result = poly_monic(quot)
                break
            krylov.append(w)
    return result


def test_minpoly_matches_the_krylov_reference():
    rng = random.Random(28)
    jordan = [[F(2), F(1)], [F(0), F(2)]]
    shapes = [
        [],                                                      # 0 x 0
        [[F(5, 3)]],                                             # 1 x 1
        linalg.idmat(4),
        [[F(int(j == i + 1)) for j in range(4)] for i in range(4)],  # nilpotent
        [[F(1), F(1)], [F(0), F(0)]],                            # projector
        linalg.block_diag([jordan, jordan, [[F(2)]]]),           # derogatory
        linalg.block_diag([jordan, [[F(-1)]], [[F(-1)]]]),
    ]
    shapes += [dense_conjugate(b, rng) for b in shapes[2:]]
    for _ in range(12):
        n = rng.randint(1, 5)
        shapes.append([[F(rng.choice([0, 0, 1, -2]), rng.randint(1, 4)) for _ in range(n)]
                       for _ in range(n)])
    for m in shapes:
        mp = minpoly(m)
        assert mp == krylov_minpoly(m), m
        assert all(type(c) is F for c in mp)
        assert linalg.is_zero_matrix(poly_eval_matrix(mp, m))


def test_squarefree_part():
    # (x - 1)^2 (x + 2)^3 x -> (x - 1)(x + 2) x, with the leading coefficient
    p = _product([[F(3)], [F(-1), F(1)], [F(-1), F(1)], [F(2), F(1)], [F(2), F(1)],
                  [F(2), F(1)], [F(0), F(1)]])
    assert squarefree_part(p) == _product([[F(3)], [F(-1), F(1)], [F(2), F(1)], [F(0), F(1)]])
    assert squarefree_part([F(7)]) == [F(7)]


def test_poly_gcd_and_derivative():
    # gcd((x-1)^2 (x+2), (x-1)(x+3)) = x - 1
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    q = poly_mul([F(-1), F(1)], [F(3), F(1)])
    assert poly_gcd(p, q) == [F(-1), F(1)]
    assert poly_deriv([F(1), F(2), F(3)]) == [F(2), F(6)]


def test_integer_polynomials_stay_exact():
    """Integer coefficients are exact: quotients, remainders, gcds and monic
    forms come back as Fractions, never as floats from true division."""
    results = {
        "gcd": poly_gcd([-1, 0, 1], [-1, 1]),
        "quot": poly_divmod([-1, 0, 1], [-1, 2])[0],
        "rem": poly_divmod([-1, 0, 1], [-1, 2])[1],
        "monic": poly_monic([2, 4]),
        "untouched rem": poly_divmod([5, 0, 1], [0, 1])[1],
        "short": poly_divmod([3], [0, 1])[1],
    }
    assert results == {"gcd": [-1, 1], "quot": [F(1, 4), F(1, 2)], "rem": [F(-3, 4)],
                       "monic": [F(1, 2), 1], "untouched rem": [5], "short": [3]}
    assert all(type(c) is F for poly in results.values() for c in poly), results


def test_sturm_counts():
    # (x-1)(x-2)(x-3): three distinct real roots
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-2), F(1)]), [F(-3), F(1)])
    assert sturm_distinct_real_roots(p) == 3
    # x^2 + 1: none
    assert sturm_distinct_real_roots([F(1), F(0), F(1)]) == 0
    # (x^2+1)(x-5): one
    assert sturm_distinct_real_roots(poly_mul([F(1), F(0), F(1)], [F(-5), F(1)])) == 1


def test_rational_roots():
    # (x - 1/2)^2 (x + 3) x
    p = poly_mul(poly_mul(poly_mul([F(-1, 2), F(1)], [F(-1, 2), F(1)]),
                          [F(3), F(1)]), [F(0), F(1)])
    roots, rem = rational_roots(p)
    assert roots == {F(1, 2): 2, F(-3): 1, F(0): 1}
    assert rem == [F(1)]
    # x^2 - 2 has no rational roots
    roots, rem = rational_roots([F(-2), F(0), F(1)])
    assert roots == {}
    assert rem == [F(-2), F(0), F(1)]


def _product(polys):
    out = [F(1)]
    for p in polys:
        out = poly_mul(out, p)
    return out


# numerators and denominators up to 10^9, so that trial division of the
# constant term would be out of reach
_RATIONALS = st.one_of(st.integers(-4, 4).map(F),
                       st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9)))


@st.composite
def planted_roots(draw):
    """(p, roots, rest) with p = rest * prod (x - r)^k over roots, and rest
    a nonzero constant times powers of x^2 + b (b > 0) and maybe x^3 - 2,
    so that rest has no rational root."""
    roots = {}
    for r, k in draw(st.lists(st.tuples(_RATIONALS, st.integers(1, 3)), max_size=3)):
        roots[r] = roots.get(r, 0) + k
    rest = [draw(_RATIONALS.filter(bool))]
    for b, k in draw(st.lists(st.tuples(_RATIONALS.filter(lambda b: b > 0),
                                        st.integers(1, 2)), max_size=2)):
        rest = poly_mul(rest, _product([[b, F(0), F(1)]] * k))
    if draw(st.booleans()):
        rest = poly_mul(rest, [F(-2), F(0), F(0), F(1)])
    p = _product([rest] + [[-r, F(1)] for r, k in roots.items() for _ in range(k)])
    return p, roots, rest


@settings(max_examples=60, deadline=None)
@given(planted_roots())
def test_squarefree_factors_decompose(case):
    p, roots, _ = case
    factors = squarefree_factors(p)
    assert not factors or poly_deg(factors[-1]) > 0
    for f in factors:
        assert f[-1] == 1 and poly_deg(poly_gcd(f, poly_deriv(f))) == 0
    for f, g in combinations(factors, 2):
        assert poly_deg(poly_gcd(f, g)) == 0
    assert _product(f for i, f in enumerate(factors, 1) for _ in range(i)) == poly_monic(p)
    for r, k in roots.items():
        assert poly_eval(factors[k - 1], r) == 0


@settings(max_examples=60, deadline=None)
@given(planted_roots())
def test_rational_roots_are_the_planted_ones(case):
    p, roots, rest = case
    assert rational_roots(p) == (roots, rest)


def test_rational_roots_match_sympy():
    """Oracle: sympy's roots over QQ, on random integer polynomials times
    random integer linear factors."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(14)
    for _ in range(150):
        p = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        p[-1] = p[-1] or F(1)
        for _ in range(rng.randint(0, 3)):
            p = poly_mul(p, [F(rng.randint(-30, 30)), F(rng.randint(1, 12))])
        oracle = sympy.Poly([int(c) for c in reversed(p)], x, domain="QQ").ground_roots()
        assert rational_roots(p)[0] == {F(int(r.p), int(r.q)): k for r, k in oracle.items()}


def test_rational_roots_cost_is_bounded():
    """Trial division would walk about 10^9 divisors of 10^18 for each."""
    start = time.perf_counter()
    assert rational_roots([F(-10 ** 18), F(0), F(1)]) == ({F(-10 ** 9): 1, F(10 ** 9): 1},
                                                         [F(1)])
    irreducible = [F(10 ** 18 + 1), F(0), F(1)]
    assert rational_roots(irreducible) == ({}, irreducible)
    assert time.perf_counter() - start < 1.0


def test_positive_definite():
    assert linalg.is_positive_definite([[F(2), F(1)], [F(1), F(2)]])
    assert not linalg.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
    assert not linalg.is_positive_definite([[1.0, 1.0], [1.0, 1.0 + 1e-12]])


@pytest.mark.parametrize("scale", [1e-3, 1e-6, 1.0, 1e6])
def test_float_positive_definite_does_not_depend_on_scale(scale):
    """Each float pivot is a ratio of consecutive leading minors, of the
    size of g's entries, so c g passes or fails with g for any c > 0 whose
    pivots stay above the tolerance."""
    for g, want in (([[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]], True),
                    ([[1.0, 2.0], [2.0, 1.0]], False), ([[1.0, 0.0], [0.0, -1.0]], False),
                    ([[1.0, 1.0], [1.0, 1.0]], False),
                    ([[float(i == j) for j in range(4)] for i in range(4)], True)):
        scaled = [[scale * x for x in row] for row in g]
        assert linalg.is_positive_definite(scaled) is want, (scale, g)


def test_float_pivoting():
    a = [[1e-13, 1.0], [1.0, 1.0]]
    x = solve(a, [1.0, 2.0])
    assert x is not None
    assert abs(a[0][0] * x[0] + x[1] - 1.0) < 1e-9


def _greedy_column_basis(vectors):
    """Reference: keep each vector that raises the rank of those kept."""
    basis = []
    for v in vectors:
        if linalg.is_zero_vector(v):
            continue
        if not basis:
            basis.append(v)
            continue
        if rank(linalg.transpose(basis + [v])) > len(basis):
            basis.append(v)
    return basis


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2).map(F), min_size=n, max_size=n), max_size=6)))
def test_column_space_basis_matches_greedy(vectors):
    assert linalg.column_space_basis(vectors) == _greedy_column_basis(vectors)


def _dense_mat_mul(a, b):
    """Reference: the dense triple loop, every term summed in order."""
    return [[sum(a[r][t] * b[t][c] for t in range(len(b))) for c in range(len(b[0]))]
            for r in range(len(a))]


def _same(x, y):
    """Equal value and scalar type; floats bit for bit, zero signs included."""
    return type(x) is type(y) and (repr(x) == repr(y) if isinstance(x, float) else x == y)


def test_mat_mul_matches_dense_loop():
    rng = random.Random(17)
    pool = [F(0)] * 4 + [F(1), F(-1), F(1, 3), F(-5, 2)]
    for shape in [(3, 3, 3), (2, 4, 3), (2, 4, 2), (4, 1, 2), (4, 1, 4), (1, 3, 5), (5, 5, 5)]:
        r, k, c = shape
        for _ in range(8):
            a = [[rng.choice(pool) for _ in range(k)] for _ in range(r)]
            b = [[rng.choice(pool) for _ in range(c)] for _ in range(k)]
            a[rng.randrange(r)] = [F(0)] * k           # an all-zero row
            cases = [(a, b), (linalg.zeros(r, k), b), (a, linalg.zeros(k, c))]
            cases += [([[float(x) * 1.1 for x in row] for row in x],
                       [[float(y) / 3 for y in row] for row in y]) for x, y in cases]
            # signed float zeros on both sides
            cases.append(([[-0.0] * k for _ in range(r)], [[-1.5] * c for _ in range(k)]))
            for x, y in cases:
                got, want = linalg.mat_mul(x, y), _dense_mat_mul(x, y)
                assert len(got) == len(want)
                assert all(len(gr) == len(wr) and all(map(_same, gr, wr))
                           for gr, wr in zip(got, want))


# large coprime denominators, negatives, ints and zeros: the exact kernel
# clears every operand to integers over one denominator
PRIMES = (2, 3, 7, 1_000_003, 998_244_353, 2**61 - 1)
EXACT_ENTRIES = st.one_of(
    st.just(0), st.integers(-5, 5),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
    st.builds(lambda p: F(-1, p), st.sampled_from(PRIMES)))


def _exact_matrix(rows, cols):
    """rows x cols matrices over EXACT_ENTRIES, some with an all-zero row."""
    m = st.lists(st.lists(EXACT_ENTRIES, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    if rows == 0:
        return m
    return st.tuples(m, st.integers(-1, rows - 1)).map(
        lambda t: [[0] * cols if i == t[1] else row for i, row in enumerate(t[0])])


def _dense_exact(a, b, width):
    """Reference: the dense Fraction loop, every term summed from F(0)."""
    return [[sum((F(a[r][t]) * F(b[t][c]) for t in range(len(b))), F(0))
             for c in range(width)] for r in range(len(a))]


def _all_fractions(m):
    return all(type(x) is F for row in m for x in row)


# shapes (r, k, c) with 1 x k, k x 1 and empty operands among them
SHAPES = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def _exact_operands(shape):
    """a (r x k), b (k x c) and v (length k) for one shape."""
    r, k, c = shape
    return st.tuples(st.just(shape), _exact_matrix(r, k), _exact_matrix(k, c),
                     st.lists(EXACT_ENTRIES, min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(SHAPES.flatmap(_exact_operands))
def test_exact_products_match_dense_fraction_loop(case):
    (_, k, c), a, b, v = case
    # an empty b (k = 0) has no width: the product has empty rows
    got = linalg.mat_mul(a, b)
    assert got == _dense_exact(a, b, c if k else 0) and _all_fractions(got)
    av = linalg.mat_vec(a, v)
    assert av == [row[0] for row in _dense_exact(a, [[x] for x in v], 1)]
    assert all(type(x) is F for x in av)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_exact_matrix(n, n),
                                                     _exact_matrix(n, n))))
def test_exact_commutator_matches_dense_fraction_loop(pair):
    a, b = pair
    n = len(a)
    got = linalg.commutator(a, b)
    assert got == linalg.mat_sub(_dense_exact(a, b, n), _dense_exact(b, a, n))
    assert _all_fractions(got)


def test_exact_kernel_on_unit_and_empty_shapes():
    p, q = 1_000_003, 998_244_353
    row = [F(1, p), F(-1, q), 0, 3]                    # 1 x 4
    col = [[F(1, q)], [F(1, p)], [F(5, 7)], [-2]]       # 4 x 1
    assert linalg.mat_mul([row], col) == [[F(1, p * q) - F(1, p * q) - 6]]
    outer = linalg.mat_mul(col, [row])
    assert outer == _dense_exact(col, [row], 4) and _all_fractions(outer)
    assert linalg.mat_vec([row], [p, q, 1, 0]) == [F(0)]
    assert linalg.mat_mul([], col) == []
    assert linalg.mat_mul([[], []], []) == [[], []]
    assert linalg.mat_vec([[], []], []) == [F(0), F(0)]
    assert linalg.commutator([], []) == []
    assert linalg.mat_mul([[0, 0]], [[1], [2]]) == [[F(0)]]
    assert _all_fractions(linalg.mat_mul([[1, 2]], [[3], [4]]))


def _dense_float(a, b):
    """Reference: the dense triple loop on float(x), every term summed from
    0.0 in order."""
    return [[sum((float(a[r][t]) * float(b[t][c]) for t in range(len(b))), 0.0)
             for c in range(len(b[0]))] for r in range(len(a))]


def _all_floats(m):
    return all(type(x) is float for row in m for x in row)


def test_a_float_operand_makes_a_float_product():
    """One exact and one float operand, in either order: no operand is
    cleared alone, and mat_mul, mat_vec and commutator return only floats,
    equal to the dense float loop."""
    exact = [[F(0), F(0)], [F(1), F(2)]]
    thirds = [[F(1, 3), F(0)], [F(1), F(2)]]
    floats = [[1.5, 0.0], [0.0, 2.0]]
    for a, b in [(exact, floats), (floats, exact), (thirds, floats), (floats, thirds)]:
        got = linalg.mat_mul(a, b)
        assert got == _dense_float(a, b) and _all_floats(got)
        comm = linalg.commutator(a, b)
        assert comm == linalg.mat_sub(_dense_float(a, b), _dense_float(b, a))
        assert _all_floats(comm)
    for a, v in [(exact, [1.5, 2.0]), (thirds, [1.5, 2.0]), (floats, [F(1, 3), F(2)]),
                 (floats, [F(0), F(0)])]:
        got = linalg.mat_vec(a, v)
        assert got == [row[0] for row in _dense_float(a, [[x] for x in v])]
        assert all(type(x) is float for x in got)
    assert linalg.mat_vec(thirds, [1.5, 2.0]) == [0.5, 5.5]


def test_coerce_keeps_fractions_and_still_guards_the_exact_path():
    x = F(3, 7)
    assert coerce(x, EXACT) is x
    assert type(coerce(3, EXACT)) is F and coerce(3, EXACT) == 3
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            coerce(bad, EXACT)


def test_scalar_kind_and_zero_test_per_type():
    """kind_of and is_zero on each scalar type, the subclasses that fall
    past the type test included: bool is no scalar to kind_of and an int to
    is_zero, np.float64 is a float, complex is compared with the tolerance;
    ints and Fractions are zero-tested exactly under any tolerance."""
    kinds = [(3, EXACT), (F(1, 3), EXACT), (1.5, FLOAT), (np.float64(1.5), FLOAT)]
    assert [kind_of(x) for x, _ in kinds] == [kind for _, kind in kinds]
    for bad in (True, 1j, np.int64(3), "1"):
        with pytest.raises(TypeError):
            kind_of(bad)
    zeros = [(0, True), (3, False), (F(0), True), (F(1, 3), False), (0.0, True), (-0.0, True),
             (1e-12, True), (1.5, False), (np.float64(1e-12), True), (np.float64(1.5), False),
             (False, True), (True, False), (1e-12j, True), (1j, False)]
    assert [is_zero(x) for x, _ in zeros] == [want for _, want in zeros]
    with tolerance(5):
        assert [is_zero(x) for x in (3, F(7, 2), 3.0, np.float64(3.0), True)] == [
            False, False, True, True, False]


def test_integer_rows_are_their_own_numerators():
    """Elimination clears a row of Python ints by passing it on over d = 1;
    other exact rows are cleared to integers over their lcm, and the rref
    of an integer system equals that of its Fraction copy."""
    ints, thirds = [2, -4, 0], [F(1, 3), 1, F(-2, 3)]
    (d0, r0), (d1, r1) = linalg._cleared_rows([ints, thirds])
    assert (d0, d1, r1) == (1, 3, [1, 3, -2]) and r0 is ints
    a = [[2, -4, 0, 6], [1, 0, 3, 3], [3, -4, 3, 9], [0, 8, 6, 0]]
    assert rref(a) == rref([[F(x) for x in row] for row in a])


def test_mat_shift_and_mat_eq():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.mat_shift(a, F(-1, 2)) == [[F(1, 2), F(2)], [F(3), F(7, 2)]]
    assert linalg.mat_eq(linalg.mat_shift(a, 0), a)
    assert not linalg.mat_eq(a, linalg.mat_shift(a, F(1, 10**30)))
    assert linalg.mat_eq([[1.0, 0.0]], [[1.0 + 1e-12, -1e-12]])
    assert not linalg.mat_eq([[float("nan")]], [[float("nan")]])


def test_integer_matrices_stay_exact():
    """Integer entries are exact: elimination returns Fractions, never the
    floats of true division (the twin of test_integer_polynomials_stay_exact)."""
    results = {
        "rref": rref([[2, 1], [1, 1]])[0],
        "inverse": inverse([[1, 2], [3, 4]]),
        "nullspace": nullspace([[1, 2]]),
        "solve": [solve([[2, 0], [0, 4]], [1, 1])],
        "charpoly": [charpoly([[1, 2], [3, 4]])],
    }
    assert results == {"rref": [[1, 0], [0, 1]], "inverse": [[-2, 1], [F(3, 2), F(-1, 2)]],
                       "nullspace": [[-2, 1]], "solve": [[F(1, 2), F(1, 4)]],
                       "charpoly": [[-2, -5, 1]]}
    assert all(_all_fractions(m) for m in results.values()), results
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[0, 1], [1, 0]])


# -- reference loops: Fraction Gauss-Jordan, Faddeev-LeVerrier with dense
# products, Gaussian elimination for det and Sylvester on leading minors.
# On floats they pivot on the largest entry above the tolerance.

def _ref_pivot(col):
    """First nonzero (exact) or largest above eps (float) of (row, x) pairs."""
    best = None
    for r, x in col:
        if isinstance(x, float):
            if abs(x) > DEFAULT_EPS and (best is None or abs(x) > abs(best[1])):
                best = (r, x)
        elif x != 0:
            return r
    return best and best[0]


def _ref_rref(a):
    m = [[x if isinstance(x, float) else F(x) for x in row] for row in a]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = _ref_pivot((i, m[i][c]) for i in range(r, len(m)))
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and (abs(f) > DEFAULT_EPS if isinstance(f, float) else f != 0):
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _ref_det(a):
    m = [[x if isinstance(x, float) else F(x) for x in row] for row in a]
    unit = 1.0 if m and isinstance(m[0][0], float) else F(1)
    sign, acc = unit, unit
    for c in range(len(m)):
        p = _ref_pivot((i, m[i][c]) for i in range(c, len(m)))
        if p is None:
            return unit * 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        pv = m[c][c]
        acc *= pv
        for i in range(c + 1, len(m)):
            f = m[i][c] / pv
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * acc


def _ref_charpoly(a):
    n = len(a)
    unit = 1.0 if a and isinstance(a[0][0], float) else F(1)
    m = [[x * unit for x in row] for row in a]
    ident = [[unit if i == j else unit * 0 for j in range(n)] for i in range(n)]
    coeffs = [unit * 0] * n + [unit]
    mk = ident
    for k in range(1, n + 1):
        am = _dense_mat_mul(m, mk)
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        mk = [[x + ck * y for x, y in zip(ra, ri)] for ra, ri in zip(am, ident)]
    return coeffs


def _ref_nullspace(a):
    r, pivots = _ref_rref(a)
    out = []
    for f in (c for c in range(len(a[0])) if c not in pivots):
        v = [F(0)] * len(a[0])
        v[f] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][f]
        out.append(v)
    return out


def _ref_solve_general(a, b):
    ncols = len(a[0]) if a else 0
    r, pivots = _ref_rref([list(row) + [x] for row, x in zip(a, b)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][ncols]
    return x


def _ref_positive_definite(g):
    return all(_ref_det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


# denominators up to 2^61 - 1, ints and zeros
ELIM_ENTRIES = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 2**61 - 1)))


@st.composite
def elimination_inputs(draw):
    """An exact r x c matrix with, at random, a zero row, a zero column, a
    repeated row and a row that is a combination of two others.  The rows
    of the 8 x 8, 40 x 5 and 60 x 8 shapes are a few drawn rows (at most
    c + 1, and at most r) and multiples and combinations of them, in a
    drawn order."""
    r, c = draw(st.sampled_from([(0, 0), (1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 4),
                                 (5, 3), (3, 6), (6, 6), (8, 8), (40, 5), (60, 8)]))
    if r < 8:
        a = draw(st.lists(st.lists(ELIM_ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r))
    else:
        few = draw(st.lists(st.lists(ELIM_ENTRIES, min_size=c, max_size=c),
                            min_size=1, max_size=min(c + 1, r)))
        factors = st.sampled_from([0, 1, -1, 2, F(-1, 3), F(5, 7)])
        a = few + [[sum(k * x for k, x in zip(ks, col)) for col in zip(*few)]
                   for ks in draw(st.lists(st.lists(factors, min_size=len(few), max_size=len(few)),
                                           min_size=r - len(few), max_size=r - len(few)))]
        a = [a[i] for i in draw(st.permutations(range(r)))]
    if r and draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [0] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        a = [row[:j] + [0] + row[j + 1:] for row in a]
    if r > 1 and draw(st.booleans()):
        a[draw(st.integers(1, r - 1))] = list(a[0])
    if r > 2 and draw(st.booleans()):
        s, t = draw(ELIM_ENTRIES), draw(ELIM_ENTRIES)
        a[-1] = [s * x + t * y for x, y in zip(a[0], a[1])]
    b = draw(st.lists(ELIM_ENTRIES, min_size=r, max_size=r))
    return a, b


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_exact_elimination_matches_fraction_loops(case):
    a, b = case
    got = rref(a)
    assert got == _ref_rref(a) and _all_fractions(got[0])
    assert rank(a) == (len(got[1]) if a else 0)
    if a:
        ns = nullspace(a)
        assert ns == _ref_nullspace(a) and _all_fractions(ns)
        x = solve_general(a, b)
        assert x == _ref_solve_general(a, b) and (x is None or _all_fractions([x]))
    if len(a) == len(a[0] if a else []):
        n = len(a)
        d = _ref_det(a)
        inv = inverse(a)
        want = None if d == 0 else [row[n:] for row in _ref_rref(
            [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)])[0]]
        assert inv == want and (inv is None or _all_fractions(inv))
        x = solve(a, b)
        assert x == (None if d == 0 else _ref_solve_general(a, b))
        assert x is None or _all_fractions([x])
        cp = charpoly(a)
        assert cp == _ref_charpoly(a) and _all_fractions([cp])
        gram = linalg.mat_mul(a, linalg.transpose(a))
        sym = linalg.mat_add(a, linalg.transpose(a))
        for g in (gram, sym, linalg.mat_add(gram, linalg.idmat(n))):
            assert linalg.is_positive_definite(g) == _ref_positive_definite(g)


def _same_matrix(got, want):
    return len(got) == len(want) and all(
        len(gr) == len(wr) and all(map(_same, gr, wr)) for gr, wr in zip(got, want))


FLOAT_CASES = [[[1e-13, 1.0], [1.0, 1.0]], [[1e-13, 1.0, 1.0], [1.0, 1.0, 2.0]],
               [[0.0, 0.0], [0.0, -0.0]], [[1.0, 2.0], [2.0, 4.0]]]


def test_float_elimination_matches_float_loops():
    """Float rref and charpoly equal the float reference loops bit for
    bit, zero signs included, on the float_pivoting systems and on random
    matrices with zeros, repeated rows and tiny pivots."""
    rng = random.Random(18)
    cases = list(FLOAT_CASES)
    for _ in range(200):
        r, c = rng.choice([(1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (3, 5), (5, 3), (5, 5)])
        a = [[rng.choice([0.0, -0.0, 1.0, -2.5, 1e-12, rng.uniform(-3, 3)]) for _ in range(c)]
             for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            a[-1] = list(a[0])
        cases.append(a)
    for a in cases:
        got, want = rref(a), _ref_rref(a)
        assert got[1] == want[1] and _same_matrix(got[0], want[0]), a
        if len(a) == len(a[0]):
            assert _same_matrix([charpoly(a)], [_ref_charpoly(a)]), a
