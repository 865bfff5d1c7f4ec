"""Exterior calculus kernel: wedge, differential, pullback and evaluation."""

import random
import sys
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings, strategies as st

from aalg.almost_abelian import build_algebra
from aalg.forms import KForm, exterior_derivative, pullback, sort_indices, wedge
from aalg.hermitian import HermitianStructure
from aalg.lie import LieAlgebra
from aalg.scalars import EXACT, FLOAT, zero
from aalg import linalg

from conftest import random_data, random_shear, transported


def form_strategy(dim, degree):
    all_keys = list(combinations(range(dim), degree))
    coeff = st.integers(min_value=-3, max_value=3).map(F)
    return st.dictionaries(st.sampled_from(all_keys), coeff, max_size=4).map(
        lambda d: KForm(degree, dim, d))


def test_basis_wedge():
    e1 = KForm.basis(4, 0)
    e2 = KForm.basis(4, 1)
    assert wedge(e1, e2) == KForm.basis(4, 0, 1)
    assert wedge(e2, e1) == KForm.basis(4, 0, 1).scale(-1)


def test_one_form_squares_to_zero():
    alpha = KForm(1, 5, {(0,): F(2), (3,): F(-1), (4,): F(1, 2)})
    assert wedge(alpha, alpha).is_zero()


def test_wedge_mixed_form_example():
    # (f2 + f4) ^ (2 f12 + f14 - f23 + f34) = f124
    alpha = KForm(1, 4, {(1,): F(1), (3,): F(1)})
    omega = KForm(2, 4, {(0, 1): F(2), (0, 3): F(1), (1, 2): F(-1), (2, 3): F(1)})
    assert wedge(alpha, omega) == KForm.basis(4, 0, 1, 3)


@settings(max_examples=60, deadline=None)
@given(form_strategy(5, 1), form_strategy(5, 2))
def test_graded_anticommutativity(alpha, beta):
    lhs = wedge(alpha, beta)
    rhs = wedge(beta, alpha).scale((-1) ** (alpha.degree * beta.degree))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(form_strategy(5, 1), form_strategy(5, 1), form_strategy(5, 2))
def test_wedge_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=40, deadline=None)
@given(form_strategy(5, 2), form_strategy(5, 2))
def test_wedge_bilinearity(a, b):
    c = KForm(1, 5, {(0,): F(1), (2,): F(-2)})
    assert wedge(c, a + b) == wedge(c, a) + wedge(c, b)


def _aff2_plus_2r():
    # (f12, 0, 0, 0): [e1, e2] = -e1
    return LieAlgebra(4, {(0, 1): [F(-1), F(0), F(0), F(0)]})


def test_differential_tuple_roundtrip():
    L = _aff2_plus_2r()
    assert exterior_derivative(KForm.basis(4, 0), L) == KForm.basis(4, 0, 1)
    assert exterior_derivative(KForm.basis(4, 1), L).is_zero()


def test_d_squared_zero():
    L = _aff2_plus_2r()
    for i in range(4):
        d1 = exterior_derivative(KForm.basis(4, i), L)
        assert exterior_derivative(d1, L).is_zero()


def test_d_is_antiderivation():
    rng = random.Random(5)
    g4 = LieAlgebra(6, {(i, 5): [F(-1) if t == i else F(0) for t in range(6)]
                        for i in range(4)})
    for _ in range(10):
        a = KForm(1, 6, {(rng.randrange(6),): F(rng.randint(-2, 2))})
        b = KForm(2, 6, {tuple(sorted(rng.sample(range(6), 2))): F(rng.randint(-2, 2))})
        lhs = exterior_derivative(wedge(a, b), g4)
        rhs = wedge(exterior_derivative(a, g4), b) - wedge(a, exterior_derivative(b, g4))
        assert lhs == rhs


def test_adapted_differential_formula():
    """On an almost abelian algebra d alpha = (ad*_{e_2n} alpha) ^ e^{2n}."""
    rng = random.Random(11)
    from aalg.almost_abelian import build_algebra, standard_j1
    from conftest import commutant_project, rand_matrix, rand_vector
    j1 = standard_j1(4)
    for _ in range(10):
        A = commutant_project(rand_matrix(rng, 4), j1)
        v = rand_vector(rng, 4)
        a = F(rng.randint(-2, 2))
        L, _, _ = build_algebra(a, v, A, j1)
        ad = L.ad_basis(5)
        for _ in range(3):
            alpha = KForm(1, 6, {(rng.randrange(6),): F(rng.randint(-2, 2)),
                                 (rng.randrange(6),): F(rng.randint(-2, 2))})
            comps = [alpha.get((i,)) for i in range(6)]
            pulled = KForm.from_vector(linalg.mat_vec(linalg.transpose(ad), comps))
            rhs = wedge(pulled, KForm.basis(6, 5))
            assert exterior_derivative(alpha, L) == rhs


def test_pullback_composes():
    rng = random.Random(9)
    m = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
    alpha = KForm(2, 4, {(0, 1): F(1), (2, 3): F(-2), (1, 2): F(1, 2)})
    twice = pullback(pullback(alpha, m), m)
    mm = linalg.mat_mul(m, m)
    assert twice == pullback(alpha, mm)


def test_degree_overflow_is_zero():
    a = KForm(2, 3, {(0, 1): F(1)})
    b = KForm(2, 3, {(1, 2): F(1)})
    assert wedge(a, b).degree == 4
    assert wedge(a, b).is_zero()


def test_sort_indices():
    assert sort_indices((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_indices((1, 0)) == ((0, 1), -1)
    assert sort_indices((1, 1)) is None


EXACT_SCALARS = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
FLOAT_SCALARS = st.integers(-30, 30).map(lambda k: k / 7)


@st.composite
def pullback_cases(draw, scalars, kind):
    """(alpha, m): a form of degree 0..3 on R^n and an n x n or n x k matrix."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, min(3, n)))
    width = draw(st.sampled_from((n, k)))
    coeffs = draw(st.dictionaries(st.sampled_from(list(combinations(range(n), k))),
                                  scalars, max_size=4))
    row = st.lists(scalars, min_size=width, max_size=width)
    m = draw(st.lists(row, min_size=n, max_size=n))
    return KForm(k, n, coeffs, kind=kind), m


def ref_det(m):
    """Determinant by Laplace expansion along the first row (1 for 0 x 0)."""
    if not m:
        return 1
    return sum((-1) ** j * x * ref_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def minor_expansion(alpha, m):
    """Reference pullback: each target coefficient as a sum of k x k minors."""
    return {target: sum((val * ref_det([[m[s][t] for t in target] for s in key])
                         for key, val in alpha.coeffs.items()), zero(alpha.kind))
            for target in combinations(range(len(m[0])), alpha.degree)}


def close(x, y):
    return abs(x - y) <= 1e-9 * max(1, abs(y))


@settings(max_examples=80, deadline=None)
@given(pullback_cases(EXACT_SCALARS, EXACT))
def test_pullback_matches_minor_expansion_exactly(case):
    alpha, m = case
    pulled = pullback(alpha, m)
    assert (pulled.degree, pulled.dim) == (alpha.degree, len(m[0]))
    assert pulled.coeffs == {t: v for t, v in minor_expansion(alpha, m).items() if v != 0}


@settings(max_examples=80, deadline=None)
@given(pullback_cases(FLOAT_SCALARS, FLOAT))
def test_pullback_matches_minor_expansion_in_floats(case):
    alpha, m = case
    pulled = pullback(alpha, m)
    ref = minor_expansion(alpha, m)
    assert set(pulled.coeffs) <= set(ref)
    assert all(close(pulled.get(t), v) for t, v in ref.items())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(((EXACT_SCALARS, EXACT), (FLOAT_SCALARS, FLOAT))).flatmap(
    lambda sk: pullback_cases(*sk)))
def test_evaluate_matches_determinants(case):
    alpha, m = case
    vectors = [[row[c % len(row)] for row in m] for c in range(alpha.degree)]
    want = sum((val * ref_det([[v[i] for v in vectors] for i in key])
                for key, val in alpha.coeffs.items()), zero(alpha.kind))
    # alpha on the vectors: the top coefficient of its pullback along them
    columns = [[v[i] for v in vectors] for i in range(alpha.dim)]
    got = pullback(alpha, columns).get(tuple(range(alpha.degree)))
    assert got == want if alpha.kind == EXACT else close(got, want)


def test_pullback_cost_follows_nonzeros_not_dimension():
    """Along a signed permutation a one-term 3-form runs as many lines of
    pullback's own body at dim 8 as at dim 16 (a sweep over the C(n, 3)
    target index sets would not)."""
    count = [0]

    def local(frame, event, arg):
        count[0] += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is pullback.__code__ else None

    def lines(dim):
        perm = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            perm[i][(i + 3) % dim] = F(-1) if i % 2 else F(1)
        alpha = KForm(3, dim, {(0, 2, 5): F(3, 2)})
        count[0] = 0
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            pulled = pullback(alpha, perm)
        finally:
            sys.settrace(previous)
        assert pulled == KForm.basis(dim, 3, 5, 8 % dim).scale(F(-3, 2))
        return count[0]

    assert 0 < lines(8) == lines(16)


# -- the integer kernels against the Fraction loops they replaced -------------

def fraction_loop_d(alpha, algebra):
    """d alpha with one multiply-add per (term, position, coframe coefficient)."""
    dim, kind = alpha.dim, alpha.kind
    if alpha.degree == 0 or alpha.degree >= dim:
        return KForm.zero_form(alpha.degree + 1, dim, kind)
    dcoframe = algebra.coframe_differentials()
    acc = {}
    for key, val in alpha.coeffs.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            sgn_pos = -1 if pos % 2 else 1
            for (p, q), w in dcoframe[idx].coeffs.items():
                srt = sort_indices((p, q) + rest)
                if srt is None:
                    continue
                merged, sgn = srt
                acc[merged] = acc.get(merged, zero(kind)) + sgn_pos * sgn * val * w
    return KForm(alpha.degree + 1, dim, acc, kind=kind)


def fraction_loop_pullback(alpha, m):
    """m* alpha by substituting the 1-forms m*e^s (rows of m) into each term
    and wedging them together."""
    dim, kind = len(m[0]), alpha.kind
    out = {}
    for key, val in alpha.coeffs.items():
        term = KForm(0, dim, {(): val}, kind=kind)
        for s in key:
            term = wedge(term, KForm(1, dim, {(t,): x for t, x in enumerate(m[s])}, kind=kind))
        for k, v in term.coeffs.items():
            out[k] = out.get(k, zero(kind)) + v
    return KForm(alpha.degree, dim, out, kind=kind)


WIDE_EXACT = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 7)))


def entries(draw, count, dense):
    """count exact scalars, about one in four nonzero unless dense."""
    pick = WIDE_EXACT if dense else st.one_of(st.just(F(0)), st.just(F(0)),
                                              st.just(F(0)), WIDE_EXACT)
    return draw(st.lists(pick, min_size=count, max_size=count))


@st.composite
def kernel_cases(draw):
    """(alpha, algebra, m, shear): an exact form of degree 1..3 on R^n
    (n <= 8), sparse or dense; the algebra R^(n-1) x|_D R for a sparse or
    dense D, in its own basis or moved by random_shear; an n x n or n x k
    matrix m, sparse or dense."""
    n = draw(st.integers(2, 8))
    degree = draw(st.integers(1, min(3, n)))
    keys = list(combinations(range(n), degree))
    chosen = keys if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    alpha = KForm(degree, n, dict(zip(chosen, entries(draw, len(chosen), draw(st.booleans())))))
    dense_d = draw(st.booleans())
    D = [entries(draw, n - 1, dense_d) for _ in range(n - 1)]
    L = LieAlgebra.semidirect(D)
    shear = draw(st.booleans())
    if shear:
        L = L.change_basis(random_shear(draw(st.randoms(use_true_random=False)), n))
    width = draw(st.sampled_from((n, draw(st.integers(1, n)))))
    dense_m = draw(st.booleans())
    m = [entries(draw, width, dense_m) for _ in range(n)]
    return alpha, L, m


def floated(alpha, L, m):
    return (KForm(alpha.degree, alpha.dim, {k: float(v) for k, v in alpha.coeffs.items()},
                  kind=FLOAT),
            LieAlgebra(L.dim, {k: [float(x) for x in v] for k, v in L.brackets.items()}),
            [[float(x) for x in row] for row in m])


def within(got, want, scale):
    keys = set(got.coeffs) | set(want.coeffs)
    return (got.degree, got.dim) == (want.degree, want.dim) and all(
        abs(got.get(k) - want.get(k)) <= 1e-12 * scale for k in keys)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_integer_kernels_match_the_fraction_loops(case):
    alpha, L, m = case
    d = exterior_derivative(alpha, L)
    assert d == fraction_loop_d(alpha, L)
    assert all(type(v) is F for v in d.coeffs.values())
    pulled = pullback(alpha, m)
    assert pulled == fraction_loop_pullback(alpha, m)
    assert all(type(v) is F for v in pulled.coeffs.values())
    # floats: d is the same sum in the same order; the pullback sums the same
    # terms in another order, within 1e-12 of the largest possible term sum
    fa, fl, fm = floated(alpha, L, m)
    assert exterior_derivative(fa, fl) == fraction_loop_d(fa, fl)
    bound = max(1.0, sum(abs(v) for v in fa.coeffs.values())
                * max(sum(abs(x) for x in row) for row in fm) ** alpha.degree)
    assert within(pullback(fa, fm), fraction_loop_pullback(fa, fm), bound)


def test_pullback_of_d_omega_along_a_sheared_j_matches_the_fraction_loop():
    """d omega and d^c omega of random structures moved by random_shear,
    where J and the coframe differentials are dense."""
    rng = random.Random(19)
    for shape in ("generic", "skt", "lcb"):
        d = random_data(rng, 3, shape)
        L, J, g = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix),
                              random_shear(rng, 6))
        H = HermitianStructure(L, J, g)
        assert H.domega() == fraction_loop_d(H.omega, L)
        assert pullback(H.domega(), J.matrix) == fraction_loop_pullback(H.domega(), J.matrix)
        fa, fl, fj = floated(H.domega(), L, J.matrix)
        bound = max(1.0, sum(abs(v) for v in fa.coeffs.values())
                    * max(sum(abs(x) for x in row) for row in fj) ** 3)
        assert within(pullback(fa, fj), fraction_loop_pullback(fa, fj), bound)
        assert exterior_derivative(H.omega, L) == fraction_loop_d(H.omega, L)
