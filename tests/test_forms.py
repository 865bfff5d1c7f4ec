"""Exterior calculus kernel: wedge, differential, musical isomorphisms."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from aalg.forms import (KForm, exterior_derivative, flat, pullback, sharp,
                        sort_indices, wedge)
from aalg.lie import LieAlgebra
from aalg import linalg


def form_strategy(dim, degree):
    keys = []
    idx = list(range(dim))
    from itertools import combinations
    all_keys = list(combinations(idx, degree))
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


def test_flat_sharp_orthonormal():
    g = linalg.idmat(4)
    x = [F(1), F(0), F(0), F(0)]
    assert flat(x, g) == KForm.basis(4, 0)
    assert sharp(KForm.basis(4, 0), g) == x


def test_flat_wedge_example():
    # flat(v) ^ e6 for v = eps_3 of the adapted frame in dim 6 -> e4 ^ e6
    g = linalg.idmat(6)
    v = [F(0), F(0), F(0), F(1), F(0), F(0)]
    res = wedge(flat(v, g), KForm.basis(6, 5))
    assert res == KForm.basis(6, 3, 5)


def test_sharp_inverts_flat_general_metric():
    rng = random.Random(3)
    p = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
    g = linalg.mat_add(linalg.mat_mul(linalg.transpose(p), p),
                       linalg.mat_scale(F(5), linalg.idmat(4)))
    for _ in range(5):
        x = [F(rng.randint(-3, 3)) for _ in range(4)]
        assert sharp(flat(x, g), g) == x


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
