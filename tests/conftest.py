"""Shared deterministic generators for random structures.

Draws use small rationals so the exact kernel stays fast; every test that
samples randomness seeds its own Random instance for reproducibility.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from aalg import linalg
from aalg.almost_abelian import data_from_parts, standard_j1
from aalg.hermitian import ComplexStructure, Metric

POOL = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 4), F(-1, 4), F(2)]
POOL_NZ = [x for x in POOL if x != 0]


def rand_scalar(rng, nonzero=False):
    return rng.choice(POOL_NZ if nonzero else POOL)


def rand_matrix(rng, m):
    return [[rand_scalar(rng) for _ in range(m)] for _ in range(m)]


def rand_vector(rng, m):
    return [rand_scalar(rng) for _ in range(m)]


def commutant_project(mat, j1):
    """Projection onto the matrices commuting with j1."""
    half = F(1, 2)
    jmj = linalg.mat_mul(j1, linalg.mat_mul(mat, j1))
    return linalg.mat_scale(half, linalg.mat_sub(mat, jmj))


def skew_commuting(rng, m, j1):
    raw = rand_matrix(rng, m)
    skew = linalg.mat_scale(F(1, 2), linalg.mat_sub(raw, linalg.transpose(raw)))
    return commutant_project(skew, j1)


def cayley_orthogonal_commuting(rng, m, j1):
    """Rational orthogonal matrix commuting with j1 (Cayley transform)."""
    s = skew_commuting(rng, m, j1)
    i = linalg.idmat(m)
    return linalg.mat_mul(linalg.mat_sub(i, s), linalg.inverse(linalg.mat_add(i, s)))


def rotation_block_matrix(rng, m, alphas):
    """Block diagonal with 2x2 blocks [[al, be], [-be, al]], al from alphas."""
    out = linalg.zeros(m, m)
    for t in range(m // 2):
        al = rng.choice(alphas)
        be = rand_scalar(rng)
        out[2 * t][2 * t] = al
        out[2 * t][2 * t + 1] = be
        out[2 * t + 1][2 * t] = -be
        out[2 * t + 1][2 * t + 1] = al
    return out


def random_data(rng, n, shape="generic"):
    """Random HermitianData of dimension 2n in one of several shapes.

    Shapes: generic, v0, kahler, lck, balanced, skt, lcb, lcb_false.
    """
    m = 2 * n - 2
    j1 = standard_j1(m)
    a = rand_scalar(rng)
    if shape == "kahler":
        A = skew_commuting(rng, m, j1)
        v = [F(0)] * m
    elif shape == "lck":
        lam = rand_scalar(rng, nonzero=True)
        A = linalg.mat_add(linalg.mat_scale(lam, linalg.idmat(m)),
                           skew_commuting(rng, m, j1))
        v = [F(0)] * m
    elif shape == "balanced":
        raw = commutant_project(rand_matrix(rng, m), j1)
        tr = linalg.trace(raw)
        A = linalg.mat_sub(raw, linalg.mat_scale(F(tr, m), linalg.idmat(m)))
        v = [F(0)] * m
    elif shape == "skt":
        a = rand_scalar(rng, nonzero=True) if rng.random() < 0.7 else F(0)
        A = rotation_block_matrix(rng, m, [F(0), -a / 2])
        q = cayley_orthogonal_commuting(rng, m, j1)
        A = linalg.mat_mul(q, linalg.mat_mul(A, linalg.transpose(q)))
        v = rand_vector(rng, m)
    elif shape == "lcb":
        # a zero pair-block in A, v supported there: A^t v = 0
        A = rotation_block_matrix(rng, m, POOL_NZ)
        dead = rng.randrange(m // 2)
        for t in (2 * dead, 2 * dead + 1):
            for s in range(m):
                A[t][s] = F(0)
                A[s][t] = F(0)
        v = [F(0)] * m
        v[2 * dead] = rand_scalar(rng, nonzero=True)
        v[2 * dead + 1] = rand_scalar(rng)
    elif shape == "lcb_false":
        A = rotation_block_matrix(rng, m, POOL_NZ)  # invertible blocks
        x = rand_vector(rng, m)
        while all(c == 0 for c in x):
            x = rand_vector(rng, m)
        v = linalg.mat_vec(A, x)
    elif shape == "v0":
        A = commutant_project(rand_matrix(rng, m), j1)
        v = [F(0)] * m
    else:
        A = commutant_project(rand_matrix(rng, m), j1)
        v = rand_vector(rng, m)
    return data_from_parts(a, v, A, j1)


ALL_SHAPES = ("generic", "v0", "kahler", "lck", "balanced", "skt", "lcb", "lcb_false")


def data_stream(seed, count, dims=(2, 3, 4), shapes=ALL_SHAPES):
    """Deterministic stream of HermitianData across dims and shapes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = dims[i % len(dims)]
        shape = shapes[i % len(shapes)]
        out.append(random_data(rng, n, shape))
    return out


def random_shear(rng, n):
    """A product of n rational shears: a change of basis s with s[i][j]
    the i-th coordinate of the new basis vector b_j."""
    s = linalg.idmat(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([F(1), F(-1), F(1, 2)])
        for r in range(n):
            s[r][i] += c * s[r][j]
    return s


def dense_conjugate(b, rng):
    """P B P^-1 for a random invertible rational P: a dense matrix similar
    to B."""
    n = len(b)
    while True:
        p = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        p_inv = linalg.inverse(p)
        if p_inv is not None:
            return linalg.mat_mul(linalg.mat_mul(p, b), p_inv)


def bracket(L, i, j):
    """[e_i, e_j]: column j of ad_{e_i}."""
    return [row[j] for row in L.ad_basis(i)]


def transported(L, J, g, s):
    """The same structure in the basis b_j = sum_i s[i][j] e_i, where an
    identity g is no longer the identity."""
    sinv = linalg.inverse(s)
    jm = linalg.mat_mul(sinv, linalg.mat_mul(J.matrix, s))
    gm = linalg.mat_mul(linalg.transpose(s), linalg.mat_mul(g.matrix, s))
    return L.change_basis(s), ComplexStructure.from_matrix(jm), Metric.from_matrix(gm)
