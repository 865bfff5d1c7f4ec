"""Matrix exponentials and the lattice integrality probe."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from aalg import linalg
from aalg.lattice import char_min_poly, integrality_probe, matrix_exp


def l1_unimodular(p):
    q = -0.5 - p
    return [[1, 0, 0, 0, 0],
            [0, p, 0, 0, 0],
            [0, 0, p, 0, 0],
            [0, 0, 0, q, 0],
            [0, 0, 0, 0, q]]


def test_exp_t_zero_identity():
    b = [[0.3, 1.2], [-0.7, 0.1]]
    assert np.allclose(np.array(matrix_exp(b, 0.0)), np.eye(2))


def test_exp_diagonal_closed_form():
    p = 1 / 3
    t = 0.9
    m = matrix_exp(l1_unimodular(p), t)
    expected = [math.exp(t), math.exp(p * t), math.exp(p * t),
                math.exp((-p - 0.5) * t), math.exp((-p - 0.5) * t)]
    assert all(abs(m[i][i] - expected[i]) < 1e-14 for i in range(5))
    assert all(abs(m[i][j]) == 0 for i in range(5) for j in range(5) if i != j)


def test_exp_nilpotent_truncates():
    n = [[0.0, 5.0], [0.0, 0.0]]
    assert matrix_exp(n, 2.0) == [[1.0, 10.0], [0.0, 1.0]]


def test_exp_rotation_block():
    b = [[0.0, 2.0], [-2.0, 0.0]]
    m = matrix_exp(b, math.pi / 4)  # rotation by pi/2
    assert abs(m[0][0]) < 1e-12 and abs(m[0][1] - 1) < 1e-12


def test_exp_group_law_and_det():
    rng = random.Random(4)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = np.array(matrix_exp(b, s)) @ np.array(matrix_exp(b, t))
        rhs = np.array(matrix_exp(b, s + t))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        det = np.linalg.det(np.array(matrix_exp(b, t)))
        assert abs(det - math.exp(t * sum(b[i][i] for i in range(n)))) <= 1e-8


def test_char_min_identity():
    ch, mi = char_min_poly(linalg.idmat(5))
    assert mi == [F(-1), F(1)]
    assert ch == [F(-1), F(5), F(-10), F(10), F(-5), F(1)]


def test_char_min_companion():
    # companion of x^3 - 2x + 1: char = min = x^3 - 2x + 1
    c = [[F(0), F(0), F(-1)], [F(1), F(0), F(2)], [F(0), F(1), F(0)]]
    ch, mi = char_min_poly(c)
    assert ch == [F(-1), F(2), F(0), F(1)] or ch == [F(1), F(-2), F(0), F(1)]
    assert mi == ch


def test_char_min_float_jordan():
    """exp of a Jordan block needs a squared factor in the minimal poly."""
    b = [[0.5, 1.0], [0.0, 0.5]]
    m = matrix_exp(b, 1.0)
    ch, mi = char_min_poly(m)
    assert len(mi) - 1 == 2  # (x - e^{1/2})^2


def test_min_poly_coefficients_match_stated_formulas():
    """a0 = -e^{t/2}, a1, a2 as displayed for the unimodular l1 family."""
    for p in (1 / 3, 1 / 2, 2.0):
        t = 2 * math.log(3)
        m = matrix_exp(l1_unimodular(p), t)
        _, mi = char_min_poly(m)
        assert len(mi) - 1 == 3
        a0 = -math.exp(t / 2)
        a1 = math.exp(t * (1 + p)) + math.exp(-t / 2) + math.exp(t * (0.5 - p))
        a2 = -(math.exp(p * t) + math.exp(t) + math.exp(-t * (0.5 + p)))
        assert abs(mi[0] - a0) < 1e-9 * max(1, abs(a0))
        assert abs(mi[1] - a1) < 1e-9 * max(1, abs(a1))
        assert abs(mi[2] - a2) < 1e-9 * max(1, abs(a2))
        assert mi[3] == pytest.approx(1.0)


def test_probe_l1_rule_none_and_residual():
    for p in (1 / 3, 1 / 2, 2.0):
        rep = integrality_probe(l1_unimodular(p), rule_k_max=50)
        assert rep.overall == "NONE_IN_RANGE"
        assert len(rep.points) == 49
        for pt in rep.points:
            assert pt.verdict != "INTEGER"
            assert pt.residual_vs_inv_k is not None
            assert pt.residual_vs_inv_k <= 1e-9


def test_probe_zero_matrix_all_integer():
    rep = integrality_probe(linalg.zeros(3, 3), t_values=[0.5, 1.0, 2.5])
    assert all(pt.verdict == "INTEGER" for pt in rep.points)
    assert rep.overall == "FOUND"


def test_probe_log_fixture_found():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    w, v = np.linalg.eigh(a)
    b = (v @ np.diag(np.log(w)) @ v.T).tolist()
    rep = integrality_probe(b, t_values=[0.5, 1.0, 1.5])
    assert rep.overall == "FOUND"
    assert rep.found == 1.0
    pt = next(pt for pt in rep.points if pt.t == 1.0)
    assert pt.verdict == "INTEGER"
    # char poly x^2 - 3x + 1
    assert [round(c) for c in pt.char_coeffs] == [1, -3, 1]


def test_probe_other_unimodular_families_none():
    """Same probe on l2^{p=-1/4}, l3^{r=-p/2-q}, l9^{p=-1/2} (no formulas
    asserted, just the obstruction outcome)."""
    l2 = [[1, 0, 0, 0, 0],
          [0, -0.25, 1, 0, 0],
          [0, 0, -0.25, 0, 0],
          [0, 0, 0, -0.25, 1],
          [0, 0, 0, 0, -0.25]]
    p, q = 1.0, 1.0
    r = -p / 2 - q
    l3 = [[p, 0, 0, 0, 0],
          [0, q, 0, 0, 0],
          [0, 0, q, 0, 0],
          [0, 0, 0, r, 1],
          [0, 0, 0, -1, r]]
    l9 = [[1, 0, 0, 0, 0],
          [0, -0.5, 0, 0, 0],
          [0, 0, -0.5, 0, 0],
          [0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0]]
    for b in (l2, l3, l9):
        rep = integrality_probe(b, rule_k_max=25)
        assert rep.overall == "NONE_IN_RANGE"


def test_probe_eigenvalue_symmetric_functions():
    """Char coefficients are elementary symmetric functions of e^{t lam}."""
    b = [[0.4, 0, 0], [0, -0.3, 0], [0, 0, 0.1]]
    t = 1.7
    m = matrix_exp(b, t)
    ch, _ = char_min_poly(m)
    lams = [math.exp(t * 0.4), math.exp(-t * 0.3), math.exp(t * 0.1)]
    e1 = sum(lams)
    e2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
    e3 = lams[0] * lams[1] * lams[2]
    assert ch[3] == pytest.approx(1.0)
    assert ch[2] == pytest.approx(-e1, rel=1e-10)
    assert ch[1] == pytest.approx(e2, rel=1e-10)
    assert ch[0] == pytest.approx(-e3, rel=1e-10)


def test_probe_warn_band():
    """Coefficients within 10 eps_int of integers report WARN."""
    b = [[math.log(2.0) + 2e-7, 0.0], [0.0, 0.0]]
    rep = integrality_probe(b, t_values=[1.0], eps_int=1e-7)
    assert rep.points[0].verdict == "WARN"


# -- the block form through the ambient tolerance ------------------------------

def old_rotation_blocks(b):
    """The index-condition reader the block form replaced, with its fixed
    1e-14 tolerance: the reference at the default eps."""
    eps = 1e-14
    n = len(b)
    blocks = []
    i = 0
    while i < n:
        row_tail = all(abs(b[i][j]) <= eps for j in range(n) if j != i and abs(j - i) != 1)
        if (i + 1 < n and abs(b[i][i] - b[i + 1][i + 1]) <= eps
                and abs(b[i][i + 1] + b[i + 1][i]) <= eps
                and abs(b[i][i + 1]) > eps
                and all(abs(b[i][j]) <= eps for j in range(n) if j not in (i, i + 1))
                and all(abs(b[i + 1][j]) <= eps for j in range(n) if j not in (i, i + 1))
                and all(abs(b[j][i]) <= eps and abs(b[j][i + 1]) <= eps
                        for j in range(n) if j not in (i, i + 1))):
            blocks.append(("rot", i, b[i][i], b[i][i + 1]))
            i += 2
        elif row_tail and all(abs(b[j][i]) <= eps for j in range(n) if j != i):
            blocks.append(("diag", i, b[i][i]))
            i += 1
        else:
            return None
    return blocks


def old_block_exp(blocks, n, t, growth):
    """The hand-assembled exp(t b) the block form replaced."""
    out = [[0.0] * n for _ in range(n)]
    for blk in blocks:
        if blk[0] == "diag":
            _, i, lam = blk
            out[i][i] = growth(lam)
        else:
            _, i, al, be = blk
            e = growth(al)
            c, s = math.cos(t * be), math.sin(t * be)
            out[i][i] = e * c
            out[i][i + 1] = e * s
            out[i + 1][i] = -e * s
            out[i + 1][i + 1] = e * c
    return out


def random_block_form(rng):
    """A float matrix in rotation-block form: 1x1 blocks and 2x2 blocks
    [[al, be], [-be, al]] with be != 0, in random order."""
    blocks = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            blocks.append([[rng.uniform(-3, 3)]])
        else:
            al, be = rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.1, 3)
            blocks.append([[al, be], [-be, al]])
    return linalg.block_diag(blocks, "float")


def block_form_cases(rng):
    """Block forms; near-block forms with one entry moved by 1e-15 (block
    form within both tolerances) or by 1e-6 to 1 (within neither); and
    permuted block forms P B P^t."""
    for _ in range(200):
        b = random_block_form(rng)
        n = len(b)
        yield b
        for delta in (1e-15, 1e-6, 1e-3, 1.0):
            near = [row[:] for row in b]
            i, j = rng.randrange(n), rng.randrange(n)
            near[i][j] += delta
            yield near
        perm = rng.sample(range(n), n)
        yield [[b[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def bits(m):
    return [[x.hex() for x in row] for row in m]


def test_block_form_matches_the_index_conditions():
    """At the default eps the block form accepts what the index conditions
    accepted, and exp(t b) and the 2 log k rule's power form are equal bit
    for bit."""
    from aalg.lattice import _block_exp, _rotation_blocks
    accepted = rejected = 0
    for b in block_form_cases(random.Random(33)):
        old, new = old_rotation_blocks(b), _rotation_blocks(b)
        assert (old is None) == (new is None), b
        if new is None:
            rejected += 1
            continue
        accepted += 1
        n = len(b)
        for t in (0.0, 0.7, -2.5, 2 * math.log(3)):
            growth = lambda x: math.exp(t * x)
            assert bits(_block_exp(new, t, growth)) == bits(old_block_exp(old, n, t, growth))
            assert bits(matrix_exp(b, t)) == bits(old_block_exp(old, n, t, growth))
        t = 2 * math.log(5)
        power = lambda x: math.pow(5, 2.0 * x)
        assert bits(_block_exp(new, t, power)) == bits(old_block_exp(old, n, t, power))
    assert accepted > 200 and rejected > 200


def test_block_form_follows_the_tolerance():
    """An off-block entry of 1e-12 is block form within the default eps and
    not under tolerance(0); nullity's floor moves with tolerance(1e-6)."""
    from aalg.lattice import _rotation_blocks, nullity
    from aalg.scalars import tolerance
    b = linalg.block_diag([[[1.0, 2.0], [-2.0, 1.0]], [[3.0]]], "float")
    b[0][2] = 1e-12
    assert _rotation_blocks(b) is not None
    assert old_rotation_blocks(b) is None
    with tolerance(0):
        assert _rotation_blocks(b) is None
    arr = np.diag([1.0, 1e-7])
    assert nullity(arr, 0.0) == 0
    with tolerance(1e-6):
        assert nullity(arr, 0.0) == 1
