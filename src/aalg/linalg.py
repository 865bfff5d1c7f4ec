"""Dense linear algebra over the dual scalar kernel.

Matrices are lists of row lists, vectors are flat lists.  Every routine
works for exact (Fraction or int) and float entries, and exact results are
Fractions; decisions (pivoting, rank) go through the tolerance for floats
and are exact otherwise.

Exact operands are cleared to Python ints once, and one Fraction is built
per nonzero output entry:

* The products (:func:`mat_mul`, :func:`mat_vec`, :func:`commutes`) have
  one body for both kinds, and the kind is decided in two helpers only.
  :func:`_numerators` clears exact operands to integer numerators over one
  common denominator; when any operand is a float matrix it passes every
  operand through unchanged, and the same sums run on floats.
  :func:`_over` then builds Fractions, or returns floats; :func:`commutes`
  compares the sums and builds none.
* Elimination (:func:`rref` and all built on it,
  :func:`is_positive_definite`) clears each row to integers (a row of
  Python ints is taken as it is) and reduces the rows one at a time
  against an integer basis of the rows before them (:func:`_reduce`,
  Bareiss's fraction-free form applied by rows; Bareiss 1968, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination").  Each
  division is exact, so every entry is a minor of the cleared matrix, of
  at most k (b + log2(k) / 2) bits for a k x k minor of b-bit entries
  (Hadamard's bound), and a row that depends on the basis costs one
  reduction.  :func:`charpoly` runs Faddeev-LeVerrier on the integer
  numerators, each division by k exact.

Float matrices keep the float loops (Gauss-Jordan with partial pivoting,
Faddeev-LeVerrier), bit for bit; float Sylvester's criterion compares the
pivots of one elimination without row exchanges with the tolerance.

:func:`minpoly` is the first linear dependency among the powers of M,
read off one :func:`nullspace`.  Also hosts the small univariate
polynomial toolkit (coefficient lists, low degree first): Yun's
square-free decomposition and the square-free part, Sturm counts, and
rational roots found by Sturm bisection, in time polynomial in the
coefficients' bit size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import mul

from .scalars import EXACT, FLOAT, coerce, is_zero, kind_of, zero, one


class LinAlgError(ValueError):
    pass


# ---------------------------------------------------------------------------
# construction helpers

def matrix_kind(m) -> str:
    for row in m:
        for x in row:
            return kind_of(x)
    return EXACT


def vector_kind(v) -> str:
    for x in v:
        return kind_of(x)
    return EXACT


def as_matrix(rows, kind=None):
    if kind is None:
        kind = matrix_kind(rows)
    return [[coerce(x, kind) for x in row] for row in rows]


def as_vector(v, kind=None):
    if kind is None:
        kind = vector_kind(v)
    return [coerce(x, kind) for x in v]


# the scalars are immutable, so one zero (and one one) fills every entry

def idmat(n, kind=EXACT):
    z, u = zero(kind), one(kind)
    return [[u if i == j else z for j in range(n)] for i in range(n)]


def zeros(n, m, kind=EXACT):
    return [[zero(kind)] * m for _ in range(n)]


def block_diag(blocks, kind=EXACT):
    """Block-diagonal matrix of the given square blocks, in order."""
    n = sum(len(b) for b in blocks)
    out = zeros(n, n, kind)
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[pos + i][pos + j] = coerce(x, kind)
        pos += len(b)
    return out


def zero_vector(n, kind=EXACT):
    return [zero(kind)] * n


# ---------------------------------------------------------------------------
# arithmetic

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a):
    return [[s * x for x in row] for row in a]


def mat_shift(a, c):
    """a + c Id, one addition per diagonal entry."""
    return [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def _numerators(*ms):
    """Each matrix m of ms as (d, rows) with m = rows / d.  When every m is
    exact (Fraction or int entries, the kind read off its first entry),
    d is the lcm of m's denominators and rows its integer numerators.  When
    any m is a float matrix no operand is cleared, not even an exact one:
    each m passes through unchanged with d = 1.0, so the integer sums run
    on floats and :func:`_over` returns floats."""
    if any(matrix_kind(m) == FLOAT for m in ms):
        return [(1.0, m) for m in ms]
    out = []
    for m in ms:
        # one as_integer_ratio call per entry: Fraction's numerator and
        # denominator are properties, each a Python-level call
        ratios = [[x.as_integer_ratio() for x in row] for row in m]
        d = lcm(*{q for row in ratios for _, q in row})
        out.append((d, [[p * (d // q) for p, q in row] for row in ratios]))
    return out


def _row_sums(a, b, z):
    """a b as sums of the rows of b from the zero z, skipping zero entries
    of a: each entry adds its nonzero terms in the order of the dense sum."""
    k = len(b)
    if any(len(row) != k for row in a):
        raise LinAlgError("inner dimension mismatch")
    width = len(b[0]) if b else 0
    out = []
    for ra in a:
        row = [z] * width
        for x, rb in zip(ra, b):
            if x != 0:
                row = [s + x * y for s, y in zip(row, rb)]
        out.append(row)
    return out


_ZERO = Fraction(0)


def _over(rows, d):
    """rows / d for a product of :func:`_numerators`' operands: one Fraction
    per nonzero entry over an integer d (every operand exact); floats over
    a float d, the division by 1.0 or 2.0 being exact (an empty sum, int 0,
    becomes +0.0)."""
    if isinstance(d, float):
        return [[s / d for s in row] for row in rows]
    return [[Fraction(s, d) if s else _ZERO for s in row] for row in rows]


def mat_mul(a, b):
    """a b on integer numerators over one common denominator when both
    operands are exact (integer entries give Fractions), else on floats;
    either way each entry adds its nonzero terms in the dense order, so a
    float result is bit-identical to the dense sum (see :func:`_row_sums`).
    """
    (da, ia), (db, ib) = _numerators(a, b)
    return _over(_row_sums(ia, ib, 0), da * db)


def mat_vec(a, v):
    """a v, on integer numerators or on floats as :func:`mat_mul`."""
    if a and len(a[0]) != len(v):
        raise LinAlgError("matrix/vector dimension mismatch")
    (da, ia), (dv, (iv,)) = _numerators(a, [v])
    return _over([[sum(map(mul, row, iv)) for row in ia]], da * dv)[0]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def transpose(a):
    return [list(row) for row in zip(*a)] if a else []


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def commutes(a, b) -> bool:
    """a b = b a, decided on the operands cleared once as in :func:`mat_mul`:
    no Fraction is built."""
    (_, ia), (_, ib) = _numerators(a, b)
    return is_zero_matrix(mat_sub(_row_sums(ia, ib, 0), _row_sums(ib, ia, 0)))


def mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(x == y or is_zero(x - y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_zero_matrix(a) -> bool:
    return all(is_zero(x) for row in a for x in row)


def is_zero_vector(v) -> bool:
    return all(is_zero(x) for x in v)


# ---------------------------------------------------------------------------
# elimination

def _cleared_rows(a):
    """(d, row) for each row of an exact matrix a: row is the integer
    vector d * a-row, d the lcm of the row's denominators.  A row of Python
    ints is its own numerators over d = 1, passed on as it is (the rows are
    only read)."""
    out = []
    for row in a:
        if set(map(type, row)) == {int}:
            out.append((1, row))
        else:
            ((d, (num,)),) = _numerators([row])
            out.append((d, num))
    return out


def _reduce(cleared):
    """Fraction-free elimination of the integer rows of
    :func:`_cleared_rows`, one row at a time (Bareiss 1968, by rows):
    (basis, d, steps), basis / d the RREF of the rows.  basis maps each
    pivot column c to a row b with b[c] = d and zeros in the other pivot
    columns.  A row x reduces to r = d x - sum of x[c] b; a nonzero r
    pivots at its first nonzero column c, each b becomes
    (r[c] b - b[c] r) / d, an exact division, and d becomes r[c]: the minor
    of the pivoting rows on the pivot columns in pivoting order.  steps
    holds per row None (a zero r, or every column already pivots) or
    (c, r[c])."""
    basis, d, steps = {}, 1, []
    for _, x in cleared:
        if len(basis) == len(x):
            steps.append(None)
            continue
        r = [d * v for v in x]
        for c, b in basis.items():
            f = x[c]
            if f:
                r = [u - f * w for u, w in zip(r, b)]
        c = next((j for j, v in enumerate(r) if v), None)
        if c is None:
            steps.append(None)
            continue
        p = r[c]
        for k, b in basis.items():
            f = b[c]
            if f:
                basis[k] = [(p * u - f * w) // d for u, w in zip(b, r)]
            elif p != d:
                basis[k] = [p * u // d for u in b]
        basis[c] = r
        steps.append((c, p))
        d = p
    return basis, d, steps


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    An exact R is the :func:`_reduce` basis of a's cleared rows over d in
    pivot-column order, zero rows filling it to a's height: the RREF of a
    row space is unique, so it is the one Gauss-Jordan gives.
    """
    if matrix_kind(a) == EXACT:
        basis, d, _ = _reduce(_cleared_rows(a))
        columns = sorted(basis)
        rows = [[Fraction(x, d) if x else _ZERO for x in basis[c]] for c in columns]
        return rows + [[_ZERO] * len(a[0]) for _ in range(len(a) - len(rows))], columns
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        # the largest entry of the column, if it exceeds the tolerance
        p = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        if is_zero(m[p][c]):
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a):
    """Deterministic basis of the kernel (free variables in column order)."""
    if not a:
        return []
    ncols = len(a[0])
    r, pivots = rref(a)
    kind = matrix_kind(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = zero_vector(ncols, kind)
        v[f] = one(kind)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][f]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve the square system a x = b; returns None when singular."""
    n = len(a)
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[i][n] for i in range(n)]


def solve_general(a, b):
    """A particular solution of a x = b (not necessarily square), or None;
    the empty system has the empty solution."""
    if not a:
        return []
    ncols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent
    kind = matrix_kind(a)
    x = zero_vector(ncols, kind)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][ncols]
    return x


def inverse(a):
    n = len(a)
    kind = matrix_kind(a)
    aug = [list(row) + irow for row, irow in zip(a, idmat(n, kind))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def column_space_basis(vectors):
    """Subset of `vectors` that is a basis of their span (stable order).

    These are the pivot columns of one elimination: column c is a pivot
    exactly when it is independent of the columns before it.
    """
    _, pivots = rref(transpose(vectors))
    return [vectors[c] for c in pivots]


def is_positive_definite(g) -> bool:
    """Sylvester's criterion: every leading principal minor is positive.

    On an exact g these minors, times the rows' positive denominators, are
    the pivots of one :func:`_reduce` pass when row k pivots in column k
    for every k (a zero minor moves a pivot).  A float g is eliminated
    without row exchanges, and each pivot, a ratio of consecutive minors
    of the size of g's entries, must exceed the tolerance.
    """
    n = len(g)
    if matrix_kind(g) == EXACT:
        _, _, steps = _reduce(_cleared_rows(g))
        return all(s is not None and s[0] == k and s[1] > 0 for k, s in enumerate(steps))
    m = [list(row) for row in g]
    for k in range(n):
        pv = m[k][k]
        if pv < 0 or is_zero(pv):
            return False
        m[k + 1:] = [[x - row[k] / pv * y for x, y in zip(row, m[k])] for row in m[k + 1:]]
    return True


# ---------------------------------------------------------------------------
# univariate polynomials (coefficient lists, low degree first)

def poly_trim(p):
    q = list(p)
    while len(q) > 1 and is_zero(q[-1]):
        q.pop()
    return q


def poly_deg(p) -> int:
    return len(poly_trim(p)) - 1


def poly_divmod(p, q):
    q = poly_trim(q)
    if q == [q[0]] and is_zero(q[0]):
        raise ZeroDivisionError("polynomial division by zero")
    kind = kind_of(q[-1])
    # integer coefficients are exact: the quotient and remainder are Fractions
    lead = coerce(q[-1], kind)
    rem = as_vector(poly_trim(p))
    dq = len(q) - 1
    if len(rem) - 1 < dq:
        return [zero(kind)], rem
    quot = [zero(kind)] * (len(rem) - dq)
    for k in range(len(rem) - dq - 1, -1, -1):
        c = rem[k + dq] / lead
        quot[k] = c
        if c != 0:
            for j in range(dq + 1):
                rem[k + j] -= c * q[j]
    return poly_trim(quot), poly_trim(rem)


def poly_monic(p):
    p = poly_trim(p)
    lead = coerce(p[-1], kind_of(p[-1]))
    return [c / lead for c in p]


def poly_gcd(p, q):
    """Monic gcd over the rationals (Euclid)."""
    a, b = poly_trim(p), poly_trim(q)
    while not (len(b) == 1 and is_zero(b[0])):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_deriv(p):
    if len(p) <= 1:
        return [zero(kind_of(p[0]))]
    return [i * c for i, c in enumerate(p)][1:]


def poly_eval(p, x):
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def charpoly(m):
    """Characteristic polynomial det(xI - M) via Faddeev-LeVerrier.

    An exact M = N/d runs on the integer N: each c_k = -tr(N M_(k-1))/k
    divides exactly, and the coefficient of x^(n-k) is c_k / d^k.
    """
    n = len(m)
    kind = matrix_kind(m)
    if kind == EXACT:
        ((d, num),) = _numerators(m)
        coeffs = [Fraction(1)]
        mk = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            mk = _row_sums(num, mk, 0)
            ck = -trace(mk) // k
            coeffs.append(Fraction(ck, d ** k) if ck else _ZERO)
            for i in range(n):
                mk[i][i] += ck
        return coeffs[::-1]
    coeffs = [zero(kind)] * (n + 1)
    coeffs[n] = one(kind)
    mk = idmat(n, kind)
    for k in range(1, n + 1):
        am = mat_mul(m, mk)
        ck = -trace(am) / k
        coeffs[n - k] = ck
        mk = mat_add(am, mat_scale(ck, idmat(n, kind)))
    return coeffs


def minpoly(m):
    """Minimal polynomial (monic, low degree first): the first linear
    dependency among I, M, .., M^n (Cayley-Hamilton bounds the degree by
    n), read off one :func:`nullspace` of the matrix whose column k is M^k
    flattened.  Columns 0..d-1 pivot and column d is the first free one,
    d the degree, so the first kernel vector holds the coefficients."""
    n = len(m)
    kind = matrix_kind(m)
    powers = [idmat(n, kind)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], m))
    kernel = nullspace(transpose([[x for row in p for x in row] for p in powers]))
    return poly_trim(kernel[0]) if kernel else [one(kind)]


def squarefree_part(p):
    """p / gcd(p, p'): each root of p once, with p's leading coefficient."""
    return poly_divmod(p, poly_gcd(p, poly_deriv(p)))[0]


def squarefree_factors(p):
    """Yun's square-free decomposition (Yun 1976) of an exact polynomial:
    [f_1, .., f_k], monic, square-free and pairwise coprime, with
    p = lead(p) prod f_i^i and f_k != 1 ([] for a constant p)."""
    if poly_deg(p) == 0:
        return []
    p = poly_monic([Fraction(c) for c in p])
    a = poly_gcd(p, poly_deriv(p))
    b, c = poly_divmod(p, a)[0], poly_divmod(poly_deriv(p), a)[0]
    factors = []
    while poly_deg(b) > 0:
        d = poly_trim([x - y for x, y in zip_longest(c, poly_deriv(b), fillvalue=0)])
        factors.append(poly_gcd(b, d))
        b, c = poly_divmod(b, factors[-1])[0], poly_divmod(d, factors[-1])[0]
    return factors


def _sturm(f):
    """(chain, B): the Sturm sequence of a square-free exact f, scaled to
    integers, and the Cauchy bound B, with every root of f inside (-B, B)."""
    chain = [poly_trim(f), poly_deriv(poly_trim(f))]
    while poly_deg(chain[-1]) > 0:
        chain.append([-c for c in poly_divmod(chain[-2], chain[-1])[1]])
    return _numerators(chain)[0][1], 1 + Fraction(max(abs(c) for c in f[:-1]), abs(f[-1]))


def _sign_changes(chain, x):
    """Sign changes along an integer chain at x = u/v (v > 0), each member
    q read as the integer v^deg(q) q(u/v)."""
    u, v = x.numerator, x.denominator
    signs = []
    for q in chain:
        acc, vp = q[-1], 1
        for c in reversed(q[:-1]):
            vp *= v
            acc = acc * u + c * vp
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_distinct_real_roots(p) -> int:
    """Number of distinct real roots of p (exact coefficients): the drop in
    Sturm sign changes of its square-free part from -B to B."""
    p = poly_trim(p)
    if poly_deg(p) == 0:
        return 0
    chain, bound = _sturm(squarefree_part(p))
    return _sign_changes(chain, -bound) - _sign_changes(chain, bound)


def rational_roots(p):
    """Rational roots of an exact polynomial with multiplicities.

    Returns (roots: dict Fraction -> int, remaining polynomial), p being the
    remaining polynomial times prod (x - r)^mult.  The roots of multiplicity
    i are those of the i-th square-free factor f: read off when f is linear,
    else isolated by Sturm bisection until an interval (lo, hi] holding one
    root is narrower than 1/l^2, l the lcm of f's denominators.  A rational
    root u/v has v | l, and two fractions with denominators at most l lie
    1/l^2 apart or more, so the root is rational only if it is the one such
    fraction nearest the midpoint.  The cost is polynomial in the bit size
    of p: about log2(B l^2) bisections per root, B the Cauchy bound.
    """
    p = poly_trim(p)
    if kind_of(p[0]) != EXACT:
        raise LinAlgError("rational_roots requires exact coefficients")
    roots = {}
    for mult, f in enumerate(squarefree_factors(p), 1):
        if poly_deg(f) == 1:
            roots[-f[0]] = mult
        elif poly_deg(f) > 1:
            chain, bound = _sturm(f)
            lead = lcm(*(c.denominator for c in f))
            # (lo, sign changes at lo, hi, at hi): each endpoint evaluated once
            stack = [(-bound, _sign_changes(chain, -bound), bound, _sign_changes(chain, bound))]
            while stack:
                lo, v_lo, hi, v_hi = stack.pop()
                mid = (lo + hi) / 2
                if v_lo - v_hi == 1 and (hi - lo) * lead * lead < 1:
                    r = mid.limit_denominator(lead)
                    if poly_eval(f, r) == 0:
                        roots[r] = mult
                elif v_lo > v_hi:
                    v_mid = _sign_changes(chain, mid)
                    stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    for r, mult in roots.items():
        for _ in range(mult):
            p = poly_divmod(p, [-r, Fraction(1)])[0]
    return roots, p
