"""Lattice-existence necessary-condition probe.

A simply connected almost abelian group admits a co-compact lattice only
if exp(t0 ad) restricted to the abelian ideal is conjugate to an integer
matrix for some t0 != 0; a computable necessary condition is that the
characteristic and minimal polynomials of exp(t0 B) have integer
coefficients.  The probe below tests that condition on a grid or on the
rule t0 = 2 log k (k = 2..K) and never claims existence.

Matrix exponentials use closed forms for diagonal and rotation-block
matrices and scaling-and-squaring otherwise; spectral quantities of the
float path go through numpy, which each function that needs it imports
on first use, so importing this module does not load numpy.  Its float
zero-tests (the block form, the clusters, the rank floor eps sigma_max of
:func:`nullity`, a nonzero found t) read the ``scalars`` tolerance, and
it is the one place that decides the Jordan data of float matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import EXACT, FLOAT, PrecisionError, current_eps, is_zero, scaled_eps
from . import linalg


DEFAULT_EPS_INT = 1e-6


class LatticeError(ValueError):
    """A probe that cannot run in double precision, or a bad eps_int."""


@dataclass(frozen=True)
class PointReport:
    t: float
    k: int | None                 # set when t comes from the 2 log k rule
    char_coeffs: tuple            # low degree first
    min_coeffs: tuple
    verdict: str                  # INTEGER | WARN | NON_INTEGER
    max_deviation: float
    residual: float | None        # k^2 (k^2 + a2) + a1 when applicable
    residual_vs_inv_k: float | None


@dataclass(frozen=True)
class IntegralityReport:
    points: tuple
    found: float | None           # first t with integral char and min polynomials
    overall: str                  # FOUND | NONE_IN_RANGE
    eps_int: float


def _as_float_matrix(b):
    return [[float(x) for x in row] for row in b]


def _is_diagonal(b):
    n = len(b)
    return all(b[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def _rotation_blocks(b):
    """b as 1x1 blocks [[lam]] and 2x2 blocks [[al, be], [-be, al]] with be
    nonzero down the diagonal, or None when b is not their block-diagonal
    sum (within the tolerance)."""
    n = len(b)
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and not is_zero(b[i][i + 1]):
            al, be = b[i][i], b[i][i + 1]
            blocks.append([[al, be], [-be, al]])
        else:
            blocks.append([[b[i][i]]])
        i += len(blocks[-1])
    return blocks if linalg.mat_eq(b, linalg.block_diag(blocks, FLOAT)) else None


def matrix_exp(b, t=1.0):
    """exp(t b) as a float matrix.

    Diagonal and rotation-block matrices use the exact closed form; the
    general case runs scaling-and-squaring on the Taylor series to the
    current tolerance.
    """
    b = _as_float_matrix(b)
    n = len(b)
    t = float(t)
    blocks = _rotation_blocks(b)
    if blocks is not None:
        return _block_exp(blocks, t, lambda x: math.exp(t * x))
    import numpy as np
    arr = np.array(b) * t
    norm = float(np.max(np.sum(np.abs(arr), axis=1))) if n else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 1 else 0
    scaled = arr / (2 ** squarings)
    term = np.eye(n)
    acc = np.eye(n)
    k = 1
    while float(np.max(np.abs(term))) > current_eps() * 1e-3 or k < 4:
        term = scaled @ term / k
        acc = acc + term
        k += 1
        if k > 200:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return [[float(x) for x in row] for row in acc]


def eigen_clusters(eigs):
    """Group float eigenvalues that lie within tol of a cluster's center.

    tol = 1e3 scaled_eps(eigs) = 1e3 eps max(1, max |lambda|); each cluster
    is (center, members) with the mean of its members as center.  Returns
    (tol, clusters).  This is the one rule for float spectra, shared with
    the LCHK verdict.
    """
    tol = 1e3 * scaled_eps([eigs])
    clusters = []
    for v in eigs:
        for idx, (center, members) in enumerate(clusters):
            if abs(v - center) <= tol:
                members.append(v)
                clusters[idx] = (sum(members) / len(members), members)
                break
        else:
            clusters.append((v, [v]))
    return tol, clusters


def nullity(arr, tol):
    """Number of singular values of arr at most tol, or at most eps times
    the largest one when that bound is larger.  Raises LatticeError when
    arr is not finite (an overflow upstream)."""
    import numpy as np
    if not np.isfinite(arr).all():
        raise LatticeError("a float matrix is not finite in double precision")
    sv = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(sv <= max(tol, sv.max() * current_eps() if sv.size else 0)))


def _spectral_clusters(m):
    """(tol, trace, clusters): the tolerance of :func:`eigen_clusters`, the
    trace as numpy sums it, and per cluster (center, multiplicity,
    jordan_size, blocks), blocks the nullity of m - center and jordan_size
    the powers of m - center over which that kernel grows.  An overflow
    leaves an infinite entry for :func:`nullity` to reject."""
    import numpy as np
    n = len(m)
    arr = np.array(_as_float_matrix(m)).reshape(n, n)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        # a diagonal m keeps its entries as eigenvalues, free of numpy noise
        tol, clusters = eigen_clusters([complex(x) for x in arr.diagonal()] if _is_diagonal(m)
                                       else list(np.linalg.eigvals(arr)))
        for center, members in clusters:
            mult = len(members)
            shifted = power = arr - center * np.eye(n)
            kernels = [nullity(shifted, tol)]
            while 0 < kernels[-1] < mult:
                power = power @ shifted
                kernels.append(nullity(power, tol))
                if kernels[-1] == kernels[-2]:
                    kernels.pop()
                    break
            out.append((center, mult, len(kernels), kernels[0]))
        return tol, float(np.trace(arr)), out


def char_min_poly(m):
    """Characteristic and minimal polynomials (monic, low degree first).

    Exact matrices go through Faddeev-LeVerrier and the first linear
    dependency among the powers of m (:func:`linalg.minpoly`); float
    matrices through eigenvalue clustering with Jordan sizes estimated
    from rank deficiencies.
    """
    if linalg.matrix_kind(m) == EXACT:
        return linalg.charpoly(m), linalg.minpoly(m)
    return _cluster_polys(_spectral_clusters(m)[2])


def _cluster_polys(clusters):
    """Characteristic and minimal polynomials read off spectral clusters."""
    import numpy as np
    char = np.array([1.0 + 0j])
    minp = np.array([1.0 + 0j])
    for center, mult, size, _ in clusters:
        for _ in range(mult):
            char = np.convolve(char, np.array([1.0, -center]))
        for _ in range(size):
            minp = np.convolve(minp, np.array([1.0, -center]))
    char_low = [float(np.real(c)) for c in reversed(char)]
    min_low = [float(np.real(c)) for c in reversed(minp)]
    return char_low, min_low


def _matrix_exp_rule(b, blocks, k):
    """exp(2 log k * b) for a float b with rotation blocks ``blocks`` (or
    None), with entries computed as powers k^(2 lam).

    Avoids the exp(log) round trip for the 2 log k rule, which matters for
    the residual identity checked to 1e-9.
    """
    if blocks is None:
        return matrix_exp(b, 2.0 * math.log(k))
    return _block_exp(blocks, 2.0 * math.log(k), lambda x: math.pow(k, 2.0 * x))


def _block_exp(blocks, t, growth):
    """exp(t b) for b in the rotation-block form ``blocks``; growth(x) is
    exp(t x), which the 2 log k rule evaluates as a power of k."""
    out = []
    for blk in blocks:
        e = growth(blk[0][0])
        if len(blk) == 1:
            out.append([[e]])
        else:
            be = blk[0][1]
            c, s = math.cos(t * be), math.sin(t * be)
            out.append([[e * c, e * s], [-e * s, e * c]])
    return linalg.block_diag(out, FLOAT)


def integrality_probe(b, t_values=None, rule_k_max=None,
                      eps_int=None) -> IntegralityReport:
    """Integer char/min polynomial probe over a grid or the 2 log k rule.

    The verdict per point is INTEGER when every coefficient of both
    polynomials is within eps_int of an integer, WARN within 10 eps_int,
    NON_INTEGER otherwise.  ``found`` is the first INTEGER point.  Raises
    LatticeError when eps_int is not finite and non-negative, or when b,
    exp(t b) or its polynomials are not finite in double precision.
    """
    import numpy as np
    eps_int = DEFAULT_EPS_INT if eps_int is None else float(eps_int)
    if not (math.isfinite(eps_int) and eps_int >= 0):
        raise LatticeError(f"eps_int must be finite and non-negative, not {eps_int!r}")
    points = []
    schedule = []
    if rule_k_max is not None:
        for k in range(2, rule_k_max + 1):
            schedule.append((2.0 * math.log(k), k))
    if t_values is not None:
        for t in t_values:
            schedule.append((float(t), None))
    found = None
    try:
        b = _as_float_matrix(b)
    except OverflowError:
        raise LatticeError("B is not finite in double precision")
    blocks = _rotation_blocks(b)
    for t, k in schedule:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                _, _, clusters = _spectral_clusters(
                    _matrix_exp_rule(b, blocks, k) if k is not None else matrix_exp(b, t))
                char, minp = _cluster_polys(clusters)
        except (OverflowError, np.linalg.LinAlgError, LatticeError, PrecisionError):
            char = minp = [math.inf]
        if not all(map(math.isfinite, char + minp)):
            raise LatticeError(f"exp(tB) at t = {t!r} or its polynomials are not finite "
                               "in double precision")
        dev = max(abs(c - round(c)) for c in char + minp)
        if dev <= eps_int:
            verdict = "INTEGER"
        elif dev <= 10 * eps_int:
            verdict = "WARN"
        else:
            verdict = "NON_INTEGER"
        residual = None
        residual_gap = None
        if k is not None and linalg.poly_deg(list(minp)) == 3:
            # compensated evaluation of k^2 (k^2 + a2) + a1 from the three
            # distinct eigenvalues; individual products are exactly
            # representable for the catalog matrices, so fsum recovers the
            # tiny residual despite the k^6 cancellations
            lams = sorted({c.real for c, _, _, _ in clusters})
            if len(lams) == 3:
                k2 = float(k) * float(k)
                terms = [k2 * k2]
                terms += [-(k2 * lam) for lam in lams]
                terms += [lams[0] * lams[1], lams[0] * lams[2], lams[1] * lams[2]]
                residual = math.fsum(terms)
            else:
                a1 = float(minp[1])
                a2 = float(minp[2])
                residual = k * k * (k * k + a2) + a1
            residual_gap = abs(residual - 1.0 / k)
        points.append(PointReport(
            t=t, k=k,
            char_coeffs=tuple(float(c) for c in char),
            min_coeffs=tuple(float(c) for c in minp),
            verdict=verdict,
            max_deviation=dev,
            residual=residual,
            residual_vs_inv_k=residual_gap,
        ))
        if verdict == "INTEGER" and found is None and not is_zero(t):
            found = t
    overall = "FOUND" if found is not None else "NONE_IN_RANGE"
    return IntegralityReport(points=tuple(points), found=found,
                             overall=overall, eps_int=eps_int)
