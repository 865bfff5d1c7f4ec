"""Locally conformally hyperkahler structures on almost abelian algebras.

Admissibility of the defining endomorphism D of R^{4m-1} x| R is decided
spectrally: D must be complex-diagonalizable with

  (i)   Spec(D) contained in a + iR for a single real a,
  (ii)  the real eigenvalue a of multiplicity at least 3,
  (iii) every nonreal eigenvalue of even multiplicity.

On the exact path every condition is decided through the one
characteristic polynomial chi of D - a (diagonalizability as f(D - a) = 0
for the square-free part f of chi, evenness, the square-free decomposition
of hhat read with Sturm counts), never through numeric eigenvalues; the
reported multiplicity table alone still reads float roots.  A float D is
read off the Jordan data of its eigenvalue clusters, decided in
``lattice`` under the ambient tolerance.  The witness is
built on the canonical block form diag(C_1, .., C_{m-1}, a, a, a) with
quaternion matrices K_1, K_2, K_3 repeated along the diagonal.  Each
entry point decides D once; construct_lchk returns that verdict with its
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import EXACT, exact_sqrt
from . import linalg
from .forms import KForm
from .hermitian import ComplexStructure, HermitianStructure, Metric, riemann_is_flat
from .lie import LieAlgebra
from .lattice import _spectral_clusters


class LchkError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


K1 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
K2 = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
K3 = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


@dataclass(frozen=True)
class LchkVerdict:
    """The verdict; ``aalg lchk`` reports its fields in this order."""
    admissible: bool
    a: object = None
    hyperkahler: bool = False
    diagonalizable: bool = False
    condition_spectrum_line: bool = False   # (i)
    condition_real_multiplicity: bool = False  # (ii)
    condition_even_pairs: bool = False  # (iii)
    multiplicities: tuple = ()          # ((b, mult) for b >= 0; b = 0 is the real eigenvalue)


@dataclass(frozen=True)
class HypercomplexTriple:
    I1: ComplexStructure
    I2: ComplexStructure
    I3: ComplexStructure
    g: Metric
    theta: KForm


def lchk_admissible(D) -> LchkVerdict:
    """Spectral admissibility of D for the LCHK construction."""
    return _admissible(D)[0]


def _admissible(D):
    """(verdict, D as a matrix, spectrum): the spectrum is the
    :func:`_shifted_charpoly` of an exact D, computed once for both the
    verdict and the canonical form, and None for a float D."""
    D = linalg.as_matrix(D)
    n = len(D)
    if any(len(row) != n for row in D):
        raise LchkError("BAD_DIMENSION", "D must be square")
    if n % 4 != 3:
        raise LchkError("BAD_DIMENSION", "D must be (4m-1) x (4m-1)")
    if linalg.matrix_kind(D) == EXACT:
        spectrum = _shifted_charpoly(D)
        facts = _admissible_exact(D, spectrum)
    else:
        spectrum, facts = None, _admissible_float(D)
    diagonalizable, cond_i, cond_ii, cond_iii, a, a_is_zero, mult_table = facts
    # admissible is the conjunction, a is reported only under (i), and
    # hyperkahler is admissible with a = 0
    admissible = diagonalizable and cond_i and cond_ii and cond_iii
    verdict = LchkVerdict(admissible, a if cond_i else None, admissible and a_is_zero,
                          diagonalizable, cond_i, cond_ii, cond_iii, tuple(mult_table))
    return verdict, D, spectrum


def _shifted_charpoly(D):
    """Spectral data of D about a = tr D / n.

    Returns (a, D - a, m0, h, hhat): the characteristic polynomial of
    D - a is x^m0 h(x) with h(0) != 0, and hhat(y) collects the even
    coefficients of h, so h(x) = hhat(x^2) when h is even.
    """
    n = len(D)
    a = Fraction(linalg.trace(D), n)
    shifted = linalg.mat_shift(D, -a)
    chi = linalg.charpoly(shifted)
    m0 = 0
    while chi[m0] == 0:
        m0 += 1
    h = chi[m0:]
    return a, shifted, m0, h, h[::2]


def _admissible_exact(D, spectrum):
    a, shifted, m0, h, hhat = spectrum
    # D is diagonalizable <=> its minimal polynomial is square-free <=> the
    # square-free part f of chi = x^m0 h kills D - a; f is monic of degree
    # >= 1, and f(D - a) is evaluated by Horner's rule
    f = linalg.squarefree_part([Fraction(0)] * m0 + h)
    acc = linalg.mat_shift(shifted, f[-2])
    for c in reversed(f[:-2]):
        acc = linalg.mat_shift(linalg.mat_mul(acc, shifted), c)
    diagonalizable = linalg.is_zero_matrix(acc)
    # (i): the nonzero spectrum of D - a is purely imaginary <=> h is even
    # and hhat has only real roots, all negative (its coefficients positive)
    cond_i = all(h[i] == 0 for i in range(1, len(h), 2))
    if cond_i:
        factors = linalg.squarefree_factors(hhat)
        cond_i = (all(c > 0 for c in hhat)
                  and all(linalg.sturm_distinct_real_roots(f) == linalg.poly_deg(f)
                          for f in factors))
    cond_ii = m0 >= 3
    cond_iii = False
    mult_table = [(Fraction(0), m0)] if m0 else []
    if cond_i:
        # (iii): hhat is a square <=> every odd-index square-free factor is 1
        cond_iii = all(linalg.poly_deg(f) == 0 for f in factors[::2])
        # float b values for reporting; moving this table onto the exact
        # roots changes the recorded seed-2 sweep digest (bench/digests.json)
        if linalg.poly_deg(hhat) > 0:
            import numpy as np
            roots = np.roots([float(c) for c in reversed(hhat)])
            reals = sorted({round(float(r.real), 9) for r in roots if abs(r.imag) < 1e-7})
            for beta in reals:
                mult = _root_multiplicity_exact(hhat, beta)
                if mult:
                    mult_table.append((float(np.sqrt(-beta)), mult))
    return diagonalizable, cond_i, cond_ii, cond_iii, a, a == 0, mult_table


def _root_multiplicity_exact(poly, beta_float):
    """Multiplicity of a rational root close to beta_float, or 0."""
    beta = Fraction(beta_float).limit_denominator(10 ** 9)
    count = 0
    p = list(poly)
    while linalg.poly_deg(p) > 0 and linalg.poly_eval(p, beta) == 0:
        p, _ = linalg.poly_divmod(p, [-beta, Fraction(1)])
        count += 1
    return count


def _admissible_float(D):
    # diagonalizability: each cluster has as many Jordan blocks as members
    tol, trace, clusters = _spectral_clusters(D)
    diagonalizable = all(blocks == mult for _, mult, _, blocks in clusters)
    a = trace / len(D)
    cond_i = all(abs(c.real - a) <= tol for c, *_ in clusters)
    # (ii) counts the eigenvalue a; (iii) and the pairs are read under (i),
    # as on the exact path
    m0 = sum(mult for c, mult, *_ in clusters if abs(c.real - a) <= tol and abs(c.imag) <= tol)
    cond_ii = m0 >= 3
    pairs = [(c, mult) for c, mult, *_ in clusters if c.imag > tol] if cond_i else []
    cond_iii = cond_i and all(mult % 2 == 0 for _, mult in pairs)
    mult_table = [(0.0, m0)] if m0 else []
    mult_table += [(abs(c.imag), mult) for c, mult in sorted(pairs, key=lambda t: -abs(t[0].imag))]
    return diagonalizable, cond_i, cond_ii, cond_iii, a, abs(a) <= tol, mult_table


def canonical_form(D):
    """Change of basis bringing admissible D to diag(C_1,..,C_{m-1},a,a,a).

    Returns (P, D_canonical, a, blocks) with D P = P D_canonical; blocks is
    the list of rotation parameters b_i (zero blocks last).  Exact path
    requires the rotation parameters to be rational.
    """
    return _canonical_form(*_admissible(D))


def _canonical_form(verdict, D, spectrum):
    if not verdict.admissible:
        raise LchkError("NOT_ADMISSIBLE", "D fails the spectral conditions")
    if spectrum is None:
        raise LchkError("FLOAT_UNSUPPORTED",
                        "canonical witness construction runs on the exact path")
    a, shifted, _, _, hhat = spectrum
    bs = []  # (b, nu) with nu the number of C-blocks for this b
    # hhat(-b^2) = 0 with multiplicity 2 nu: even, as hhat is a square
    roots, rem = linalg.rational_roots(hhat)
    if linalg.poly_deg(rem) > 0:
        raise LchkError("EXACT_IRRATIONAL",
                        "rotation parameters are irrational; no exact witness")
    for beta, mult in sorted(roots.items()):
        b = exact_sqrt(-beta)
        if b is None:
            raise LchkError("EXACT_IRRATIONAL",
                            "rotation parameter sqrt(-beta) is irrational")
        bs.append((b, mult // 2))
    bs.sort(key=lambda t: t[0], reverse=True)
    columns = []
    blocks = []
    for b, nu in bs:
        w_mat = linalg.mat_shift(linalg.mat_mul(shifted, shifted), b * b)
        w_basis = linalg.nullspace(w_mat)
        assert len(w_basis) == 4 * nu, "eigenspace dimension mismatch"
        # one pass: keep each u independent of the earlier pairs (u', Jhat u'),
        # Jhat = (D - a) / b, until they span the eigenspace; the span only
        # grows, so a vector passed over stays dependent.  Consecutive picks
        # (u, w) make the quad (u, -Jhat u, w, Jhat w)
        span, picks = [], []
        for u in w_basis:
            if len(span) == len(w_basis):
                break
            if linalg.rank(span + [u]) > len(span):
                ju = [x / b for x in linalg.mat_vec(shifted, u)]
                span += [u, ju]
                picks.append((u, ju))
        for (u, ju), (w, jw) in zip(picks[::2], picks[1::2]):
            columns += [u, [-x for x in ju], w, jw]
            blocks.append(b)
    kernel = linalg.nullspace(shifted)
    assert len(kernel) == len(D) - len(columns)
    h_zero = (len(kernel) - 3) // 4
    for t in range(h_zero):
        columns.extend(kernel[4 * t: 4 * t + 4])
        blocks.append(Fraction(0))
    columns.extend(kernel[4 * h_zero:])
    p = linalg.transpose(columns)
    dc = linalg.block_diag(
        [[[a, b, 0, 0], [-b, a, 0, 0], [0, 0, a, -b], [0, 0, b, a]] for b in blocks]
        + [[[a]]] * 3)
    assert linalg.mat_eq(linalg.mat_mul(D, p), linalg.mat_mul(p, dc)), \
        "canonical form certificate failed"
    return p, dc, a, blocks


def construct_lchk(D):
    """Decide D once and build its hypercomplex witness.

    Returns (verdict, witness): the verdict of :func:`lchk_admissible`, and
    (L, triple, P, D_canonical) where L is the almost abelian algebra
    R^{4m-1} x|_{D_canonical} R, the triple carries (I1, I2, I3, g) with
    I_i = diag(K_i, .., K_i) and g the standard metric, and P certifies that
    D is conjugate to D_canonical.  Without a witness (NOT_ADMISSIBLE,
    FLOAT_UNSUPPORTED, EXACT_IRRATIONAL) the second entry is the LchkError.
    """
    verdict, D, spectrum = _admissible(D)
    try:
        p, dc, a, _ = _canonical_form(verdict, D, spectrum)
    except LchkError as exc:
        return verdict, exc
    n2 = len(dc) + 1
    m = n2 // 4
    L = LieAlgebra.semidirect(dc)
    structs = [ComplexStructure.from_matrix(linalg.block_diag([K] * m))
               for K in (K1, K2, K3)]
    theta = KForm(1, n2, {(n2 - 1,): -(4 * m - 2) * a}, kind=EXACT)
    triple = HypercomplexTriple(*structs, Metric.identity(n2), theta)
    return verdict, (L, triple, p, dc)


def verify_triple(L: LieAlgebra, triple: HypercomplexTriple):
    """Check every invariant of a hypercomplex LCK triple; returns a report."""
    i1, i2, i3 = triple.I1.matrix, triple.I2.matrix, triple.I3.matrix
    report = {}
    report["quaternion_i1i2_eq_i3"] = linalg.mat_eq(linalg.mat_mul(i1, i2), i3)
    prod = linalg.mat_mul(linalg.mat_mul(i1, i2), i3)
    report["quaternion_product"] = linalg.is_zero_matrix(linalg.mat_shift(prod, 1))
    lee_forms = []
    for tag, J in (("I1", triple.I1), ("I2", triple.I2), ("I3", triple.I3)):
        H = HermitianStructure(L, J, triple.g)
        report[f"integrable_{tag}"] = H.integrable
        lee_forms.append(H.lee_form())
        report[f"lck_{tag}"] = H.is_lck_direct()
    report["lee_forms_equal"] = (lee_forms[0].equals(lee_forms[1])
                                 and lee_forms[0].equals(lee_forms[2]))
    report["lee_form_matches"] = lee_forms[0].equals(triple.theta)
    from .forms import exterior_derivative
    report["lee_form_closed"] = exterior_derivative(lee_forms[0], L).is_zero()
    report["ok"] = all(v for k, v in report.items())
    return report


def hyperkahler_flatness(triple: HypercomplexTriple, L: LieAlgebra) -> bool:
    """Left-invariant hyperkahler metrics are flat: assert zero curvature."""
    if not triple.theta.is_zero():
        raise LchkError("PRECONDITION", "triple is not hyperkahler (theta != 0)")
    return riemann_is_flat(L, triple.g)
