"""Adapted bases and the (a, v, A) data calculus for Hermitian almost
abelian Lie algebras.

An adapted frame is (b_1, u_1, .., u_{2n-2}, b_{2n}) with:

* b_{2n} spanning the g-orthogonal complement of the abelian ideal n,
* b_1 = -J b_{2n},
* u_* a g-orthogonal basis of n_1 = n intersect J n arranged in J-stable
  pairs (u, Ju), so the matrix of J on n_1 is always block-diagonal with
  2x2 rotation blocks regardless of normalization.

On the exact path frames are normalized only when the squared norms are
perfect rational squares; all predicates and the closed Lee/Bismut-Ricci
formulas below carry the exact scale corrections, so verdicts are exact
for any rational input.  The frame is g-orthogonal, so no inverse is
taken: coframe row t is (G w_t)^t / |w_t|^2, from the products G w that
the Gram-Schmidt keeps, and the matrix of ad_{b_2n} in the frame is the
product C ad_{b_2n} F of the coframe C and the frame F, formed on integer
numerators with one Fraction per entry read.  The frame pairs (u, Ju), so
J_1, the matrix of J on n_1, is the standard pairing by construction.
Data produced by :func:`build_algebra` is always orthonormal and matches
the adapted-basis block form

    B = [[a, 0], [v, A]],   A commuting with J_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .scalars import EXACT, coerce, is_zero, one, sqrt_scalar, zero
from . import linalg
from .forms import KForm
from .hermitian import ComplexStructure, HermitianStructure, Metric
from .lie import LieAlgebra, LieAlgebraError, abelian_ideal


class DataError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class HermitianData:
    """The (a, v, A) package together with the frame that realizes it.

    ``frame`` lists 2n vectors in the ambient coordinates, ordered
    (b_1, u_1, .., u_{2n-2}, b_{2n}); ``coframe`` is the inverse of the
    matrix with the frame as columns, so its rows are the dual covectors
    b^t in ambient coordinates.  ``J1`` is the matrix of J on n_1 in the
    frame.  ``d_outer`` is the common squared
    norm of b_1 and b_{2n}; ``d_inner`` the squared norms of the u_i
    (equal within each J-pair).  A fully orthonormal frame has all of
    them equal to one.  The frame is g-orthogonal, so the coframe is
    read off it, row t being (G w_t)^t / |w_t|^2, and these norms and
    the coframe fix g: ``metric()`` rebuilds it as one product.
    """

    n: int
    a: object
    v: tuple
    A: tuple
    J1: tuple
    frame: tuple
    coframe: tuple
    d_outer: object
    d_inner: tuple
    kind: str

    @property
    def m(self) -> int:
        return 2 * self.n - 2

    @property
    def A_matrix(self):
        return [list(row) for row in self.A]

    @property
    def J1_matrix(self):
        return [list(row) for row in self.J1]

    @property
    def v_vector(self):
        return list(self.v)

    @cached_property
    def adjoint_A(self):
        """g-adjoint of A on n_1, computed once: S^-1 A^t S with S =
        diag(d_inner) the frame Gram matrix, so entry (i, j) is
        (1/d_i) (A_ji d_j).  A tuple of rows, as A is."""
        d = self.d_inner
        inv = [1 / x for x in d]
        return tuple(tuple(inv[i] * (self.A[j][i] * d[j]) for j in range(self.m))
                     for i in range(self.m))

    def v_norm_sq(self):
        return sum(self.d_inner[i] * self.v[i] * self.v[i] for i in range(self.m))

    def is_orthonormal(self) -> bool:
        ok = self.d_outer == one(self.kind) or is_zero(self.d_outer - 1)
        return ok and all(is_zero(d - 1) for d in self.d_inner)

    def metric(self) -> Metric:
        """The metric the frame realizes: sum_t w_t (b^t)^2 over the coframe
        rows, with w = (d_outer, d_inner, d_outer) the squared norms of the
        g-orthogonal frame; that is C^t (W C), one product on the integer
        numerators of C and w."""
        (dw, (wn,)), (dc, cn) = linalg._numerators(
            [[self.d_outer, *self.d_inner, self.d_outer]], self.coframe)
        wc = [[s * x for x in row] for s, row in zip(wn, cn)]
        return Metric.from_matrix(
            linalg._over(linalg._row_sums(linalg.transpose(cn), wc, 0), dw * dc * dc))

    def gauge_invariants(self):
        """Quantities independent of the unitary gauge in the adapted frame."""
        ahat = self.A_matrix
        return {
            "a": self.a,
            "trace_A": linalg.trace(ahat),
            "v_norm_sq": self.v_norm_sq(),
            "charpoly_A": linalg.charpoly(ahat),
            "rank_A": linalg.rank(ahat),
        }


def standard_j1(m, kind=EXACT):
    """Consecutive-pair complex structure on R^m (m even): J e_{2t} =
    e_{2t+1}, as in the pairs (u, J u) of an adapted frame."""
    return linalg.block_diag([[[0, -1], [1, 0]]] * (m // 2), kind)


def build_algebra(a, v, A, J1):
    """Almost abelian algebra from adapted data; inverse of extract_data.

    Returns (LieAlgebra, ComplexStructure, Metric) on the basis
    (e_1, eps_1..eps_m, e_2n) with brackets [e_2n, e_1] = a e_1 + v and
    [e_2n, .]|n_1 = A.
    """
    m = len(A)
    kind = linalg.matrix_kind(A) if m else (linalg.vector_kind(v) or EXACT)
    a = coerce(a, kind)
    v = linalg.as_vector(v, kind)
    A = linalg.as_matrix(A, kind)
    J1 = linalg.as_matrix(J1, kind)
    if len(v) != m or len(J1) != m:
        raise DataError("DIMENSION", "v, A, J1 must share the n_1 dimension")
    if not linalg.mat_eq(linalg.mat_mul(A, J1), linalg.mat_mul(J1, A)):
        raise DataError("COMMUTATION", "A does not commute with J1")
    # D = [[a, 0], [v, A]] with the first row's zeros as -0.0, so that the
    # e_1 entries of [eps_s, e_2n] = -D eps_s are +0.0: float bracket
    # tables stay equal bit for bit, signed zeros included
    D = [[a] + [-zero(kind)] * m] + [[v[t]] + A[t] for t in range(m)]
    L = LieAlgebra.semidirect(D)
    J = ComplexStructure.from_matrix(_adapted_j(J1, kind))
    g = Metric.identity(m + 2, kind)
    return L, J, g


def _adapted_j(J1, kind):
    """J on the adapted basis (e_1, eps_1..eps_m, e_2n): J e_1 = e_2n and
    J1 on n_1."""
    m = len(J1)
    n2 = m + 2
    jm = linalg.zeros(n2, n2, kind)
    jm[n2 - 1][0] = one(kind)
    jm[0][n2 - 1] = -one(kind)
    for s in range(m):
        for t in range(m):
            jm[1 + t][1 + s] = J1[t][s]
    return jm


def data_from_parts(a, v, A, J1):
    """HermitianData on the standard orthonormal frame (no ambient algebra)."""
    m = len(A)
    kind = linalg.matrix_kind(A) if m else EXACT
    frame = tuple(tuple(e) for e in linalg.idmat(m + 2, kind))
    return HermitianData(
        n=(m + 2) // 2,
        a=coerce(a, kind),
        v=tuple(coerce(x, kind) for x in v),
        A=tuple(tuple(coerce(x, kind) for x in row) for row in A),
        J1=tuple(tuple(coerce(x, kind) for x in row) for row in J1),
        frame=frame,
        coframe=frame,
        d_outer=one(kind),
        d_inner=tuple(one(kind) for _ in range(m)),
        kind=kind,
    )


def extract_data(H: HermitianStructure, ideal: tuple | None) -> HermitianData:
    """Read the (a, v, A) data off the Hermitian almost abelian algebra H.

    The ideal is ``ideal`` when declared (an ``ideal:`` line or
    ``--ideal``), else the search's: with several codimension-one abelian
    ideals it takes ker of the basis vector of the largest free column
    (``lie.abelian_ideal`` does either, once per declaration).  The frame
    is deterministic Gram-Schmidt in (u, Ju) pairs, lowest ambient index
    first, so J_1 is the standard pairing.  G, J and G J come from the
    structure's cleared integer views (``H.cleared``; g(J., J.) = g there
    keeps n_1 J-stable), so a pair's images are one product; the coframe
    is read off the images G w, and a, v and A off C ad_{b_2n} F.
    """
    L = H.L
    n2 = L.dim
    kind = L.kind
    try:
        vecs = [list(v) for v in abelian_ideal(L, ideal)]
    except LieAlgebraError as exc:
        raise DataError(exc.code, exc.message) from None
    if not H.integrable:
        raise DataError("J_NOT_COMPATIBLE", "J is not integrable")
    (dg, gn), (dj, jn), jtg = H.cleared
    ((_, vn),) = linalg._numerators(vecs)
    # G, J and G J = (J^t G)^t stacked over the denominator dg dj
    ops = ([[x * dj for x in row] for row in gn] + [[x * dg for x in row] for row in jn]
           + linalg.transpose(jtg))

    def images(x):
        """G x, J x and G J x, from one product."""
        ((dx, (xn,)),) = linalg._numerators([x])
        y = linalg._over([[sum(map(mul, row, xn)) for row in ops]], dg * dj * dx)[0]
        return y[:n2], y[n2:2 * n2], y[2 * n2:]

    def pair(x):
        """(x, G x, J x, G J x, |x|^2), scaled to unit length when |x|^2 is
        a rational square."""
        gx, jx, gjx = images(x)
        dx = linalg.dot(x, gx)
        s = sqrt_scalar(dx)
        if s is None or is_zero(s - 1):
            return x, gx, jx, gjx, dx
        return (*([y / s for y in w] for w in (x, gx, jx, gjx)), one(kind))

    # b_2n spans the g-orthogonal complement of n: the kernel of the rows
    # v^t G (G is symmetric, and scaling a row leaves the kernel alone)
    perp = linalg.nullspace(linalg._row_sums(vn, gn, 0))
    if len(perp) != 1:
        raise DataError("IDEAL_NOT_ABELIAN", "orthogonal complement is not a line")
    b2n = perp[0]
    for x in b2n:
        if not is_zero(x):
            if x < 0:
                b2n = [-t for t in b2n]
            break
    b2n, gb2n, jb2n, gjb2n, d_outer = pair(b2n)
    b1, gb1 = [-x for x in jb2n], [-x for x in gjb2n]
    # n_1 = n intersect J n is the g-orthogonal complement of b_1 and b_2n
    n1_basis = linalg.nullspace([gb2n, gb1])
    if len(n1_basis) != n2 - 2:
        raise DataError("J_NOT_COMPATIBLE", "n intersect Jn has wrong dimension")
    # deterministic J-paired Gram-Schmidt inside n_1; (w, G w, |w|^2) per
    # frame vector, so each projection is one sparse dot product
    used = []

    def project_out(x):
        out = list(x)
        for w, gw, dw in used:
            c = sum(s * t for s, t in zip(out, gw) if s)
            if c:
                c = c / dw
                out = [s - c * t if t else s for s, t in zip(out, w)]
        return out

    for cand in n1_basis:
        if len(used) == n2 - 2:
            break
        u = project_out(cand)
        if linalg.is_zero_vector(u):
            continue
        u, gu, ju, gju, du = pair(u)
        used += [(u, gu, du), (ju, gju, du)]
    if len(used) != n2 - 2:
        raise DataError("J_NOT_COMPATIBLE", "could not build a J-paired frame")
    frame = [b1] + [w for w, _, _ in used] + [b2n]
    d_inner = [d for _, _, d in used]
    # coframe row t is (G w_t)^t / |w_t|^2
    coframe = [gw if d == 1 else [x / d for x in gw] for gw, d in
               [(gb1, d_outer)] + [(gw, d) for _, gw, d in used] + [(gb2n, d_outer)]]
    # C ad_{b_2n} F on integer numerators: column s holds [b_2n, w_s] in
    # the frame; ad_{b_2n}^t is b_2n, the last column of F, times the
    # algebra's table
    (dc, cn), (df, fn) = linalg._numerators(coframe, linalg.transpose(frame))
    da, _, table = L.constants
    (adt,) = linalg._row_sums([[row[-1] for row in fn]], table, 0)
    an = [adt[k::n2] for k in range(n2)]
    img = linalg._row_sums(cn, linalg._row_sums(an, fn, 0), 0)
    inner = range(1, n2 - 1)
    if not is_zero(img[-1][0]):
        raise DataError("IDEAL_NOT_ABELIAN", "[e_2n, e_1] leaves the ideal")
    if not all(is_zero(img[0][s]) and is_zero(img[-1][s]) for s in inner):
        raise DataError("J_NOT_COMPATIBLE", "ad does not preserve the block form")
    # rows and columns b_1 .. b_{2n-1}: a and v in column 0, then A
    block = linalg._over([row[:-1] for row in img[:-1]], dc * da * df * df)
    a = block[0][0]
    v = [row[0] for row in block[1:]]
    A = [row[1:] for row in block[1:]]
    # the frame pairs (u, J u) on n_1, so J_1 is the standard pairing
    j1 = standard_j1(n2 - 2, kind)
    if not linalg.is_zero_matrix(linalg.commutator(A, j1)):
        raise DataError("J_NOT_COMPATIBLE", "A does not commute with J1")
    return HermitianData(
        n=n2 // 2,
        a=a,
        v=tuple(v),
        A=tuple(tuple(row) for row in A),
        J1=tuple(tuple(row) for row in j1),
        frame=tuple(tuple(w) for w in frame),
        coframe=tuple(tuple(row) for row in coframe),
        d_outer=d_outer,
        d_inner=tuple(d_inner),
        kind=kind,
    )


# ---------------------------------------------------------------------------
# predicates (pure linear algebra on the data)

def is_kahler_data(d: HermitianData) -> bool:
    if not linalg.is_zero_vector(d.v_vector):
        return False
    astar = d.adjoint_A
    return linalg.mat_eq(astar, linalg.mat_scale(-1, d.A_matrix))


def is_lck_data(d: HermitianData) -> bool:
    m = d.m
    # n = 1: d omega is a 3-form on R^2; n = 2: A = 0 gives theta ^ omega = d omega
    if d.n <= 2 and linalg.is_zero_matrix(d.A_matrix):
        return True
    if not linalg.is_zero_vector(d.v_vector):
        return False
    lam = linalg.trace(d.A_matrix) / m
    u = linalg.mat_shift(d.A_matrix, -lam)
    ustar = linalg.mat_shift(d.adjoint_A, -lam)
    return linalg.mat_eq(ustar, linalg.mat_scale(-1, u))


def is_balanced_data(d: HermitianData) -> bool:
    return linalg.is_zero_vector(d.v_vector) and is_zero(linalg.trace(d.A_matrix))


def is_skt_data(d: HermitianData) -> bool:
    """[A, A*] = 0 and the eigenvalues of A have real part -a/2 or 0.

    For a g-normal A the real parts are the eigenvalues of the symmetric
    part S, so the spectral condition is the identity S(S + a/2) = 0.
    The ratio a/2 uses the unit-frame normalization, which cancels the
    frame scale exactly.
    """
    am = d.A_matrix
    astar = d.adjoint_A
    if not linalg.is_zero_matrix(linalg.commutator(am, astar)):
        return False
    m = d.m
    half = coerce(1, d.kind) / 2
    s = linalg.mat_scale(half, linalg.mat_add(am, astar))
    return linalg.is_zero_matrix(linalg.mat_mul(s, linalg.mat_shift(s, d.a * half)))


def is_lcb_data(d: HermitianData) -> bool:
    return linalg.is_zero_vector(linalg.mat_vec(d.adjoint_A, d.v_vector))


DATA_PREDICATES = {
    "kahler": is_kahler_data,
    "lck": is_lck_data,
    "balanced": is_balanced_data,
    "skt": is_skt_data,
    "lcb": is_lcb_data,
}


def route_verdicts(H, d, prop):
    """(direct, data, note) verdicts of ``prop`` on the Hermitian structure
    H and its data d.  Vaisman has no data criterion (data None) and its
    direct verdict comes with the note of ``H.is_vaisman()``; every other
    property has no note."""
    if prop == "vaisman":
        direct, note = H.is_vaisman()
        return direct, None, note
    return getattr(H, f"is_{prop}_direct")(), DATA_PREDICATES[prop](d), None


# ---------------------------------------------------------------------------
# closed formulas

def lee_form_closed(d: HermitianData) -> KForm:
    """theta = (Jv)^flat - (tr A) e^{2n} in unit-frame terms.

    With a scaled adapted frame the exact corrections are
    theta = (1/d) (J1 v)^flat - (tr A) b^{2n}, where d is the squared norm
    of the outer frame pair and flats are taken with the honest metric.
    """
    jv = linalg.mat_vec(d.J1_matrix, d.v_vector)
    return KForm.from_vector(_covector(d, jv, -linalg.trace(d.A_matrix)))


def _covector(d: HermitianData, x, last):
    """(1/d_outer) x^flat + last b^{2n} in ambient coordinates, x in n_1.

    In the coframe, x^flat has the coefficient d_inner[t] x_t on b^{1+t}.
    """
    comps = ([zero(d.kind)] + [d.d_inner[t] * x[t] / d.d_outer for t in range(d.m)]
             + [last])
    return linalg.mat_vec(linalg.transpose(d.coframe), comps)


def rho_b_closed(d: HermitianData) -> KForm:
    """Bismut-Ricci form from the data:

    rho^B = -(a^2 - a tr A / 2 + |v|^2) e^1 ^ e^{2n} - (A^t v)^flat ^ e^{2n}

    in unit-frame terms, with the exact scale corrections for a merely
    orthogonal frame (the first coefficient picks up 1/d on |v|^2, the
    second a global 1/d).
    """
    b_first = KForm.from_vector(d.coframe[0])
    b_last = KForm.from_vector(d.coframe[-1])
    half = coerce(1, d.kind) / 2
    coeff = -(d.a * d.a - half * d.a * linalg.trace(d.A_matrix)
              + d.v_norm_sq() / d.d_outer)
    from .forms import wedge
    out = wedge(b_first, b_last).scale(coeff)
    atv = linalg.mat_vec(d.adjoint_A, d.v_vector)
    lowered = _covector(d, atv, zero(d.kind))
    return out - wedge(KForm.from_vector(lowered), b_last)


def adapted_J_matrix(d: HermitianData):
    """Ambient J rebuilt from the frame and J_1: the structure's own J."""
    full = linalg.transpose(d.frame)
    return linalg.mat_mul(full, linalg.mat_mul(_adapted_j(d.J1, d.kind), d.coframe))


def is_type_11(rho: KForm, J) -> bool:
    """rho(J., J.) = rho."""
    from .forms import pullback
    jm = J.matrix if isinstance(J, ComplexStructure) else J
    return pullback(rho, jm).equals(rho)


def skt_to_lcb(d: HermitianData) -> HermitianData:
    """From SKT data to LCB data on the same (algebra, J).

    Splits v = (A - a)x + v' by one solve of [[A - a, I], [0, (A - a)^*]]
    (x, v') = (v, 0): im(A - a) and ker(A - a)^* are g-orthogonal
    complements, so v' is the unique projection of v onto the cokernel,
    and x is zero on the free columns of A - a.  It rebases the outer pair:
    b_1' = b_1 - X and b_2n' = J b_1' = b_2n - (J_1 x)_t u_t, where
    X = x_t u_t.  The ideal n is abelian, so ad_{b_2n'} = ad_{b_2n} on n
    and the new frame realizes (a, v', A); its outer pair is declared
    unit, so ``metric()`` of the result is the LCB metric.  When a != 0,
    v' = 0 exactly.
    """
    if not is_skt_data(d):
        raise DataError("PRECONDITION", "input data is not SKT")
    m = d.m
    kind = d.kind
    z = [zero(kind)] * m
    system = ([row + e for row, e in zip(linalg.mat_shift(d.A_matrix, -d.a),
                                         linalg.idmat(m, kind))]
              + [z + row for row in linalg.mat_shift(d.adjoint_A, -d.a)])
    split = linalg.solve_general(system, d.v_vector + z)
    if split is None:
        raise DataError("PRECONDITION", "projection split failed")
    x, vprime = split[:m], split[m:]
    jx = linalg.mat_vec(d.J1_matrix, x)
    inner = d.frame[1:-1]
    lift = linalg.transpose(inner)
    frame = ((tuple(linalg.vec_sub(d.frame[0], linalg.mat_vec(lift, x))),) + inner
             + (tuple(linalg.vec_sub(d.frame[-1], linalg.mat_vec(lift, jx))),))
    # the frame matrix is P (I - E) with E = x e_1^t + (J_1 x) e_2n^t; E^2 = 0,
    # so the coframe is (I + E) C: row 1+t of C gains x_t b^1 + (J_1 x)_t b^2n
    e = linalg.idmat(m + 2, kind)
    for t in range(m):
        e[1 + t][0], e[1 + t][-1] = x[t], jx[t]
    coframe = tuple(map(tuple, linalg.mat_mul(e, d.coframe)))
    return HermitianData(
        n=d.n, a=d.a, v=tuple(vprime), A=d.A, J1=d.J1, frame=frame,
        coframe=coframe, d_outer=one(kind), d_inner=d.d_inner, kind=kind)
