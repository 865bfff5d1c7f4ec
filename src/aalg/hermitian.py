"""Hermitian structures on Lie algebras: integrability, Lee form, the
direct metric predicates, Levi-Civita and Bismut connections, and the
Bismut-Ricci curvature oracle.

The Nijenhuis tensor is read off the algebra's ad table: since J^2 = -Id,
Y -> N(e_i, Y) is the commutator [ad_{Je_i} - J ad_{e_i}, J], one per basis
vector.  One code forms and zero-tests the commutators for both scalar
kinds: for exact J and L on integer numerators, so that only nonzero
columns become Fractions; for floats on the entries, within the tolerance.

Conventions, fixed package-wide and spelled out in the README:

* fundamental form  omega(X, Y) = g(JX, Y);
* d alpha (X, Y) = -alpha([X, Y]);
* d^c omega = -d omega (J., J., J.);
* Bismut connection  g(D^B_X Y, Z) = g(D_X Y, Z) + 1/2 d omega(JX, JY, JZ),
  the unique sign for which D^B g = 0, D^B J = 0 and the torsion is a
  3-form under the two conventions above.  The torsion term is read from
  the nonzero coefficients of d omega(J., J., J.) = -d^c omega, each
  written to its six permutations; d^c omega itself is a pullback along J,
  which wedges the sparse 1-forms J^t e^i (see ``forms``);
* Bismut-Ricci  rho^B(X, Y) = -1/2 sum_i g(R^B(X, Y) f_i, J f_i) over a
  g-orthonormal frame, evaluated basis-free as -1/2 tr(W R(e_i, e_j)) with
  W = g^{-1} J^t g.  The trace is expanded as
  tr(P_i G_j) - tr(P_j G_i) - sum_t c^t_ij tr(P_t) with P_i = W G_i for the
  Bismut tables G_i, so no curvature matrix is formed: n products and
  O(n^2) trace sums per pair, O(n^4) in all.  The trace sums are one code
  for both scalar kinds: exact P_i, G_i and structure constants each have
  their denominators cleared once, so the sums are integer sums and only
  the coefficients of rho^B become Fractions; floats are summed as they are;
* Lee form  theta(e_k) = 1/2 sum_{p,q} M_pq d omega(e_p, e_q, e_k) with
  M = g^{-1} J^t, each coefficient of d omega entering in its six orderings;
  balanced is theta = 0 (wedging with omega^(n-1) is injective on 1-forms).

Connection tables and the Lee form are computed once per structure and
cached on the instance, the integrability of J once per algebra and the
metric's inverse once per metric (each under the tolerance in force at
that first call); instances are otherwise immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import mul

from .scalars import EXACT, coerce, is_zero, one, zero
from . import linalg
from .forms import KForm, exterior_derivative, pullback, sort_indices, wedge
from .lie import LieAlgebra


class HermitianError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class ComplexStructure:
    """Almost complex structure J with J^2 = -Id."""

    J: tuple

    @classmethod
    def from_matrix(cls, j):
        j = linalg.as_matrix(j)
        n = len(j)
        kind = linalg.matrix_kind(j)
        if not linalg.mat_eq(linalg.mat_mul(j, j),
                             linalg.mat_scale(coerce(-1, kind), linalg.idmat(n, kind))):
            raise HermitianError("NOT_COMPLEX", "J^2 != -Id")
        return cls(tuple(tuple(row) for row in j))

    @classmethod
    def from_pairs(cls, dim, pairs, kind=EXACT):
        """J from a pairing list: for (i, j), J e_i = e_j and J e_j = -e_i."""
        m = linalg.zeros(dim, dim, kind)
        seen = set()
        for i, j in pairs:
            if i in seen or j in seen or i == j:
                raise HermitianError("BAD_PAIRING", f"index reused in pairs at ({i}, {j})")
            seen.update((i, j))
            m[j][i] = one(kind)
            m[i][j] = -one(kind)
        if len(seen) != dim:
            raise HermitianError("BAD_PAIRING", "pairs do not cover every basis index")
        return cls(tuple(tuple(row) for row in m))

    @property
    def matrix(self):
        return [list(row) for row in self.J]


@dataclass(frozen=True)
class Metric:
    """Symmetric positive-definite bilinear form."""

    g: tuple

    @classmethod
    def from_matrix(cls, g):
        g = linalg.as_matrix(g)
        if not linalg.mat_eq(g, linalg.transpose(g)):
            raise HermitianError("NOT_SYMMETRIC", "metric matrix is not symmetric")
        if not linalg.is_positive_definite(g):
            raise HermitianError("NOT_POSITIVE_DEFINITE", "metric is not positive definite")
        return cls(tuple(tuple(row) for row in g))

    @classmethod
    def identity(cls, dim, kind=EXACT):
        return cls(tuple(tuple(row) for row in linalg.idmat(dim, kind)))

    @property
    def matrix(self):
        return [list(row) for row in self.g]

    @cached_property
    def inverse(self):
        """g^{-1} as a tuple of rows (None when singular), computed once."""
        inv = linalg.inverse(self.matrix)
        return None if inv is None else tuple(tuple(row) for row in inv)


class HermitianStructure:
    """A Lie algebra with a compatible (J, g); omega = g(J., .)."""

    def __init__(self, L: LieAlgebra, J: ComplexStructure, g: Metric):
        if len(J.J) != L.dim or len(g.g) != L.dim:
            raise HermitianError("DIMENSION", "J or g dimension does not match the algebra")
        if L.dim % 2 != 0:
            raise HermitianError("DIMENSION", "Hermitian structures need even dimension")
        jm, gm = J.matrix, g.matrix
        # J^t g is the matrix of omega; W = g^{-1} J^t g weights rho^B
        om = linalg.mat_mul(linalg.transpose(jm), gm)
        if not linalg.mat_eq(linalg.mat_mul(om, jm), gm):
            raise HermitianError("NOT_COMPATIBLE", "g(J., J.) != g")
        self.L = L
        self.J = J
        self.g = g
        self._jtg = om
        coeffs = {}
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                if not is_zero(om[i][j]):
                    coeffs[(i, j)] = om[i][j]
        self.omega = KForm(2, L.dim, coeffs, kind=L.kind)
        self._cache = {}

    @property
    def dim(self):
        return self.L.dim

    @property
    def n(self):
        return self.L.dim // 2

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- integrability --------------------------------------------------------
    def nijenhuis(self):
        return nijenhuis(self.J, self.L)

    def is_integrable(self) -> bool:
        return is_integrable(self.J, self.L)

    def _require_integrable(self):
        if not self.is_integrable():
            raise HermitianError("NON_INTEGRABLE", "J has nonvanishing Nijenhuis tensor")

    # -- Lee form -------------------------------------------------------------
    def domega(self):
        return self._memo("domega", lambda: exterior_derivative(self.omega, self.L))

    def lee_form(self):
        """The unique theta with d(omega^(n-1)) = theta ^ omega^(n-1), read off
        d omega as theta(e_k) = 1/2 sum_{p,q} M_pq d omega(e_p, e_q, e_k),
        M = g^{-1} J^t."""
        return self._memo("lee", self._compute_lee)

    def _compute_lee(self):
        if self.dim < 4:
            raise HermitianError("DIMENSION", "the Lee form needs dim >= 4")
        m = linalg.mat_mul(self.g.inverse, linalg.transpose(self.J.matrix))
        half = coerce(1, self.L.kind) / 2
        theta = [zero(self.L.kind)] * self.dim
        for key, val in self.domega().coeffs.items():
            for p, q, k in permutations(key):
                theta[k] += sort_indices((p, q, k))[1] * half * m[p][q] * val
        return KForm.from_vector(theta)

    # -- direct predicates ------------------------------------------------------
    def is_kahler_direct(self) -> bool:
        self._require_integrable()
        return self.domega().is_zero()

    def is_balanced_direct(self) -> bool:
        """d(omega^(n-1)) = 0, i.e. theta = 0; always true in dim 2."""
        self._require_integrable()
        return self.n < 2 or self.lee_form().is_zero()

    def is_lck_direct(self) -> bool:
        self._require_integrable()
        theta = self.lee_form()
        if not exterior_derivative(theta, self.L).is_zero():
            return False
        lhs = self.domega().scale(self.n - 1)
        rhs = wedge(theta, self.omega)
        return lhs.equals(rhs)

    def is_lcb_direct(self) -> bool:
        self._require_integrable()
        return exterior_derivative(self.lee_form(), self.L).is_zero()

    def dc_omega(self):
        """d^c omega = -d omega (J., J., J.)."""
        return self._memo("dc", lambda: pullback(self.domega(), self.J.matrix).scale(-1))

    def is_skt_direct(self) -> bool:
        self._require_integrable()
        return exterior_derivative(self.dc_omega(), self.L).is_zero()

    # -- connections ------------------------------------------------------------
    def levi_civita(self):
        """Connection tables Gamma[i] = matrix of Y -> D_{e_i} Y."""
        return self._memo("lc", lambda: levi_civita(self.L, self.g))

    def bismut_connection(self):
        return self._memo("bismut", self._compute_bismut)

    def _compute_bismut(self):
        self._require_integrable()
        lc = self.levi_civita()
        n2 = self.dim
        sigma = -self.dc_omega()  # sigma(X,Y,Z) = domega(JX,JY,JZ)
        half = coerce(1, self.L.kind) / 2
        # lower[i][l][j] = 1/2 sigma(e_i, e_j, e_l): each nonzero coefficient
        # of sigma fills its six permutations
        lower = [linalg.zeros(n2, n2, self.L.kind) for _ in range(n2)]
        for key, val in sigma.coeffs.items():
            for i, j, l in permutations(key):
                lower[i][l][j] = sort_indices((i, j, l))[1] * half * val
        return [linalg.mat_add(lc[i], linalg.mat_mul(self.g.inverse, lower[i]))
                for i in range(n2)]

    def is_vaisman(self):
        """LCK with Levi-Civita-parallel Lee form; returns (bool, note)."""
        if not self.is_lck_direct():
            return False, "not LCK"
        theta = self.lee_form()
        comps = [theta.get((i,)) for i in range(self.dim)]
        lc = self.levi_civita()
        parallel = all(
            is_zero(sum(lc[i][k][j] * comps[k] for k in range(self.dim)))
            for i in range(self.dim) for j in range(self.dim))
        if theta.is_zero():
            return parallel, "Kahler"
        return parallel, "parallel" if parallel else "theta not parallel"

    # -- curvature ---------------------------------------------------------------
    def bismut_ricci_oracle(self):
        """rho^B by the curvature trace over an orthonormal frame."""
        return self._memo("rho", self._compute_rho)

    def _compute_rho(self):
        gamma = self.bismut_connection()
        weight = linalg.mat_mul(self.g.inverse, self._jtg)
        # tr(W R(e_i, e_j)) = tr(P_i G_j) - tr(P_j G_i) - sum_t c^t_ij tr(P_t)
        p = [linalg.mat_mul(weight, gi) for gi in gamma]
        return KForm(2, self.dim, _rho_coefficients(p, gamma, self.L.brackets),
                     kind=self.L.kind)


def _rho_coefficients(p, gamma, brackets):
    """The nonzero rho^B coefficients -1/2 tr(W R(e_i, e_j)), i < j, from
    P_i, G_i and the structure constants.  Exact families are each cleared
    over one common denominator, so every trace is an integer dot product
    of flattened numerators and each coefficient becomes one Fraction; on
    floats the same sums run on the entries themselves."""
    n2 = len(p)
    (dp, pn), (dg, gn), (dc, rows) = linalg._numerators(
        [row for pi in p for row in pi], [row for gi in gamma for row in gi],
        list(brackets.values()))
    consts = dict(zip(brackets, rows))
    # tr(P_i G_j) = <P_i, G_j^t> entrywise
    flat_p = [[x for row in pn[i * n2:(i + 1) * n2] for x in row] for i in range(n2)]
    flat_gt = [[x for col in zip(*gn[j * n2:(j + 1) * n2]) for x in col] for j in range(n2)]
    tau = [sum(fp[::n2 + 1]) for fp in flat_p]
    keys = [(i, j) for i in range(n2) for j in range(i + 1, n2)]
    nums = [dc * (sum(map(mul, flat_p[j], flat_gt[i])) - sum(map(mul, flat_p[i], flat_gt[j])))
            + dg * sum(map(mul, consts.get((i, j), ()), tau)) for i, j in keys]
    (vals,) = linalg._over([nums], 2 * dp * dg * dc)
    return {key: val for key, val in zip(keys, vals) if not is_zero(val)}


def nijenhuis(J: ComplexStructure, L: LieAlgebra):
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis pairs
    i < j, nonzero values only: N(e_i, e_j) is column j of
    [ad_{Je_i} - J ad_{e_i}, J] (J^2 = -Id), one commutator per e_i.  With
    exact J and L, J and the ad table are each over one denominator, so the
    commutator is an integer matrix over dj^2 da, tested for zero columns
    before any Fraction is built; on floats the columns are tested within
    the tolerance."""
    n = L.dim
    (dj, jn), (da, an) = linalg._numerators(
        J.matrix, [row for i in range(n) for row in L.ad_basis(i)])
    ads = [an[i * n:(i + 1) * n] for i in range(n)]
    # row i of J^t [ad_{e_1}; ...; ad_{e_n}] (flattened) is ad_{Je_i}
    ad_j = linalg._row_sums(linalg.transpose(jn), [[x for row in a for x in row] for a in ads], 0)
    den = dj * dj * da
    out = {}
    for i in range(n):
        p = linalg.mat_sub([ad_j[i][r * n:(r + 1) * n] for r in range(n)],
                           linalg._row_sums(jn, ads[i], 0))
        m = linalg.mat_sub(linalg._row_sums(p, jn, 0), linalg._row_sums(jn, p, 0))
        for j in range(i + 1, n):
            column = [row[j] for row in m]
            if not linalg.is_zero_vector(column):
                out[(i, j)] = linalg._over([column], den)[0]
    return out


def is_integrable(J: ComplexStructure, L: LieAlgebra) -> bool:
    """N_J = 0, decided once per J and cached on L."""
    return L.memo(("integrable", J.J), lambda: not nijenhuis(J, L))


def levi_civita(L: LieAlgebra, g: Metric):
    """Koszul connection on left-invariant fields; Gamma[i] maps Y to D_{e_i}Y."""
    ginv = g.inverse
    if ginv is None:
        raise HermitianError("NOT_POSITIVE_DEFINITE", "metric is degenerate")
    n = L.dim
    kind = L.kind
    half = coerce(1, kind) / 2
    # low[i][j][l] = g([e_i, e_j], e_l) = [e_i, e_j] . (column l of G), one
    # row per nonzero bracket; on the float path G is symmetric only within
    # eps, so the column, not the row
    gcols = linalg.transpose(g.matrix)
    low = [[[zero(kind)] * n] * n for _ in range(n)]
    for (i, j), vec in L.brackets.items():
        low[i][j] = [linalg.dot(vec, col) for col in gcols]
        low[j][i] = [-x for x in low[i][j]]
    gammas = []
    for i in range(n):
        lower = [[half * (low[i][j][l] - low[j][l][i] + low[l][i][j]) for j in range(n)]
                 for l in range(n)]
        gammas.append(linalg.mat_mul(ginv, lower))
    return gammas


def torsion_tensor(gamma, L: LieAlgebra):
    """T(e_i, e_j) = D_i e_j - D_j e_i - [e_i, e_j]."""
    n = L.dim
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            col_ij = [gamma[i][k][j] for k in range(n)]
            col_ji = [gamma[j][k][i] for k in range(n)]
            vec = linalg.vec_sub(linalg.vec_sub(col_ij, col_ji), L.basis_bracket(i, j))
            out[(i, j)] = vec
    return out


def torsion_is_totally_skew(gamma, L: LieAlgebra, g: Metric) -> bool:
    """g(T(X, Y), Z) alternating in all three arguments.

    Antisymmetry in (X, Y) is structural, so it suffices that the lowered
    tensor kills repeated indices and is antisymmetric in the last two slots.
    """
    n = L.dim
    gm = g.matrix
    tor = torsion_tensor(gamma, L)
    lowered = {key: linalg.mat_vec(gm, vec) for key, vec in tor.items()}
    for (i, j), gv in lowered.items():
        if not (is_zero(gv[i]) and is_zero(gv[j])):
            return False
        for l in range(n):
            if l in (i, j):
                continue
            pair = (i, l) if i < l else (l, i)
            sgn = 1 if i < l else -1
            if not is_zero(gv[l] + sgn * lowered[pair][j]):
                return False
    return True


def connection_preserves_metric(gamma, g: Metric) -> bool:
    """D g = 0: with constant g this is Gamma_i^t G + G Gamma_i = 0."""
    gm = g.matrix
    for gi in gamma:
        m = linalg.mat_mul(gm, gi)
        if not linalg.mat_eq(m, linalg.mat_scale(-1, linalg.transpose(m))):
            return False
    return True


def connection_preserves_tensor(gamma, t) -> bool:
    """D t = 0 for an endomorphism t: [Gamma_i, t] = 0 for all i."""
    return all(linalg.is_zero_matrix(linalg.commutator(gi, t)) for gi in gamma)


def curvature_operator(gamma, L: LieAlgebra, i, j):
    """R(e_i, e_j) = [Gamma_i, Gamma_j] - Gamma_{[e_i, e_j]}."""
    r = linalg.commutator(gamma[i], gamma[j])
    bij = L.basis_bracket(i, j)
    for t, c in enumerate(bij):
        if not is_zero(c):
            r = linalg.mat_sub(r, linalg.mat_scale(c, gamma[t]))
    return r


def riemann_is_flat(gamma, L: LieAlgebra) -> bool:
    n = L.dim
    return all(
        linalg.is_zero_matrix(curvature_operator(gamma, L, i, j))
        for i in range(n) for j in range(i + 1, n))
