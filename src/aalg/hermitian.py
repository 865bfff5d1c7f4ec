"""Hermitian structures on Lie algebras: integrability, Lee form, the
direct metric predicates, Levi-Civita and Bismut connections, the
Bismut-Ricci curvature oracle and Levi-Civita flatness.

The Nijenhuis tensor is read off the nonzero blocks [e_a, e_b] of the
algebra's integer table of ad^t (``LieAlgebra.constants``, so a second J
clears only J) and the nonzero entries of J, pair by pair: N(e_i, e_j) is
formed only when some bracket reaches the pair, which on an almost
abelian table (n - 1 nonzero brackets) and a signed-permutation J is
O(n) pairs.  One code forms and zero-tests the pairs for both scalar
kinds: for exact J and L on integer numerators, so that only nonzero
pairs become Fractions; for floats on the entries, within the tolerance
scaled to N's terms, ``scalars.scaled_eps`` over (c, J, J).

Conventions, fixed package-wide and spelled out in the README:

* fundamental form  omega(X, Y) = g(JX, Y);
* d alpha (X, Y) = -alpha([X, Y]);
* d^c omega = -d omega (J., J., J.);
* Bismut connection  g(D^B_X Y, Z) = g(D_X Y, Z) + 1/2 d omega(JX, JY, JZ),
  the unique sign for which D^B g = 0, D^B J = 0 and the torsion is a
  3-form under the two conventions above.  The torsion term is read from
  the nonzero coefficients of sigma = d omega(J., J., J.) = -d^c omega, each
  written to its six permutations; d^c omega itself is the pullback of
  d omega along J, three one-index contractions of its antisymmetric tensor
  with the sparse integer rows of J (see ``forms``);
* Bismut-Ricci  rho^B(X, Y) = -1/2 sum_i g(R^B(X, Y) f_i, J f_i) over a
  g-orthonormal frame, evaluated basis-free as -1/2 tr(W R(e_i, e_j)) with
  W = g^{-1} J^t g, expanded as tr(P_i G_j) - tr(P_j G_i) - sum_t c^t_ij
  tr(P_t), P_i = W G_i, for the Bismut tables G_i: O(n^4) in all, with no
  curvature matrix.  Its one input is the lowered table T_i[l][j] / d =
  g(D^B_{e_i} e_j, e_l), integers over one denominator (Koszul plus 1/2
  sigma), so G_i = g^{-1} T_i / d and P_i = g^{-1} J^t T_i / d are integer
  products with the integer views of g^{-1} and g^{-1} J^t, the traces
  integer sums, and only rho^B's coefficients become Fractions (floats
  pass with d = 2.0); no connection matrix is built;
* Levi-Civita flatness (``riemann_is_flat``, the check of a hyperkahler
  witness) reads the same integer tables: Gamma_i = G_i / D with
  G_i = g^{-1} T_i, and R(e_i, e_j) = 0 is dc (G_i G_j - G_j G_i) -
  D sum_t c^t_ij G_t = 0, two integer products per pair i < j, summed over
  the nonzero entries and rows only and zero-tested row by row up to the
  first nonzero row (floats within scaled_eps(c, G, G)); no connection or
  curvature matrix is built;
* Lee form  theta(e_k) = 1/2 sum_{p,q} M_pq d omega(e_p, e_q, e_k) with
  M = g^{-1} J^t, each coefficient of d omega entering in its six orderings,
  summed on the integer numerators of M and d omega; balanced is theta = 0
  (wedging with omega^(n-1) is injective on 1-forms).  In dimension 2,
  d omega is a 3-form, so theta = 0 and every predicate on it holds.

A structure checks and clears its (J, g) once, in the constructor, and
rejects a g with g(J., J.) != g as J_NOT_COMPATIBLE.  Connection tables,
the integrability of J, d omega, the Lee form and d theta are computed
once per structure and cached on the instance, the integer view (d, rows)
of the metric's inverse once per metric (each under the tolerance in
force at that first call); instances are otherwise immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, permutations
from operator import mul

from .scalars import EXACT, is_zero, one, scaled_eps, tolerance
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
        # J^2 + Id = 0 on the integer numerators of J
        ((d, jn),) = linalg._numerators(j)
        if not linalg.is_zero_matrix(linalg.mat_shift(linalg._row_sums(jn, jn, 0), d * d)):
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
        """g^{-1} as integer numerators over one denominator, (d, rows)
        (floats over d = 1.0; None when singular), computed once."""
        inv = linalg.inverse(self.matrix)
        return None if inv is None else linalg._numerators(inv)[0]


class HermitianStructure:
    """A Lie algebra with a compatible (J, g); omega = g(J., .).

    The one place a (J, g) pair is checked and cleared: g and J are cleared
    to integers once, and g(J., J.) = g is decided as the antisymmetry of
    the integer product J^t G, the matrix of omega.  ``cleared`` keeps
    ((dg, G), (dj, J), J^t G), the product over dg dj, for extraction and
    g^{-1} J^t."""

    def __init__(self, L: LieAlgebra, J: ComplexStructure, g: Metric):
        if len(J.J) != L.dim or len(g.g) != L.dim:
            raise HermitianError("DIMENSION", "J or g dimension does not match the algebra")
        if L.dim % 2 != 0:
            raise HermitianError("DIMENSION", "Hermitian structures need even dimension")
        if linalg.matrix_kind(J.J) != L.kind or linalg.matrix_kind(g.g) != L.kind:
            raise HermitianError("KIND_MISMATCH", f"J and g must be {L.kind}, as the algebra is")
        n = L.dim
        (dg, gn), (dj, jn) = linalg._numerators(g.matrix, J.matrix)
        jtg = linalg._row_sums(linalg.transpose(jn), gn, 0)
        if not all(is_zero(jtg[i][j] + jtg[j][i]) for i in range(n) for j in range(i + 1)):
            raise HermitianError("J_NOT_COMPATIBLE", "g(J., J.) != g")
        self.L = L
        self.J = J
        self.g = g
        self.cleared = (dg, gn), (dj, jn), jtg
        om = linalg._over(jtg, dg * dj)
        coeffs = {(i, j): om[i][j] for i in range(n) for j in range(i + 1, n)
                  if not is_zero(om[i][j])}
        self.omega = KForm(2, n, coeffs, kind=L.kind)
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

    @cached_property
    def _ginv_jt(self):
        """g^{-1} J^t as (d, integer rows), for the Lee form and the rho^B oracle."""
        di, gi = self.g.inverse
        _, (dj, jn), _ = self.cleared
        return di * dj, linalg._row_sums(gi, linalg.transpose(jn), 0)

    # -- integrability --------------------------------------------------------
    @cached_property
    def integrable(self) -> bool:
        """N_J = 0, decided once per structure."""
        return not nijenhuis(self.J, self.L)

    def _require_integrable(self):
        if not self.integrable:
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
        domega = self.domega().coeffs
        dm, mn = self._ginv_jt
        ((dw, (wn,)),) = linalg._numerators([list(domega.values())])
        theta = [0] * self.dim
        for key, w in zip(domega, wn):
            for p, q, k in permutations(key):
                theta[k] += sort_indices((p, q, k))[1] * mn[p][q] * w
        return KForm.from_vector(linalg._over([theta], 2 * dm * dw)[0])

    def dtheta(self):
        return self._memo("dtheta", lambda: exterior_derivative(self.lee_form(), self.L))

    # -- direct predicates ------------------------------------------------------
    def is_kahler_direct(self) -> bool:
        self._require_integrable()
        return self.domega().is_zero()

    def is_balanced_direct(self) -> bool:
        """d(omega^(n-1)) = 0, i.e. theta = 0; always true in dim 2."""
        self._require_integrable()
        return self.n < 2 or self.lee_form().is_zero()

    def is_lck_direct(self) -> bool:
        """d theta = 0 and (n - 1) d omega = theta ^ omega; always true in dim 2."""
        self._require_integrable()
        if self.n < 2:
            return True
        if not self.dtheta().is_zero():
            return False
        lhs = self.domega().scale(self.n - 1)
        rhs = wedge(self.lee_form(), self.omega)
        return lhs.equals(rhs)

    def is_lcb_direct(self) -> bool:
        """d theta = 0; always true in dim 2."""
        self._require_integrable()
        return self.n < 2 or self.dtheta().is_zero()

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

    def _bismut_lowered(self):
        """:func:`_lowered` with sigma(X, Y, Z) = d omega(JX, JY, JZ)."""
        self._require_integrable()
        return self._memo("lowered", lambda: _lowered(self.L, self.g, (-self.dc_omega()).coeffs))

    def _compute_bismut(self):
        return _raised(self.g, *self._bismut_lowered())

    def is_vaisman(self):
        """LCK with Levi-Civita-parallel Lee form; returns (bool, note)."""
        if not self.is_lck_direct():
            return False, "not LCK"
        if self.n < 2:
            return True, "Kahler"
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
        d, t = self._bismut_lowered()
        (dm, mn), (di, gi) = self._ginv_jt, self.g.inverse
        # G_i = g^{-1} T_i / d and P_i = W G_i = g^{-1} J^t T_i / d
        p = (dm * d, [linalg._row_sums(mn, ti, 0) for ti in t])
        gamma = (di * d, [linalg._row_sums(gi, ti, 0) for ti in t])
        return KForm(2, self.dim, _rho_coefficients(p, gamma, self.L.constants), kind=self.L.kind)


def _rho_coefficients(p, gamma, constants):
    """The nonzero rho^B coefficients -1/2 tr(W R(e_i, e_j)), i < j, from
    (d, numerators) pairs, the tables P_i and G_i (products with the one
    lowered table of :func:`_lowered`), and the algebra's cleared
    constants.  Each trace is an integer dot product and each coefficient
    one Fraction; on floats (float d) the same sums run on the entries."""
    (dp, pn), (dg, gn), (dc, _, table) = p, gamma, constants
    n2 = len(pn)
    # tr(P_i G_j) = <P_i, G_j^t> entrywise
    flat_p = [[x for row in pi for x in row] for pi in pn]
    flat_gt = [[x for col in zip(*gi) for x in col] for gi in gn]
    tau = [sum(fp[::n2 + 1]) for fp in flat_p]
    keys = [(i, j) for i in range(n2) for j in range(i + 1, n2)]
    nums = [dc * (sum(map(mul, flat_p[j], flat_gt[i])) - sum(map(mul, flat_p[i], flat_gt[j])))
            + dg * sum(map(mul, table[i][j * n2:(j + 1) * n2], tau)) for i, j in keys]
    (vals,) = linalg._over([nums], 2 * dp * dg * dc)
    return {key: val for key, val in zip(keys, vals) if not is_zero(val)}


def nijenhuis(J: ComplexStructure, L: LieAlgebra):
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis pairs
    i < j, nonzero values only, pair by pair from the nonzero brackets.

    With K_i[b] = [Je_i, e_b], summed over the nonzero J_ai in increasing a
    from the nonzero blocks [e_a, e_b] of the algebra's table
    (``LieAlgebra.constants``), [e_i, Je_j] = -K_j[i] and

        N(e_i, e_j) = sum_b J_bj K_i[b] - [e_i, e_j] - J (K_i[j] - K_j[i]),

    summed in that order: over the nonzero J_bj in increasing b, then J
    over the nonzero entries of K_i[j] - K_j[i] in increasing order.  A
    pair is formed only when some term can be nonzero: K_i meets the
    support of Je_j, or K_i[j], K_j[i] or [e_i, e_j] is there.  With exact
    J and L each vector is integer over dj^2 dc, tested for zero before any
    Fraction is built; on floats the entries are compared within
    scaled_eps(c, J, J), the scale of N's terms."""
    n = L.dim
    dc, rows, table = L.constants
    ((dj, jn),) = linalg._numerators(J.matrix)
    zeros = [0] * n
    # blocks[a][b] = [e_a, e_b] over dc, for the b of the nonzero entries of row a
    cells = range(n * n)
    blocks = [{b: flat[b * n:(b + 1) * n] for b in {p // n for p in compress(cells, flat)}}
              for flat in table]
    # cols[i]: the nonzero (a, J_ai) of Je_i; support[b]: the j with J_bj != 0
    cols = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*jn)]
    support = [[j for j, x in enumerate(row) if x] for row in jn]
    # K[i][b] = [Je_i, e_b] over dj dc
    K = []
    for col in cols:
        k = {}
        for a, x in col:
            for b, block in blocks[a].items():
                k[b] = [s + x * y for s, y in zip(k.get(b, zeros), block)]
        K.append(k)
    reached = [set(k).union(blocks[i], *(support[b] for b in k)) for i, k in enumerate(K)]
    for j, k in enumerate(K):
        for i in k:
            reached[i].add(j)
    dd = dj * dj
    out = {}
    with tolerance(scaled_eps(rows, jn, jn)):
        for i, ki in enumerate(K):
            for j in sorted(j for j in reached[i] if j > i):
                v = zeros
                for b, x in cols[j]:
                    if b in ki:
                        v = [s + x * y for s, y in zip(v, ki[b])]
                w = [s - t for s, t in zip(ki.get(j, zeros), K[j].get(i, zeros))]
                v = [s - dd * c for s, c in zip(v, blocks[i].get(j, zeros))]
                # v is a fresh list now: J w is subtracted in place
                for t, y in enumerate(w):
                    if y:
                        for r, x in cols[t]:
                            v[r] -= x * y
                if not linalg.is_zero_vector(v):
                    out[(i, j)] = linalg._over([v], dd * dc)[0]
    return out


def levi_civita(L: LieAlgebra, g: Metric):
    """Koszul connection on left-invariant fields; Gamma[i] maps Y to D_{e_i}Y."""
    return _raised(g, *_lowered(L, g, {}))


def _lowered(L: LieAlgebra, g: Metric, sigma):
    """(d, T) with T[i][l][j] / d = 1/2 (g([e_i, e_j], e_l) -
    g([e_j, e_l], e_i) + g([e_l, e_i], e_j) + sigma(e_i, e_j, e_l)): Koszul's
    g(D_{e_i} e_j, e_l) plus 1/2 the 3-form whose nonzero coefficients are
    sigma, on the numerators of g and sigma and the algebra's cleared
    constants."""
    n = L.dim
    dc, cn, _ = L.constants
    (dg, gn), (ds, (sn,)) = linalg._numerators(g.matrix, [list(sigma.values())])
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    # row of [e_i, e_j] times G: g([e_i, e_j], e_m) over dc dg, by the column
    # of G (on the float path G is symmetric only within eps); each nonzero
    # one is a Koszul term of T_p[m][q], T_m[p][q] and T_q[p][m], for
    # [e_p, e_q] = [e_i, e_j] and then [e_j, e_i] = -[e_i, e_j]
    for (i, j), row in zip(L.brackets, linalg._row_sums(cn, gn, 0)):
        for m, x in enumerate(row):
            if x:
                for p, q, y in ((i, j, ds * x), (j, i, -ds * x)):
                    for a, b, c in ((p, m, q), (m, p, q), (q, p, m)):
                        t[a][b][c] += y
    for key, x in zip(sigma, sn):
        for i, j, l in permutations(key):
            t[i][l][j] += sort_indices((i, j, l))[1] * dc * dg * x
    return 2 * dc * dg * ds, t


def _gamma_numerators(g: Metric, d, t):
    """(D, G) with Gamma_i = G_i / D: G_i = g^{-1} T_i on the integer view of
    g^{-1} and the integer tables T of :func:`_lowered` (floats over a
    float D); a zero T_i is its own G_i."""
    di, gi = g.inverse
    return di * d, [linalg._row_sums(gi, ti, 0) if any(map(any, ti)) else ti for ti in t]


def _raised(g: Metric, d, t):
    """Gamma_i = g^{-1} T_i / d for the integer tables T of :func:`_lowered`."""
    dd, gamma = _gamma_numerators(g, d, t)
    return [linalg._over(gn, dd) for gn in gamma]


def riemann_is_flat(L: LieAlgebra, g: Metric) -> bool:
    """R = 0 for the Levi-Civita connection of g, decided on the integer
    tables Gamma_i = G_i / D of :func:`_gamma_numerators`: with the
    algebra's constants c^t_ij over dc, R(e_i, e_j) = [Gamma_i, Gamma_j] -
    sum_t c^t_ij Gamma_t vanishes exactly when

        dc (G_i G_j - G_j G_i) - D sum_t c^t_ij G_t = 0,

    tested row by row, pair by pair i < j, up to the first nonzero row: two
    integer products per pair and no Fraction.  Row k is summed from the
    nonzero entries of row k of G_i and G_j over the nonzero rows they
    meet, so rows and pairs that no nonzero entry reaches cost nothing.
    Exact rows are zero-tested on Python ints; float rows (dc = 1.0,
    D = 2.0) within scaled_eps(c, G, G), the scale of the terms."""
    n = L.dim
    dd, gamma = _gamma_numerators(g, *_lowered(L, g, {}))
    dc, rows, table = L.constants
    # nz[i][k]: the (l, dc G_i[k][l]) of the nonzero entries of row k of G_i
    nz = [[[(l, dc * x) for l, x in enumerate(row) if x] for row in gi] for gi in gamma]
    nonzero = [any(r) for r in nz]
    zeros = [0] * n
    flat = [row for gi in gamma for row in gi]
    with tolerance(scaled_eps(rows, flat, flat)):
        for i in range(n):
            for j in range(i + 1, n):
                terms = [(t, dd * c) for t, c in enumerate(table[i][j * n:(j + 1) * n])
                         if c and nonzero[t]]
                if not (terms or nonzero[i] and nonzero[j]):
                    continue
                gi, gj, ni, nj = gamma[i], gamma[j], nz[i], nz[j]
                for k in range(n):
                    v = zeros
                    for l, x in ni[k]:
                        if nj[l]:
                            v = [s + x * y for s, y in zip(v, gj[l])]
                    for l, x in nj[k]:
                        if ni[l]:
                            v = [s - x * y for s, y in zip(v, gi[l])]
                    for t, c in terms:
                        if nz[t][k]:
                            v = [s - c * y for s, y in zip(v, gamma[t][k])]
                    if v is not zeros and any(v) and not linalg.is_zero_vector(v):
                        return False
    return True
