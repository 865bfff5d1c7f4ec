"""Validated Lie algebra values and the codimension-one abelian ideal probe.

Structure constants are held sparsely: brackets[(i, j)] with i < j maps to
the coefficient vector of [e_i, e_j].  Validation enforces antisymmetry by
construction and checks the Jacobi identity, exactly on the rational path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import EXACT, coerce, is_zero, kind_of, zero
from . import linalg
from .forms import KForm


class LieAlgebraError(ValueError):
    def __init__(self, code, message, witness=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.witness = witness


@dataclass(frozen=True)
class Subspace:
    """Span of a list of vectors (kept linearly independent)."""

    dim: int
    vectors: tuple
    ambiguous: bool = False

    def contains(self, v) -> bool:
        if not self.vectors:
            return linalg.is_zero_vector(v)
        m = linalg.transpose(list(self.vectors))
        return linalg.solve_general(m, list(v)) is not None


class LieAlgebra:
    """Immutable Lie algebra given by validated structure constants."""

    def __init__(self, dim, brackets, kind=None, _validated=False):
        self.dim = dim
        k = kind
        clean = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise LieAlgebraError("INDEX_RANGE", f"bracket index {(i, j)} out of range")
            if i == j:
                continue
            if k is None:
                for x in vec:
                    k = kind_of(x)
                    break
            vec = [coerce(x, k if k is not None else EXACT) for x in vec]
            if len(vec) != dim:
                raise LieAlgebraError("DIMENSION", "bracket vector has wrong length")
            if all(is_zero(x) for x in vec):
                continue
            if i < j:
                clean[(i, j)] = vec
            else:
                clean[(j, i)] = [-x for x in vec]
        self.kind = k if k is not None else EXACT
        self.brackets = clean
        self._cache = {}
        if not _validated:
            self._check_jacobi()

    # -- construction -------------------------------------------------------
    @classmethod
    def from_tensor(cls, c):
        """Validate a cubic tensor c[i][j][k] = coefficient of e_k in [e_i,e_j]."""
        dim = len(c)
        kind = None
        for i in range(dim):
            for j in range(dim):
                for x in c[i][j]:
                    if kind is None:
                        kind = kind_of(x)
        kind = kind or EXACT
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    s = coerce(c[i][j][k], kind) + coerce(c[j][i][k], kind)
                    if not is_zero(s):
                        raise LieAlgebraError(
                            "ANTISYMMETRY_VIOLATION",
                            f"c^{k}_{{{i},{j}}} + c^{k}_{{{j},{i}}} = {s}",
                            witness=(i, j, k))
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                vec = [coerce(x, kind) for x in c[i][j]]
                if any(not is_zero(x) for x in vec):
                    brackets[(i, j)] = vec
        return cls(dim, brackets, kind=kind)

    @classmethod
    def abelian(cls, dim, kind=EXACT):
        return cls(dim, {}, kind=kind, _validated=True)

    @classmethod
    def semidirect(cls, D):
        """R^k x|_D R: [e_last, e_j] = D e_j for the first k basis vectors."""
        k = len(D)
        kind = linalg.matrix_kind(D)
        brackets = {}
        for j in range(k):
            col = [-D[t][j] for t in range(k)] + [zero(kind)]
            if any(not is_zero(x) for x in col):
                brackets[(j, k)] = col
        return cls(k + 1, brackets, kind=kind, _validated=True)

    # -- bracket machinery ----------------------------------------------------
    def basis_bracket(self, i, j):
        if i == j:
            return linalg.zero_vector(self.dim, self.kind)
        if i < j:
            vec = self.brackets.get((i, j))
            return list(vec) if vec else linalg.zero_vector(self.dim, self.kind)
        vec = self.brackets.get((j, i))
        return [-x for x in vec] if vec else linalg.zero_vector(self.dim, self.kind)

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        out = linalg.zero_vector(self.dim, self.kind)
        for (i, j), vec in self.brackets.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c == 0:
                continue
            for t, v in enumerate(vec):
                if v != 0:
                    out[t] += c * v
        return out

    def ad(self, x):
        """Matrix of ad_x = [x, .]."""
        if len(x) != self.dim:
            raise LieAlgebraError("DIMENSION", "vector length does not match algebra")
        return linalg.transpose([self.bracket(x, e)
                                 for e in linalg.idmat(self.dim, self.kind)])

    def ad_basis(self, i):
        return self.ad(linalg.idmat(self.dim, self.kind)[i])

    # -- invariants -----------------------------------------------------------
    def _check_jacobi(self):
        w = self.jacobi_witness()
        if w is not None:
            i, j, k, res = w
            raise LieAlgebraError(
                "JACOBI_VIOLATION",
                f"cyclic sum on (e_{i + 1}, e_{j + 1}, e_{k + 1}) is {res}",
                witness=(i, j, k))

    def jacobi_witness(self):
        """First basis triple violating Jacobi, or None."""
        units = linalg.idmat(self.dim, self.kind)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = self.basis_bracket(i, j)
                for k in range(j + 1, self.dim):
                    res = linalg.vec_add(
                        self.bracket(bij, units[k]),
                        linalg.vec_add(self.bracket(self.basis_bracket(j, k), units[i]),
                                       self.bracket(self.basis_bracket(k, i), units[j])))
                    if not linalg.is_zero_vector(res):
                        return (i, j, k, res)
        return None

    def is_unimodular(self) -> bool:
        return all(is_zero(linalg.trace(self.ad_basis(i))) for i in range(self.dim))

    def derived_algebra(self) -> Subspace:
        vecs = [list(v) for _, v in sorted(self.brackets.items())]
        basis = linalg.column_space_basis(vecs)
        return Subspace(len(basis), tuple(tuple(v) for v in basis))

    def memo(self, key, compute):
        """compute() once per key for this algebra, then the cached value."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def coframe_differentials(self):
        """de^k as 2-forms, cached; de^k(e_i, e_j) = -c^k_{ij}."""
        return self.memo("coframe", lambda: tuple(
            KForm(2, self.dim, {key: -vec[k] for key, vec in self.brackets.items()
                                if not is_zero(vec[k])}, kind=self.kind)
            for k in range(self.dim)))

    def change_basis(self, s):
        """Algebra in the new basis b_j = sum_i s[i][j] e_i."""
        sinv = linalg.inverse(s)
        if sinv is None:
            raise LieAlgebraError("SINGULAR", "basis change matrix is singular")
        new = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bi = [s[t][i] for t in range(self.dim)]
                bj = [s[t][j] for t in range(self.dim)]
                vec = linalg.mat_vec(sinv, self.bracket(bi, bj))
                if any(not is_zero(x) for x in vec):
                    new[(i, j)] = vec
        return LieAlgebra(self.dim, new, kind=self.kind, _validated=True)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, nnz={len(self.brackets)}, kind={self.kind})"


def find_codim1_abelian_ideal(L: LieAlgebra):
    """Hyperplane n with [n, n] = 0 and [L, n] in n, or None.

    A hyperplane containing [L, L] is automatically an ideal, so the search
    solves, for each normalized pivot position of the defining covector xi,
    the linear system expressing that the bracket factors through xi.
    Scanning pivots from the highest index down makes span(e_1 .. e_{d-1})
    the canonical answer for the abelian algebra.  When the solution is not
    unique (nilpotent case) the first solution is returned flagged ambiguous.
    """
    n = L.dim
    kind = L.kind
    derived = L.derived_algebra()
    solutions = []
    total_freedom = 0
    for t in range(n - 1, -1, -1):
        # Branch: xi_t = 1 and xi_s = 0 for s > t; unknowns are xi_0 .. xi_{t-1}.
        rows = []
        rhs = []
        # ideal condition: xi annihilates [L, L]
        for vec in derived.vectors:
            rows.append([coerce(vec[s], kind) for s in range(t)])
            rhs.append(-coerce(vec[t], kind))
        # abelian condition with the auxiliary endomorphism eliminated:
        # c^k_{ij} = xi_i c^k_{tj} - xi_j c^k_{ti} for all i < j, both != t,
        # where forced-zero components of xi simply drop out.
        for i in range(n):
            if i == t:
                continue
            for j in range(i + 1, n):
                if j == t:
                    continue
                cij = L.basis_bracket(i, j)
                cti = L.basis_bracket(t, i)
                ctj = L.basis_bracket(t, j)
                for k in range(n):
                    coeffs = [zero(kind) for _ in range(t)]
                    if i < t:
                        coeffs[i] += ctj[k]
                    if j < t:
                        coeffs[j] -= cti[k]
                    rows.append(coeffs)
                    rhs.append(cij[k])
        xi = linalg.idmat(n, kind)[t]
        if t > 0:
            aug = [row + [val] for row, val in zip(rows, rhs)]
            red, pivots = linalg.rref(aug)
            if t in pivots:
                continue  # inconsistent branch
            freedom = t - len(pivots)
            for ridx, pc in enumerate(pivots):
                xi[pc] = red[ridx][t]
        else:
            if any(not is_zero(v) for v in rhs):
                continue
            freedom = 0
        solutions.append((t, xi, freedom))
        total_freedom += freedom
    if not solutions:
        return None
    t, xi, freedom = solutions[0]
    ambiguous = total_freedom > 0 or len(solutions) > 1
    basis = linalg.nullspace([xi])
    ideal = Subspace(len(basis), tuple(tuple(v) for v in basis), ambiguous=ambiguous)
    # direct re-check guards against elimination bugs
    defect = abelian_ideal_defect(L, ideal.vectors)
    if defect is not None:
        raise LieAlgebraError("INTERNAL", f"ideal candidate is {defect}")
    return ideal


def abelian_ideal_defect(L: LieAlgebra, vectors):
    """Why span(vectors) is not an abelian ideal of codimension one in L:
    "not abelian", "not a hyperplane" or "not an ideal"; None when it is.

    The vectors must be a basis of the hyperplane.  The hyperplane is
    the kernel of the one covector xi vanishing on them, so it is an
    ideal iff xi([e_i, v]) = 0 for every basis vector e_i and every v.
    """
    vecs = [list(v) for v in vectors]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if not linalg.is_zero_vector(L.bracket(vecs[a], vecs[b])):
                return "not abelian"
    units = linalg.idmat(L.dim, L.kind)
    # the covectors vanishing on no vectors at all are the whole dual space
    kernel = linalg.nullspace(vecs) if vecs else units
    if len(vecs) != L.dim - 1 or len(kernel) != 1:
        return "not a hyperplane"
    xi = kernel[0]
    for e in units:
        for v in vecs:
            if not is_zero(linalg.dot(xi, L.bracket(e, v))):
                return "not an ideal"
    return None
