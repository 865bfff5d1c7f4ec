"""Validated Lie algebra values and the codimension-one abelian ideal probe.

Structure constants are held sparsely: brackets[(i, j)] with i < j maps to
the coefficient vector of [e_i, e_j].  Basis brackets read them through the
table of ad matrices built once per algebra (entry (k, j) of ad_{e_i} is
c^k_ij), and so does the Nijenhuis tensor in ``hermitian``; ad_x
accumulates the nonzero constants directly.  Validation enforces
antisymmetry by construction and checks the Jacobi identity as d^2 = 0 on
the coframe, exactly on the rational path and on floats against
eps max(1, max |c|)^2, the scale of the cyclic sums.  A hyperplane is an
ideal iff it contains [L, L], so the ideal test evaluates its covector on
the brackets; the ideal search solves one linear system in the covector,
built from the brackets and the coframe differentials.
:func:`abelian_ideal` validates a declared ideal or searches for one, and
caches the answer on the algebra once per declaration.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product

from .scalars import EXACT, coerce, current_eps, is_zero, kind_of, tolerance, zero
from . import linalg
from .forms import KForm, exterior_derivative, sort_indices


class LieAlgebraError(ValueError):
    def __init__(self, code, message, witness=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
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
        kind = next((kind_of(x) for plane in c for vec in plane for x in vec), EXACT)
        for i, j, k in product(range(dim), repeat=3):
            s = coerce(c[i][j][k], kind) + coerce(c[j][i][k], kind)
            if not is_zero(s):
                raise LieAlgebraError(
                    "ANTISYMMETRY_VIOLATION",
                    f"c^{k}_{{{i},{j}}} + c^{k}_{{{j},{i}}} = {s}",
                    witness=(i, j, k))
        return cls(dim, {(i, j): c[i][j] for i in range(dim) for j in range(i + 1, dim)},
                   kind=kind)

    @classmethod
    def abelian(cls, dim, kind=EXACT):
        return cls(dim, {}, kind=kind, _validated=True)

    @classmethod
    def semidirect(cls, D):
        """R^k x|_D R: [e_last, e_j] = D e_j for the first k basis vectors."""
        k = len(D)
        kind = linalg.matrix_kind(D)
        brackets = {(j, k): [-D[t][j] for t in range(k)] + [zero(kind)] for j in range(k)}
        return cls(k + 1, brackets, kind=kind, _validated=True)

    # -- bracket machinery ----------------------------------------------------
    def basis_bracket(self, i, j):
        """[e_i, e_j]: column j of ad_{e_i}."""
        return [row[j] for row in self.ad_basis(i)]

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
        """Matrix of ad_x = [x, .] = sum_i x_i ad_{e_i}, accumulating only the
        nonzero constants: entry (k, j) adds x_i c^k_ij in increasing i, so
        float sums are those of the dense sum and absent entries stay +0.0."""
        if len(x) != self.dim:
            raise LieAlgebraError("DIMENSION", "vector length does not match algebra")
        out = linalg.zeros(self.dim, self.dim, self.kind)
        # sorted pairs: column j sees (i, j) for i < j, then (j, i') for i' > j
        for (i, j), vec in sorted(self.brackets.items()):
            xi, xj = x[i], x[j]
            for k, c in enumerate(vec):
                if c != 0:
                    if xi != 0:
                        out[k][j] += xi * c
                    if xj != 0:
                        out[k][i] -= xj * c
        return out

    def ad_basis(self, i):
        """ad_{e_i}, entry (k, j) = c^k_ij, read from the table of all n ad
        matrices that is built once per algebra (nested tuples)."""
        return self.memo("ad", self._ad_table)[i]

    def _ad_table(self):
        # absent constants stay exact zeros of the kind (float +0.0, not -0.0)
        n = self.dim
        table = [linalg.zeros(n, n, self.kind) for _ in range(n)]
        for (i, j), vec in self.brackets.items():
            for k, c in enumerate(vec):
                if c != 0:
                    table[i][k][j] = c
                    table[j][k][i] = -c
        return tuple(tuple(tuple(row) for row in m) for m in table)

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
        """First basis triple i < j < k violating Jacobi, with its cyclic
        sum, or None.

        Jacobi is d^2 = 0 on the coframe: d(de^t)(e_i, e_j, e_k) is the e_t
        component of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j].
        """
        coframe = self.coframe_differentials()
        # the cyclic sums are quadratic in the constants c; the cached
        # coframe keeps the caller's tolerance
        if self.kind == EXACT:
            scaled = nullcontext()
        else:
            c = max((abs(x) for vec in self.brackets.values() for x in vec), default=0.0)
            scaled = tolerance(current_eps() * max(1.0, c) ** 2)
        with scaled:
            dd = [exterior_derivative(de, self) for de in coframe]
        keys = [key for form in dd for key in form.coeffs]
        if not keys:
            return None
        key = min(keys)
        return key + ([form.get(key) for form in dd],)

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
        cols = linalg.transpose(s)
        new = {(i, j): linalg.mat_vec(sinv, self.bracket(cols[i], cols[j]))
               for i in range(self.dim) for j in range(i + 1, self.dim)}
        return LieAlgebra(self.dim, new, kind=self.kind, _validated=True)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, nnz={len(self.brackets)}, kind={self.kind})"


def find_codim1_abelian_ideal(L: LieAlgebra):
    """Hyperplane n with [n, n] = 0 and [L, n] in n, or None.

    ``ker xi`` is an abelian ideal iff xi kills every bracket and
    xi ^ de^k = 0 for every k, and both conditions are linear in xi, so the
    answers and 0 form the null space V of one homogeneous system.  When
    xi_t != 0, the components of xi ^ de^k on the triples through t imply
    all the others, and a nonzero xi that kills [L, L] is nonzero at a free
    column of the brackets' rref, so only the triples that meet a free
    column are kept.  The answer is ker V[-1], the basis vector of the
    largest free column (span(e_1 .. e_{d-1}) for the abelian algebra), and
    it is ``ambiguous`` exactly when dim V > 1.
    """
    n = L.dim
    brackets = list(L.brackets.values())
    free = set(range(n)).difference(linalg.rref(brackets)[1])
    wedge = {}
    for k, de in enumerate(L.coframe_differentials()):
        for (a, b), c in de.coeffs.items():
            for l in range(n):
                if l not in (a, b) and free.intersection((l, a, b)):
                    key, sign = sort_indices((l, a, b))
                    row = wedge.setdefault((k, key), linalg.zero_vector(n, L.kind))
                    row[l] += sign * c
    system = [wedge[key] for key in sorted(wedge)] + brackets
    V = linalg.nullspace(system) if system else linalg.idmat(n, L.kind)
    if not V:
        return None
    basis = linalg.nullspace([V[-1]])
    ideal = Subspace(len(basis), tuple(tuple(v) for v in basis), ambiguous=len(V) > 1)
    # direct re-check guards against elimination bugs
    defect = abelian_ideal_defect(L, ideal.vectors)
    if defect is not None:
        raise LieAlgebraError("INTERNAL", f"ideal candidate is {defect}")
    return ideal


def abelian_ideal(L: LieAlgebra, declared):
    """The codimension-one abelian ideal of L: the ``declared`` Subspace if
    :func:`abelian_ideal_defect` passes it, the search's answer if it is
    None; memoised on L per declaration.  Raises IDEAL_NOT_ABELIAN when
    the declared subspace fails or the search finds nothing."""
    def resolve():
        if declared is None:
            return find_codim1_abelian_ideal(L) or "no codimension-one abelian ideal"
        defect = abelian_ideal_defect(L, declared.vectors)
        return declared if defect is None else f"declared subspace is {defect}"

    ideal = L.memo(("ideal", declared), resolve)
    if isinstance(ideal, str):
        raise LieAlgebraError("IDEAL_NOT_ABELIAN", ideal)
    return ideal


def abelian_ideal_defect(L: LieAlgebra, vectors):
    """Why span(vectors) is not an abelian ideal of codimension one in L:
    "not abelian", "not a hyperplane" or "not an ideal"; None when it is.

    The vectors must be a basis of the hyperplane.  The hyperplane is
    the kernel of the one covector xi vanishing on them, and it is an
    ideal iff it contains [L, L] (the quotient by a hyperplane ideal is
    one-dimensional, hence abelian), i.e. iff xi vanishes on every
    nonzero bracket [e_i, e_j].
    """
    vecs = [list(v) for v in vectors]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if not linalg.is_zero_vector(L.bracket(vecs[a], vecs[b])):
                return "not abelian"
    # the covectors vanishing on no vectors at all are the whole dual space
    kernel = linalg.nullspace(vecs) if vecs else linalg.idmat(L.dim, L.kind)
    if len(vecs) != L.dim - 1 or len(kernel) != 1:
        return "not a hyperplane"
    xi = kernel[0]
    if any(not is_zero(linalg.dot(xi, vec)) for vec in L.brackets.values()):
        return "not an ideal"
    return None
