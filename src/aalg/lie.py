"""Validated Lie algebra values and the codimension-one abelian ideal probe.

Structure constants are held sparsely: brackets[(i, j)] with i < j maps to
the coefficient vector of [e_i, e_j], and are cleared to integers once per
algebra (:attr:`LieAlgebra.constants`): the bracket numerators over one
denominator and the table whose row i is ad_{e_i}^t flattened, its block
j [e_i, e_j].  ad_x (so [x, y] = ad_x y), ad_{e_i}, the change of basis,
the ideal test and the ideal search below, Nijenhuis in ``hermitian``
(pair by pair from the table's nonzero blocks), Koszul there and, through
:attr:`LieAlgebra.coframe_terms`, d in ``forms`` all read that one view.
Validation enforces antisymmetry by construction and checks the Jacobi
identity as d^2 = 0 on the coframe, exactly on the rational path and on
floats against ``scalars.scaled_eps`` over (c, c), the scale of the cyclic
sums.  A
hyperplane is an ideal iff it contains [L, L], so the ideal test evaluates
its covector on the brackets.  The ideal search eliminates the integer
bracket rows once; on exact algebras it then solves the coframe
conditions in the dim ann [L, L] coordinates of the covector over their
null space (one on every s_2n), while floats keep one pivoted system in
all n coordinates, the bracket rows last.
An ideal is a tuple of basis vectors (coefficient tuples);
:func:`abelian_ideal` validates a declared ideal or searches for one, and
caches the answer on the algebra once per declaration.
"""

from __future__ import annotations

from functools import cached_property

from .scalars import EXACT, coerce, is_zero, kind_of, scaled_eps, tolerance, zero
from . import linalg
from .forms import KForm, exterior_derivative, sort_indices


class LieAlgebraError(ValueError):
    def __init__(self, code, message, witness=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.witness = witness


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
    def semidirect(cls, D):
        """R^k x|_D R: [e_last, e_j] = D e_j for the first k basis vectors."""
        k = len(D)
        kind = linalg.matrix_kind(D)
        brackets = {(j, k): [-D[t][j] for t in range(k)] + [zero(kind)] for j in range(k)}
        return cls(k + 1, brackets, kind=kind, _validated=True)

    # -- bracket machinery ----------------------------------------------------
    @cached_property
    def constants(self):
        """The structure constants cleared once, (dc, rows, table): rows the
        bracket numerators over dc in ``brackets`` order, row i of the table
        ad_{e_i}^t flattened (block j is [e_i, e_j]; absent constants are 0,
        never -0.0).  The 1 x 1 zero gives an algebra without brackets its kind."""
        n = self.dim
        (dc, rows), _ = linalg._numerators(list(self.brackets.values()), [[zero(self.kind)]])
        table = [[0] * (n * n) for _ in range(n)]
        for (i, j), c in zip(self.brackets, rows):
            table[i][j * n:(j + 1) * n] = [x if x else 0 for x in c]
            table[j][i * n:(i + 1) * n] = [-x if x else 0 for x in c]
        return dc, rows, table

    def ad(self, x):
        """Matrix of ad_x = [x, .]: x times the table is ad_x^t flattened,
        each entry the nonzero x_i c^k_ij added in increasing i (float sums
        are those of the dense sum, and an entry with no term is +0.0)."""
        if len(x) != self.dim:
            raise LieAlgebraError("DIMENSION", "vector length does not match algebra")
        n = self.dim
        ((dx, xn),) = linalg._numerators([x])
        dc, _, table = self.constants
        (flat,) = linalg._row_sums(xn, table, 0)
        return linalg._over([flat[k::n] for k in range(n)], dx * dc)

    def ad_basis(self, i):
        """ad_{e_i}, entry (k, j) = c^k_ij: row i of the table over dc."""
        n = self.dim
        dc, _, table = self.constants
        return linalg._over([table[i][k::n] for k in range(n)], dc)

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
        c = self.constants[1]
        with tolerance(scaled_eps(c, c)):
            dd = [exterior_derivative(de, self) for de in coframe]
        keys = [key for form in dd for key in form.coeffs]
        if not keys:
            return None
        key = min(keys)
        return key + ([form.get(key) for form in dd],)

    def is_unimodular(self) -> bool:
        return all(is_zero(linalg.trace(self.ad_basis(i))) for i in range(self.dim))

    def derived_algebra(self):
        vecs = [list(v) for _, v in sorted(self.brackets.items())]
        return tuple(map(tuple, linalg.column_space_basis(vecs)))

    def memo(self, key, compute):
        """compute() once per key for this algebra, then the cached value
        (one lookup on a hit: a key such as a J matrix hashes every entry)."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def coframe_differentials(self):
        """de^k as 2-forms, cached; de^k(e_i, e_j) = -c^k_{ij}."""
        return self.memo("coframe", lambda: tuple(
            KForm(2, self.dim, {key: -vec[k] for key, vec in self.brackets.items()
                                if not is_zero(vec[k])}, kind=self.kind)
            for k in range(self.dim)))

    @cached_property
    def coframe_terms(self):
        """(dc, terms): terms[k] the (key, numerator) pairs of de^k over dc,
        in its order, read off :attr:`constants` on the cached coframe."""
        dc, rows, _ = self.constants
        return dc, [[(key, -row[k]) for key, row in zip(self.brackets, rows) if key in de.coeffs]
                    for k, de in enumerate(self.coframe_differentials())]

    def change_basis(self, s):
        """Algebra in the new basis b_j = sum_i s[i][j] e_i: column j of
        s^-1 ad_{b_i} s is [b_i, b_j] in the new basis, one ad per b_i."""
        sinv = linalg.inverse(s)
        if sinv is None:
            raise LieAlgebraError("SINGULAR", "basis change matrix is singular")
        new = {}
        for i, b in enumerate(linalg.transpose(s)):
            m = linalg.mat_mul(sinv, linalg.mat_mul(self.ad(b), [row[i + 1:] for row in s]))
            new.update(((i, j), c) for j, c in enumerate(linalg.transpose(m), i + 1))
        return LieAlgebra(self.dim, new, kind=self.kind, _validated=True)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, nnz={len(self.brackets)}, kind={self.kind})"


def find_codim1_abelian_ideal(L: LieAlgebra):
    """Hyperplane n with [n, n] = 0 and [L, n] in n, or None.

    ``ker xi`` is an abelian ideal iff xi kills every bracket and
    xi ^ de^k = 0 for every k, and both conditions are linear in xi, so the
    answers and 0 form the null space of one homogeneous system.  When
    xi_t != 0, the components of xi ^ de^k on the triples through t imply
    all the others, and a nonzero xi that kills [L, L] is nonzero at a free
    column of the brackets' rref, so only the triples that meet a free
    column are kept.  The answer is ker V[-1], as a tuple of basis vectors,
    with V the null-space basis (free variables in column order): V
    depends only on the solution space, and V[-1] is the solution with the
    largest last nonzero column, zero at the other free columns
    (span(e_1 .. e_{d-1}) for the abelian algebra).

    On exact algebras the brackets are eliminated first.  Their rref gives
    the null space nu_1 .. nu_r of the bracket rows, r = dim ann [L, L]
    (one on every s_2n), with nu_j d at the j-th free column f_j and zero
    at the other free columns and after f_j.  Writing xi = sum_j y_j nu_j
    turns the xi ^ de^k rows into rows in the r unknowns y, built on the
    coordinates where some nu_j is nonzero; y -> xi takes their null-space
    basis W to d V, so V[-1] is read off W[-1].  That is one bracket
    elimination plus one in r columns, none when no row survives (as on
    s_2n).  Floats keep one system in the n coordinates of xi, over the
    unit covectors with the bracket rows last: pivoting over all of it
    finds the ideal on ill-conditioned float copies, where a two-stage
    float solve does not.

    The system's rows are dc times those conditions, read off
    :attr:`LieAlgebra.constants` and :attr:`LieAlgebra.coframe_terms`:
    Python ints on the exact path, the constants' own floats on the float
    path.
    """
    n = L.dim
    dc, rows, _ = L.constants
    red, pivots = linalg.rref(rows)
    free = set(range(n)).difference(pivots)
    free_columns = sorted(free)
    # coords[l]: the nonzero (j, x) with xi_l = sum_j x y_j
    if L.kind == EXACT:
        # nu_j is d times the null-space vector of free column j
        ((d, red),) = linalg._numerators(red[:len(pivots)])
        coords = [[] for _ in range(n)]
        for j, f in enumerate(free_columns):
            coords[f].append((j, d))
            for p, row in zip(pivots, red):
                if row[f]:
                    coords[p].append((j, -row[f]))
        width, tail = len(free), []
    else:
        coords = [[(l, 1)] for l in range(n)]
        width, tail = n, rows
    # the triples that meet a free column: any l when a or b is free, else
    # a free l; l increases over the columns where some nu_j is nonzero
    # (every column on floats)
    support = [l for l in range(n) if coords[l]]
    # int 0, or 0.0 on floats: the first entry decides the system's kind
    zero = 0 * dc
    wedge = {}
    for k, terms in enumerate(L.coframe_terms[1]):
        for (a, b), c in terms:
            for l in support if a in free or b in free else free_columns:
                if l not in (a, b):
                    key, sign = sort_indices((l, a, b))
                    row = wedge.setdefault((k, key), [zero] * width)
                    for j, x in coords[l]:
                        row[j] += sign * c * x
    system = [wedge[key] for key in sorted(wedge)] + tail
    V = linalg.nullspace(system) if system else linalg.idmat(width, L.kind)
    if not V:
        return None
    xi = V[-1]
    if L.kind == EXACT:
        xi = [sum(x * xi[j] for j, x in coords[l]) for l in range(n)]
    ideal = tuple(map(tuple, linalg.nullspace([xi])))
    # direct re-check guards against elimination bugs
    defect = abelian_ideal_defect(L, ideal)
    if defect is not None:
        raise LieAlgebraError("INTERNAL", f"ideal candidate is {defect}")
    return ideal


def abelian_ideal(L: LieAlgebra, declared):
    """The codimension-one abelian ideal of L as a tuple of basis vectors:
    ``declared`` if :func:`abelian_ideal_defect` passes it, the search's
    answer if it is None; memoised on L per declaration.  Raises
    IDEAL_NOT_ABELIAN when the declared basis fails or the search finds
    nothing."""
    def resolve():
        if declared is not None:
            defect = abelian_ideal_defect(L, declared)
            return declared if defect is None else f"declared subspace is {defect}"
        found = find_codim1_abelian_ideal(L)
        return "no codimension-one abelian ideal" if found is None else found

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

    Each test is read off its definition, independently of the ideal
    search's system in xi, on the integer numerators of the vectors and
    of :attr:`LieAlgebra.constants`: with V the vectors as rows and T the
    table (row i is ad_{e_i}^t flattened, its block j [e_i, e_j]), row a
    of V T is ad_{v_a}^t flattened, and row b of V ad_{v_a}^t is [v_a, v_b].
    """
    n = L.dim
    vecs = [list(v) for v in vectors]
    ((_, vn),) = linalg._numerators(vecs)
    _, cn, table = L.constants
    for a, flat in enumerate(linalg._row_sums(vn, table, 0)):
        adt = [flat[j * n:(j + 1) * n] for j in range(n)]
        if not linalg.is_zero_matrix(linalg._row_sums(vn[a + 1:], adt, 0)):
            return "not abelian"
    # the covectors vanishing on no vectors at all are the whole dual space
    kernel = linalg.nullspace(vecs) if vecs else linalg.idmat(L.dim, L.kind)
    if len(vecs) != L.dim - 1 or len(kernel) != 1:
        return "not a hyperplane"
    # the rows of cn are the brackets up to one positive scale
    if not linalg.is_zero_vector(linalg.mat_vec(cn, kernel[0])):
        return "not an ideal"
    return None
