"""Alternating forms over a fixed basis, wedge product and the
Chevalley-Eilenberg differential.

A k-form stores coefficients only on strictly increasing index tuples
(0-based internally; reprs are 1-based to match the usual coframe
notation).  Values are immutable by convention: no method mutates `self`.

Pullback along a matrix m contracts the form's antisymmetric tensor with
the rows of m (m*e^s is row s), one index at a time and only onto
increasing target indices, so its cost follows the nonzero entries of m,
not the C(n, k) target index sets: O(n^4) for a dense 3-form along a dense
m, where wedging the substituted rows term by term costs O(n^6).
Evaluation is the pullback along the matrix whose columns are the
arguments.  The differential and the pullback sum on integer numerators
cleared once (``linalg._numerators``; d reads the algebra's
``coframe_terms``) and build one Fraction per output coefficient; float
forms run the same sums over d = 1.0.

Sign convention, fixed package-wide: ``d alpha (X, Y) = -alpha([X, Y])``
on 1-forms, extended as an antiderivation.  With this choice a coframe
tuple such as ``(f16, 0, ...)`` round-trips: df^1 = f^1 ^ f^6 corresponds
to [f6, f1] = f1.
"""

from __future__ import annotations

from itertools import compress, permutations

from .scalars import EXACT, coerce, is_zero, kind_of, one, zero
from .linalg import _numerators, _over, LinAlgError


def sort_indices(indices):
    """Sort an index sequence, returning (tuple, parity sign) or None on dup."""
    idx = list(indices)
    sign = 1
    # insertion sort, counting inversions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


class KForm:
    """Alternating k-form with sparse increasing-tuple coefficients."""

    __slots__ = ("degree", "dim", "kind", "coeffs")

    def __init__(self, degree, dim, coeffs=None, kind=None):
        self.degree = degree
        self.dim = dim
        clean = {}
        k = kind
        for key, val in (coeffs or {}).items():
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if any(not (0 <= i < dim) for i in key):
                raise ValueError(f"index out of range in {key}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not strictly increasing")
            if k is None:
                k = kind_of(val)
            val = coerce(val, k)
            if not is_zero(val):
                clean[tuple(key)] = val
        self.kind = k if k is not None else (kind or EXACT)
        self.coeffs = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero_form(cls, degree, dim, kind=EXACT):
        return cls(degree, dim, {}, kind=kind)

    @classmethod
    def basis(cls, dim, *indices, kind=EXACT):
        """Basis monomial e^{i1} ^ ... ^ e^{ik} from 0-based indices."""
        srt = sort_indices(indices)
        if srt is None:
            return cls.zero_form(len(indices), dim, kind)
        key, sign = srt
        return cls(len(indices), dim, {key: coerce(sign, kind)}, kind=kind)

    @classmethod
    def from_vector(cls, comps):
        """Degree-1 form with the given coefficient list."""
        dim = len(comps)
        return cls(1, dim, {(i,): c for i, c in enumerate(comps)})

    # -- basic algebra ------------------------------------------------------
    def terms(self):
        return sorted(self.coeffs.items())

    def get(self, key):
        return self.coeffs.get(tuple(key), zero(self.kind))

    def is_zero(self):
        return all(is_zero(v) for v in self.coeffs.values())

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, zero(self.kind)) + val
        return KForm(self.degree, self.dim, out, kind=self.kind)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = coerce(s, self.kind)
        return KForm(self.degree, self.dim,
                     {k: s * v for k, v in self.coeffs.items()}, kind=self.kind)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.degree == other.degree and self.dim == other.dim
                and self.coeffs == other.coeffs)

    def equals(self, other):
        if self.degree != other.degree or self.dim != other.dim:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(is_zero(self.get(k) - other.get(k)) for k in keys)

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise LinAlgError("forms live on different dimensions")
        if self.degree != other.degree:
            raise LinAlgError("forms have different degrees")
        if self.coeffs and other.coeffs and self.kind != other.kind:
            raise TypeError("mixed scalar kinds")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key, val in self.terms():
            label = "e" + ",".join(str(i + 1) for i in key) if key else "1"
            parts.append(f"{val}*{label}")
        return " + ".join(parts)


def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Wedge product; bilinear and graded-anticommutative."""
    if alpha.dim != beta.dim:
        raise LinAlgError("forms live on different dimensions")
    degree = alpha.degree + beta.degree
    dim = alpha.dim
    kind = alpha.kind if alpha.coeffs else beta.kind
    if degree > dim:
        return KForm.zero_form(degree, dim, kind)
    out = {}
    for ka, va in alpha.coeffs.items():
        for kb, vb in beta.coeffs.items():
            srt = sort_indices(ka + kb)
            if srt is None:
                continue
            key, sign = srt
            out[key] = out.get(key, zero(kind)) + sign * va * vb
    return KForm(degree, dim, out, kind=kind)


def wedge_power(alpha: KForm, k: int) -> KForm:
    acc = KForm(0, alpha.dim, {(): one(alpha.kind)}, kind=alpha.kind)
    for _ in range(k):
        acc = wedge(acc, alpha)
    return acc


def exterior_derivative(alpha: KForm, algebra) -> KForm:
    """Chevalley-Eilenberg differential of a left-invariant form: each term
    a e^K gives sum over positions p of (-1)^p a de^{K_p} ^ e^{K minus K_p},
    summed on the integer numerators of alpha and of the coframe
    differentials (``coframe_terms``, cleared once per algebra; floats pass
    with d = 1.0), one Fraction per coefficient."""
    if alpha.dim != algebra.dim:
        raise LinAlgError("form dimension does not match the algebra")
    dim = alpha.dim
    kind = alpha.kind
    if alpha.degree == 0 or alpha.degree >= dim:
        return KForm.zero_form(alpha.degree + 1, dim, kind)
    dc, terms = algebra.coframe_terms
    ((da, (an,)),) = _numerators([list(alpha.coeffs.values())])
    # (p, q) + rest meets every de^k that has a term e^{pq}: sort it once
    merges = {}
    acc = {}
    for key, a in zip(alpha.coeffs, an):
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            sgn_pos = -1 if pos % 2 else 1
            for pq, c in terms[idx]:
                unsorted = pq + rest
                if unsorted not in merges:
                    merges[unsorted] = sort_indices(unsorted)
                srt = merges[unsorted]
                if srt is None:
                    continue
                merged, sgn = srt
                acc[merged] = acc.get(merged, 0) + sgn_pos * sgn * a * c
    return _form_over(alpha.degree + 1, dim, acc, da * dc, kind)


def pullback(alpha: KForm, m) -> KForm:
    """Pullback along the linear map with matrix m: (m*a)(x,..) = a(mx,..).

    m may be n x k; the result has dimension k.  The coefficient on
    t_1 < .. < t_k is sum over the orderings s of each key of
    sign(s) a_key m[s_1][t_1] .. m[s_k][t_k]: alpha's antisymmetric tensor
    contracted against the rows of m one index at a time, last first,
    keeping only targets below the one to their right.  Integer numerators
    throughout (floats pass with d = 1.0), one Fraction per coefficient.
    """
    dim = len(m[0])
    k = alpha.degree
    (da, (an,)), (dm, mn) = _numerators([list(alpha.coeffs.values())], m)
    # the nonzero (t, x) of each row, with no Python-level loop over the entries
    rows = list(map(list, map(compress, map(enumerate, mn), mn)))
    tensor = {}
    for key, a in zip(alpha.coeffs, an):
        for perm in permutations(key):
            tensor[perm] = sort_indices(perm)[1] * a
    for i in reversed(range(k)):
        out = {}
        for key, a in tensor.items():
            bound = key[i + 1] if i + 1 < k else dim
            head, tail = key[:i], key[i + 1:]
            for t, x in rows[key[i]]:
                if t < bound:
                    new = head + (t,) + tail
                    out[new] = out.get(new, 0) + a * x
        tensor = out
    return _form_over(k, dim, tensor, da * dm ** k, alpha.kind)


def _form_over(degree, dim, sums, d, kind):
    """The form with coefficients sums[key] / d, sums on integer
    numerators (or floats over a float d)."""
    (vals,) = _over([list(sums.values())], d)
    return KForm(degree, dim, dict(zip(sums, vals)), kind=kind)
