"""Scalar kernel shared by every container in the package.

Two scalar kinds exist and are never mixed inside one container:

* ``exact`` -- :class:`fractions.Fraction`; used on classification paths,
  where the claims are equalities and rounding is not acceptable;
* ``float`` -- IEEE doubles, compared against one tolerance: the
  context-local :func:`current_eps`, which is ``DEFAULT_EPS`` unless a
  ``with tolerance(eps):`` block (or ``AALG_EPSILON`` for one CLI call)
  sets another for the current thread or task until the block exits.
  No function takes a tolerance argument.  A value cached on an object
  (``HermitianStructure`` results, the integrability of its J included,
  the integer view ``Metric.inverse``, on a ``LieAlgebra`` its coframe
  differentials and their integer terms and its abelian ideal, searched
  for or validated once per declaration, and the integer view
  ``HermitianData.cleared``, which compares nothing) keeps the tolerance
  in force when it was first computed.

The one float policy: :func:`is_zero` compares with the absolute eps; a
sum of products is zero-tested within :func:`scaled_eps` of its factors
(Jacobi over (c, c), Nijenhuis over (c, J, J), Levi-Civita flatness over
(c, G, G)), which raises :class:`PrecisionError` when that is not finite;
float spectra cluster within ``1e3 scaled_eps(spectrum)``
(:func:`aalg.lattice.eigen_clusters`), and the Jordan data of the
clusters is decided only in ``lattice``.

Integers are accepted everywhere and coerced to Fractions.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from itertools import chain

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS = 1e-9

_EPS = ContextVar("aalg_eps", default=DEFAULT_EPS)


class PrecisionError(ValueError):
    """A float quantity that is not finite in double precision."""


def current_eps() -> float:
    """The float tolerance in force in this context."""
    return _EPS.get()


def tolerance(eps):
    """Compare floats against ``eps`` inside the ``with`` block.  ``eps``
    must be finite and non-negative (0 compares exactly); anything else
    raises ValueError here, before any block is entered."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, not {eps!r}")
    return _scope(eps)


@contextmanager
def _scope(eps):
    token = _EPS.set(eps)
    try:
        yield
    finally:
        _EPS.reset(token)


# the scalar types themselves, told apart by identity first: Fraction is
# registered with the numbers ABCs, so isinstance(x, Fraction) on an int or
# a float runs ABCMeta.__instancecheck__ in Python
_KINDS = {Fraction: EXACT, int: EXACT, float: FLOAT}


def kind_of(x) -> str:
    kind = _KINDS.get(type(x))
    if kind is not None:
        return kind
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, (Fraction, int)):
        return EXACT
    if isinstance(x, float):
        return FLOAT
    raise TypeError(f"unsupported scalar {x!r}")


def coerce(x, kind: str):
    """Coerce a number to the requested scalar kind.

    Floats never silently enter the exact path.
    """
    if kind == EXACT:
        if isinstance(x, Fraction):
            return x    # immutable: no copy
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"cannot put {x!r} on the exact path")
        return Fraction(x)
    if kind == FLOAT:
        return float(x)
    raise ValueError(f"unknown scalar kind {kind!r}")


def zero(kind: str):
    return Fraction(0) if kind == EXACT else 0.0


def one(kind: str):
    return Fraction(1) if kind == EXACT else 1.0


def is_zero(x) -> bool:
    t = type(x)
    if t is not float and (t is Fraction or t is int or isinstance(x, (Fraction, int))):
        return x == 0
    return abs(x) <= _EPS.get()


def scaled_eps(*groups):
    """eps times max(1, max |x|) over each group (rows of entries): the
    tolerance of a float sum of products with one factor from each group.
    Exact entries return eps, which exact zero-tests never read; raises
    PrecisionError when the scaled tolerance is not finite."""
    eps = _EPS.get()
    if isinstance(next(chain.from_iterable(chain.from_iterable(groups)), 0.0), (Fraction, int)):
        return eps
    eps *= math.prod(max(1.0, float(max(map(abs, chain.from_iterable(rows)), default=0.0)))
                     for rows in groups)
    if not math.isfinite(eps):
        raise PrecisionError("the tolerance scaled to the float entries is not finite "
                             "in double precision")
    return eps


def exact_sqrt(q):
    """Square root of a non-negative Fraction, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


def sqrt_scalar(x):
    """Scalar square root; returns None on the exact path when irrational."""
    if isinstance(x, (Fraction, int)):
        return exact_sqrt(x)
    if x < 0:
        raise ValueError("negative radicand")
    return math.sqrt(x)


def fmt(x) -> str:
    """Render a scalar the way the document grammar expects."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    text = repr(x)
    if "e" in text:
        # the grammar has no exponent: write the same digits positionally
        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return text
