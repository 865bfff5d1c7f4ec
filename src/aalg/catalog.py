"""Machine-readable catalog of the named algebras and their witnesses.

Each entry reads its structure equations from the shipped manifest
(``data/catalog.alg``), whose document for the entry names its
parameters and binds them to the first sample.  The entry adds
constraints on the parameters, a unimodularity locus, and one or more
witness recipes:

* ``ExplicitWitness`` -- the J and g of the entry's manifest document,
  on the entry basis; a witness may replace g by a constant Gram matrix
  of its own.
* ``LchkWitness`` -- the LCHK admissibility and flatness claims of the
  ad-matrix on the abelian ideal.

verify_all instantiates every entry at several exact parameter samples,
checks the witness claims through both the data-level and the direct-form
predicates, the unimodularity locus (and its failure off the locus), and
the LCHK admissibility/flatness claims.  Negative classification claims
that need a quantifier over all metrics are reported NOT-CHECKED.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources

from . import linalg

from .documents import (AlgebraDocument, Term, parse_manifest, to_algebra,
                        to_complex_structure, to_ideal, to_metric)
from .hermitian import HermitianStructure, Metric
from .lie import LieAlgebra
from .almost_abelian import DATA_PREDICATES, extract_data, lee_form_closed
from .lchk import construct_lchk, hyperkahler_flatness, lchk_admissible, verify_triple


class CatalogError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


F = Fraction


@dataclass(frozen=True)
class ExplicitWitness:
    label: str
    metric: tuple | None = None       # Gram matrix; None = the document's g
    claims: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LchkWitness:
    label: str
    hyperkahler: bool


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: AlgebraDocument         # structure equations, J, g and ideal
    constraints: object = None        # params -> bool
    constraint_text: str = ""
    samples: tuple = ()
    unimodular_locus: object = None   # params -> bool; None = never, True = always
    witnesses: tuple = ()
    notes: str = ""

    @property
    def dim(self):
        return self.document.dim

    @property
    def params(self):
        return tuple(self.document.params)


def shipped_manifest_text() -> str:
    """Contents of the manifest file shipped with the package."""
    return resources.files("aalg").joinpath("data/catalog.alg").read_text("utf-8")


_MANIFEST = {doc.name: doc for doc in parse_manifest(shipped_manifest_text())}


def entry_document(entry: CatalogEntry, params=None) -> AlgebraDocument:
    """The entry's document with its parameters bound to ``params``
    (default: the first sample)."""
    params = entry.samples[0] if params is None else params
    return replace(entry.document, params={k: params[k] for k in entry.params})


def instantiate(entry: CatalogEntry, params=None) -> LieAlgebra:
    """Validated Lie algebra for a parameter binding."""
    params = dict(params or {})
    for p in entry.params:
        if p not in params:
            raise CatalogError("CONSTRAINT_VIOLATION", f"parameter {p} unbound")
    if entry.constraints is not None and not entry.constraints(params):
        raise CatalogError(
            "CONSTRAINT_VIOLATION",
            f"{entry.name}: parameters {params} violate {entry.constraint_text}")
    return to_algebra(entry_document(entry, params))


def witness_structures(entry: CatalogEntry, L: LieAlgebra):
    """All witness Hermitian structures on ``L``, the entry's algebra as
    ``instantiate`` built it; the abelian ideal is looked up (once, on L)
    only when the entry has an explicit witness.

    Returns a list of (label, HermitianStructure, HermitianData, claims).
    """
    explicit = [w for w in entry.witnesses if isinstance(w, ExplicitWitness)]
    if not explicit:
        return []
    ideal = to_ideal(entry.document)
    J = to_complex_structure(entry.document)
    out = []
    for w in explicit:
        g = to_metric(entry.document) if w.metric is None else Metric.from_matrix(w.metric)
        H = HermitianStructure(L, J, g)
        out.append((w.label, H, extract_data(L, ideal, J, g), dict(w.claims)))
    return out


def _restrict_last(L: LieAlgebra):
    """Matrix of ad_{e_dim} restricted to span(e_1 .. e_{dim-1})."""
    n = L.dim
    ad = L.ad_basis(n - 1)
    return [[ad[i][j] for j in range(n - 1)] for i in range(n - 1)]


def check_witness(entry, label, H, d, claims):
    """Check each claimed predicate through both routes; list of failures."""
    failures = []
    for prop, expected in claims.items():
        direct = (H.is_vaisman()[0] if prop == "vaisman"
                  else getattr(H, f"is_{prop}_direct")())
        if direct != expected:
            failures.append(f"{entry.name}/{label}: direct {prop} = {direct}, want {expected}")
        if prop in DATA_PREDICATES:
            data_verdict = DATA_PREDICATES[prop](d)
            if data_verdict != expected:
                failures.append(
                    f"{entry.name}/{label}: data {prop} = {data_verdict}, want {expected}")
    return failures


# ---------------------------------------------------------------------------
# entry definitions


ENTRIES = {}


def _register(name, **fields):
    """Add the entry whose equations are the manifest document ``name``."""
    ENTRIES[name] = CatalogEntry(
        name=name, document=_MANIFEST[name.replace("+", "_")], **fields)


# -- six-dimensional LCK list (admits LCK, no Kahler) ------------------------

_register(
    "g1",
    constraints=lambda pr: pr["p"] != 0, constraint_text="p != 0",
    samples=({"p": F(-1, 4)}, {"p": F(1, 2)}, {"p": F(2)}),
    unimodular_locus=lambda pr: 1 + 4 * pr["p"] == 0,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
)

_register(
    "g2",
    constraints=lambda pr: pr["p"] * pr["q"] != 0, constraint_text="pq != 0",
    samples=({"p": F(-1), "q": F(1, 4)}, {"p": F(1), "q": F(1)}, {"p": F(1), "q": F(-1, 2)}),
    unimodular_locus=lambda pr: pr["p"] + 4 * pr["q"] == 0,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
)

_register(
    "g3",
    constraints=lambda pr: pr["p"] * pr["q"] != 0 and pr["r"] != 0,
    constraint_text="pq != 0, r != 0",
    samples=({"p": F(-1), "q": F(1, 4), "r": F(1)},
             {"p": F(1), "q": F(1, 2), "r": F(2)},
             {"p": F(1), "q": F(1), "r": F(-1)}),
    unimodular_locus=lambda pr: pr["p"] + 4 * pr["q"] == 0,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
    notes="label parameters read as (p, q, r); r is the live rotation parameter",
)

_register(
    "g4",
    samples=({},),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
)

_register(
    "g5",
    constraints=lambda pr: pr["r"] != 0, constraint_text="r != 0",
    samples=({"r": F(1)}, {"r": F(-1, 2)}, {"r": F(2)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
)

_register(
    "g6",
    constraints=lambda pr: pr["p"] * pr["r"] != 0, constraint_text="pr != 0",
    samples=({"p": F(1), "r": F(1)}, {"p": F(-1, 2), "r": F(2)}, {"p": F(1, 4), "r": F(-1)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "kahler": False, "balanced": False, "lcb": True}),),
)

# -- six-dimensional LCB list -------------------------------------------------

_register(
    "l1",
    constraints=lambda pr: pr["p"] * pr["q"] != 0 and pr["p"] != pr["q"] and pr["p"] != -pr["q"],
    constraint_text="pq != 0, p != +-q (the stated pr != 0 read as pq != 0)",
    samples=({"p": F(1), "q": F(-3, 2)}, {"p": F(1, 2), "q": F(-1)}, {"p": F(2), "q": F(1)}),
    unimodular_locus=lambda pr: 1 + 2 * pr["p"] + 2 * pr["q"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False, "lck": False}),),
)

_register(
    "l2",
    constraints=lambda pr: pr["p"] != 0, constraint_text="p != 0",
    samples=({"p": F(-1, 4)}, {"p": F(1)}, {"p": F(1, 2)}),
    unimodular_locus=lambda pr: 1 + 4 * pr["p"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False, "lck": False}),),
)

_register(
    "l3",
    constraints=lambda pr: pr["p"] * pr["q"] != 0 and pr["q"] != pr["r"] and pr["q"] != -pr["r"],
    constraint_text="pq != 0, q != +-r",
    samples=({"p": F(1), "q": F(1), "r": F(-1, 2) - F(1)},
             {"p": F(2), "q": F(-1), "r": F(0)},
             {"p": F(1), "q": F(1, 2), "r": F(2)}),
    unimodular_locus=lambda pr: pr["p"] + 2 * pr["q"] + 2 * pr["r"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l4",
    constraints=lambda pr: (pr["p"] * pr["q"] * pr["s"] != 0
                            and pr["q"] != pr["r"] and pr["q"] != -pr["r"]),
    constraint_text="pqs != 0, q != +-r",
    samples=({"p": F(1), "q": F(1), "r": F(-3, 2), "s": F(1)},
             {"p": F(2), "q": F(-1), "r": F(0), "s": F(1, 2)},
             {"p": F(1), "q": F(1, 2), "r": F(2), "s": F(-1)}),
    unimodular_locus=lambda pr: pr["p"] + 2 * pr["q"] + 2 * pr["r"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l5",
    constraints=lambda pr: pr["p"] * pr["q"] != 0, constraint_text="pq != 0",
    samples=({"p": F(1), "q": F(-1, 4)}, {"p": F(2), "q": F(1)}, {"p": F(1), "q": F(1, 2)}),
    unimodular_locus=lambda pr: pr["p"] + 4 * pr["q"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l6",
    samples=({},),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l7",
    samples=({},),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
    notes="witness realizes the nonzero-v case with a = p = 1",
)

_register(
    "l8",
    constraints=lambda pr: pr["p"] != 0, constraint_text="p != 0",
    samples=({"p": F(1)}, {"p": F(-1, 2)}, {"p": F(2)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l9",
    constraints=lambda pr: pr["p"] != 0, constraint_text="p != 0",
    samples=({"p": F(-1, 2)}, {"p": F(1)}, {"p": F(2)}),
    unimodular_locus=lambda pr: 1 + 2 * pr["p"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l10",
    constraints=lambda pr: pr["p"] * pr["q"] != 0, constraint_text="pq != 0",
    samples=({"p": F(1), "q": F(-1, 2)}, {"p": F(2), "q": F(-1)}, {"p": F(1), "q": F(1)}),
    unimodular_locus=lambda pr: pr["p"] + 2 * pr["q"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l11",
    constraints=lambda pr: pr["p"] not in (F(0), F(1), F(-1)),
    constraint_text="p != 0, +-1",
    samples=({"p": F(1, 2)}, {"p": F(-2)}, {"p": F(2)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l12",
    samples=({},),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l13",
    constraints=lambda pr: pr["q"] not in (F(1), F(-1)) and pr["r"] != 0,
    constraint_text="q != +-1, r != 0",
    samples=({"q": F(1, 2), "r": F(1)}, {"q": F(-2), "r": F(1, 2)}, {"q": F(0), "r": F(2)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l14",
    samples=({"p": F(0)}, {"p": F(1)}, {"p": F(-1, 2)}),
    unimodular_locus=lambda pr: pr["p"] == 0,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l15",
    samples=({},),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l16",
    constraints=lambda pr: (pr["r"] != 0 and (pr["p"] != 0 or pr["q"] != 0)
                            and pr["p"] != pr["q"] and pr["p"] != -pr["q"]),
    constraint_text="r != 0, p^2 + q^2 != 0, p != +-q",
    samples=({"p": F(1), "q": F(0), "r": F(1)},
             {"p": F(0), "q": F(1), "r": F(2)},
             {"p": F(1), "q": F(1, 2), "r": F(-1)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "l17",
    constraints=lambda pr: pr["p"] != 0, constraint_text="p != 0",
    samples=({"p": F(1)}, {"p": F(-1, 2)}, {"p": F(2)}),
    unimodular_locus=None,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

# -- nilpotent LCB entries ----------------------------------------------------

_register(
    "n1",
    samples=({},),
    unimodular_locus=True,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

_register(
    "n2",
    samples=({},),
    unimodular_locus=True,
    witnesses=(ExplicitWitness(
        label="lcb",
        claims={"lcb": True, "balanced": False}),),
)

# -- four-dimensional algebras and the compatibility examples -----------------

_register(
    "h3R",
    samples=({},),
    unimodular_locus=True,
    witnesses=(ExplicitWitness(
        label="lck",
        claims={"lck": True, "vaisman": True, "kahler": False, "lcb": True}),),
)


_register(
    "aff2+2R",
    samples=({},),
    unimodular_locus=None,
    witnesses=(
        ExplicitWitness(
            label="kahler",
            claims={"kahler": True, "balanced": True, "lck": True,
                    "lcb": True, "vaisman": True}),
        ExplicitWitness(
            label="lck-nonkahler",
            metric=((2, 0, 1, 0),
                    (0, 2, 0, 1),
                    (1, 0, 1, 0),
                    (0, 1, 0, 1)),
            claims={"lck": True, "kahler": False, "lcb": True, "vaisman": True}),
    ),
)


_register(
    "b2",
    samples=({},),
    unimodular_locus=None,
    witnesses=(
        ExplicitWitness(
            label="balanced",
            claims={"balanced": True, "kahler": False, "lcb": True}),
        ExplicitWitness(
            label="lcb-nonbalanced",
            metric=((3, 1, 1, 0, 0, 0),
                    (1, 1, 0, 0, 0, 0),
                    (1, 0, 1, 0, 0, 0),
                    (0, 0, 0, 1, 0, 1),
                    (0, 0, 0, 0, 1, 1),
                    (0, 0, 0, 1, 1, 3)),
            claims={"lcb": True, "balanced": False, "lck": False}),
    ),
)


def _s2n_document(n):
    """d f^1 = a f^{1,2n}, the (2, 3) block rotates with -a/2 and 1, and the
    pairs (2i, 2i+1) for i >= 2 rotate with c; J pairs f1 with f2n and
    f2i with f2i+1, and g is the identity: the witness reads both here."""
    last = 2 * n
    differential = [
        (Term(1, last, F(1), "a"),),
        (Term(2, last, F(-1, 2), "a"), Term(3, last, F(1))),
        (Term(2, last, F(-1)), Term(3, last, F(-1, 2), "a")),
    ]
    for i in range(2, n):
        differential += [(Term(2 * i + 1, last, F(1), "c"),),
                         (Term(2 * i, last, F(-1), "c"),)]
    differential.append(())
    params = {"a": F(1)} if n == 2 else {"a": F(1), "c": F(1)}
    pairs = ((1, last),) + tuple((2 * i, 2 * i + 1) for i in range(1, n))
    return AlgebraDocument(name=f"s{last}", dim=last, params=params,
                           differential=tuple(differential),
                           j_spec=("pairs", pairs), g_spec=("identity",))


def _s2n_entry(n):
    if n == 2:
        samples = ({"a": F(1)}, {"a": F(-2)}, {"a": F(1, 2)})
        constraints = lambda pr: pr["a"] != 0
        text = "a != 0"
    else:
        samples = ({"a": F(1), "c": F(1)}, {"a": F(-2), "c": F(1, 2)},
                   {"a": F(1, 2), "c": F(2)})
        constraints = lambda pr: pr["a"] != 0 and pr["c"] != 0
        text = "a != 0, c != 0"
    document = _s2n_document(n)
    return CatalogEntry(
        name=document.name, document=document,
        constraints=constraints, constraint_text=text,
        samples=samples,
        unimodular_locus=True,
        witnesses=(ExplicitWitness(
            label="skt-lcb",
            claims={"skt": True, "lcb": True, "balanced": False}),),
    )


for _n in (2, 3, 4):
    ENTRIES[f"s{2 * _n}"] = _s2n_entry(_n)

# -- LCHK catalog --------------------------------------------------------------


def _lchk_entry(name, constraints=None, text="", samples=({},), hyperkahler=False):
    _register(
        name,
        constraints=constraints, constraint_text=text,
        samples=samples,
        unimodular_locus=True if hyperkahler else None,
        witnesses=(LchkWitness(label="lchk", hyperkahler=hyperkahler),),
    )


_lchk_entry("lchk-m1-hk", hyperkahler=True)
_lchk_entry("lchk-m1")
_lchk_entry("lchk-m2-hk1", hyperkahler=True)
_lchk_entry("lchk-m2-hk2", hyperkahler=True)
_lchk_entry("lchk-m2-1")
_lchk_entry(
    "lchk-m2-2",
    constraints=lambda pr: pr["p"] != 0, text="p != 0",
    samples=({"p": F(1)}, {"p": F(1, 2)}, {"p": F(2)}))
_lchk_entry("lchk-m3-hk1", hyperkahler=True)
_lchk_entry("lchk-m3-hk2", hyperkahler=True)
_lchk_entry(
    "lchk-m3-hk3",
    constraints=lambda pr: pr["p"] != 0, text="p != 0",
    samples=({"p": F(1)}, {"p": F(1, 2)}, {"p": F(2)}),
    hyperkahler=True)
_lchk_entry("lchk-m3-1")
_lchk_entry(
    "lchk-m3-2",
    constraints=lambda pr: pr["p"] != 0, text="p != 0",
    samples=({"p": F(1)}, {"p": F(1, 2)}, {"p": F(2)}))
_lchk_entry(
    "lchk-m3-3",
    constraints=lambda pr: pr["p"] * pr["q"] != 0, text="pq != 0",
    samples=({"p": F(1), "q": F(2)}, {"p": F(1, 2), "q": F(1)}, {"p": F(2), "q": F(1, 2)}))


# ---------------------------------------------------------------------------
# verification harness

LCK_LIST = ("g1", "g2", "g3", "g4", "g5", "g6")
LCB_LIST = tuple(f"l{i}" for i in range(1, 18)) + ("n1", "n2")
LCHK_LIST = tuple(name for name in ENTRIES if name.startswith("lchk-"))

_OFF_LOCUS_POOL = (F(1, 3), F(3, 4), F(-5, 4), F(5, 2), F(-7, 3), F(7, 5))


def _off_locus_samples(entry, count=3):
    """Parameter tuples off the unimodularity locus (never-unimodular
    entries reuse their stated samples)."""
    if not callable(entry.unimodular_locus):
        return entry.samples[:count]
    out = []
    base = entry.samples[0]
    for delta in _OFF_LOCUS_POOL:
        cand = {k: v + delta for k, v in base.items()}
        try:
            ok = entry.constraints is None or entry.constraints(cand)
        except Exception:
            ok = False
        if ok and not entry.unimodular_locus(cand):
            out.append(cand)
        if len(out) == count:
            break
    return tuple(out)


def verify_entry(entry: CatalogEntry, samples=None):
    """Verify one entry; returns a result dict with a list of failures."""
    failures = []
    checked = []
    samples = list(samples if samples is not None else entry.samples)
    for params in samples:
        try:
            L = instantiate(entry, params)
        except Exception as exc:
            failures.append(f"{entry.name}{params}: instantiate failed: {exc}")
            continue
        checked.append(params)
        # unimodularity claim
        uni = L.is_unimodular()
        if entry.unimodular_locus is True:
            if not uni:
                failures.append(f"{entry.name}{params}: expected unimodular")
        elif entry.unimodular_locus is None:
            if uni:
                failures.append(f"{entry.name}{params}: unexpectedly unimodular")
        else:
            want = entry.unimodular_locus(params)
            if uni != want:
                failures.append(
                    f"{entry.name}{params}: unimodular = {uni}, locus says {want}")
        # witnesses
        for w in entry.witnesses:
            if isinstance(w, LchkWitness):
                failures.extend(_verify_lchk_witness(entry, L, params, w))
        try:
            structures = witness_structures(entry, L)
        except Exception as exc:
            failures.append(f"{entry.name}{params}: witness build failed: {exc}")
            continue
        for label, H, d, claims in structures:
            failures.extend(check_witness(entry, f"{label}{params}", H, d, claims))
            if not lee_form_closed(d).equals(H.lee_form()):
                failures.append(f"{entry.name}/{label}{params}: closed Lee form mismatch")
    # three perturbed off-locus samples must fail unimodularity
    if callable(entry.unimodular_locus):
        for params in _off_locus_samples(entry):
            try:
                if instantiate(entry, params).is_unimodular():
                    failures.append(f"{entry.name}{params}: off-locus sample unimodular")
            except CatalogError:
                pass
    return {
        "entry": entry.name,
        "samples": checked,
        "failures": failures,
        "not_checked": _not_checked_claims(entry),
        "ok": not failures,
    }


def _not_checked_claims(entry):
    """Global non-existence claims that need a quantifier over all metrics."""
    if entry.name in LCK_LIST:
        return ("admits-no-Kahler-structure (witness-level non-Kahler only)",)
    if entry.name in LCB_LIST:
        return ("admits-no-balanced-or-LCK-structure (witness-level only)",)
    return ()


def _verify_lchk_witness(entry, L, params, w: LchkWitness):
    failures = []
    D = _restrict_last(L)
    verdict = lchk_admissible(D)
    if not verdict.admissible:
        failures.append(f"{entry.name}{params}: expected admissible, got {verdict}")
        return failures
    if verdict.hyperkahler != w.hyperkahler:
        failures.append(
            f"{entry.name}{params}: hyperkahler flag {verdict.hyperkahler}, "
            f"want {w.hyperkahler}")
    Lc, triple, P, dc = construct_lchk(D)
    report = verify_triple(Lc, triple)
    if not report["ok"]:
        bad = [k for k, v in report.items() if not v]
        failures.append(f"{entry.name}{params}: triple checks failed: {bad}")
    if w.hyperkahler:
        if not hyperkahler_flatness(triple, Lc):
            failures.append(f"{entry.name}{params}: hyperkahler witness not flat")
        m0 = next(mult for b, mult in verdict.multiplicities if b == 0)
        kernel = linalg.nullspace(D)
        if len(kernel) != m0:
            failures.append(f"{entry.name}{params}: kernel dim != m_D(0)")
    return failures


def verify_all(names=None, samples=None):
    """Verify the requested entries (all by default); deterministic order."""
    names = sorted(ENTRIES) if names is None else list(names)
    results = []
    t0 = time.monotonic()
    for name in names:
        if name not in ENTRIES:
            raise CatalogError("UNKNOWN_ENTRY", f"no catalog entry named {name}")
        entry = ENTRIES[name]
        use = entry.samples if samples is None else entry.samples[:samples] or entry.samples
        results.append(verify_entry(entry, use))
    return {
        "results": results,
        "ok": all(r["ok"] for r in results),
        "elapsed_s": time.monotonic() - t0,
    }
