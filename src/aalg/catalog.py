"""Machine-readable catalog of the named algebras and their witnesses.

Every fact of an entry is written once, on the entry's chunk of the
shipped manifest (``data/catalog.alg``), in the document grammar of
``aalg.documents``:

    algebra l1 dim 6
    params p = 1, q = -3/2
    d = (f16, p f26, p f36, q f46, q f56, 0)
    J: f1->f6, f2->f3, f4->f5
    g: identity
    samples: p = 1/2, q = -1; p = 2, q = 1
    nonzero: p, q, p - q, p + q
    unimodular: 1 + 2 p + 2 q
    witness lcb: lcb, -balanced, -lck

* the document (structure equations, J, g, optional ideal) binds the
  parameters to the first sample; ``samples:`` lists the others;
* ``nonzero:`` lists the linear forms in the parameters that must not
  vanish (their conjunction is the entry's constraint);
* ``unimodular:`` is ``always``, ``never`` or the linear form whose zero
  set is the unimodular locus -- a claim to check, not a value computed
  from tr ad;
* each ``witness <label>:`` line lists the claimed verdicts (``-`` for
  false) of the document's J with its g, or with the Gram matrix after
  ``; g: matrix``; an LCHK witness claims ``lchk`` (the ad-matrix on the
  abelian ideal is LCHK-admissible, with the triple and flatness checks)
  and whether it is ``hyperkahler``.

``ENTRIES`` is the manifest in its order, with the generated s_2n family
(``_s2n_entry``) before the LCHK lists.  The manifest is parsed on the
first read of ``ENTRIES`` or ``LCHK_LIST``, not at import.  Readings of
the paper's tables: l1's stated ``pr != 0`` is read as ``pq != 0``; g3's
label parameters are read as (p, q, r), r being the live rotation
parameter; l7's witness realizes the nonzero-v case with a = p = 1.

verify_all instantiates every entry at its samples, checks the witness
claims through both the data-level and the direct-form predicates, the
unimodular locus (and its failure at three bindings off the locus), and
the LCHK admissibility/flatness claims.  Negative classification claims
that need a quantifier over all metrics are reported NOT-CHECKED.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import linalg

from .documents import (AlgebraDocument, LinearForm, Term, Witness, parse_manifest,
                        to_algebra, to_complex_structure, to_ideal, to_metric)
from .hermitian import HermitianStructure, Metric
from .lie import LieAlgebra
from .almost_abelian import extract_data, lee_form_closed, route_verdicts
from .lchk import LchkError, construct_lchk, hyperkahler_flatness, verify_triple


class CatalogError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


F = Fraction


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: AlgebraDocument         # structure equations, J, g and ideal
    samples: tuple                    # parameter bindings; the first is the document's
    nonzero: tuple                    # LinearForms that must not vanish
    unimodular: object                # True (always), False (never) or a LinearForm
    witnesses: tuple                  # Witness, in manifest order

    @property
    def dim(self):
        return self.document.dim

    @property
    def params(self):
        return tuple(self.document.params)


def shipped_manifest_text() -> str:
    """Contents of the manifest file shipped with the package."""
    from importlib import resources
    return resources.files("aalg").joinpath("data/catalog.alg").read_text("utf-8")


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
    for form in entry.nonzero:
        if form(params) == 0:
            raise CatalogError(
                "CONSTRAINT_VIOLATION",
                f"{entry.name}: parameters {params} violate {form} != 0")
    return to_algebra(entry_document(entry, params))


def _is_lchk(witness):
    return "lchk" in witness.claims


def witness_structures(entry: CatalogEntry, L: LieAlgebra):
    """All witness Hermitian structures on ``L``, the entry's algebra as
    ``instantiate`` built it; the abelian ideal is looked up (once, on L)
    only when the entry has a witness other than an LCHK one.

    Returns a list of (label, HermitianStructure, HermitianData, claims).
    """
    explicit = [w for w in entry.witnesses if not _is_lchk(w)]
    if not explicit:
        return []
    ideal = to_ideal(entry.document)
    J = to_complex_structure(entry.document)
    out = []
    for w in explicit:
        g = to_metric(entry.document) if w.metric is None else Metric.from_matrix(w.metric)
        H = HermitianStructure(L, J, g)
        out.append((w.label, H, extract_data(H, ideal), dict(w.claims)))
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
        direct, data, _ = route_verdicts(H, d, prop)
        if direct != expected:
            failures.append(f"{entry.name}/{label}: direct {prop} = {direct}, want {expected}")
        if data is not None and data != expected:
            failures.append(f"{entry.name}/{label}: data {prop} = {data}, want {expected}")
    return failures


# ---------------------------------------------------------------------------
# entries: the manifest's, and the generated s_2n family


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
    """s_2n: SKT and LCB, not balanced, unimodular, for nonzero a and c.
    Its samples bind (a, c) to (1, 1), (-2, 1/2) and (1/2, 2); s4 has no c."""
    document = _s2n_document(n)
    names = tuple(document.params)
    more = ((F(-2), F(1, 2)), (F(1, 2), F(2)))
    return CatalogEntry(
        name=document.name, document=document,
        samples=(dict(document.params),) + tuple(dict(zip(names, v)) for v in more),
        nonzero=tuple(LinearForm(((F(1), p),)) for p in names),
        unimodular=True,
        witnesses=(Witness("skt-lcb", {"skt": True, "lcb": True, "balanced": False}, None),))


@functools.cache
def _entries():
    """The manifest's entries in its order, the s_2n family for 2n = 4, 6,
    8 before the LCHK lists.  A manifest name's '_' reads '+' in the
    entry name (aff2_2R is aff2+2R)."""
    listed = [CatalogEntry(name=doc.name.replace("_", "+"), document=doc, **facts)
              for doc, facts in parse_manifest(shipped_manifest_text())]
    cut = next(i for i, e in enumerate(listed) if e.name.startswith("lchk-"))
    family = [_s2n_entry(n) for n in (2, 3, 4)]
    return {e.name: e for e in listed[:cut] + family + listed[cut:]}


def __getattr__(name):
    """``ENTRIES`` and ``LCHK_LIST``, built on first read and then kept as
    module attributes."""
    if name == "ENTRIES":
        value = _entries()
    elif name == "LCHK_LIST":
        value = tuple(n for n in _entries() if n.startswith("lchk-"))
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# ---------------------------------------------------------------------------
# verification harness

LCK_LIST = ("g1", "g2", "g3", "g4", "g5", "g6")
LCB_LIST = tuple(f"l{i}" for i in range(1, 18)) + ("n1", "n2")

_OFF_LOCUS_POOL = (F(1, 3), F(3, 4), F(-5, 4), F(5, 2), F(-7, 3), F(7, 5))


def _off_locus_samples(entry):
    """Up to three bindings off the unimodular locus of an entry whose
    locus is a form: the first sample shifted by each pool value that
    keeps the constraints and leaves the locus."""
    out = []
    for delta in _OFF_LOCUS_POOL:
        cand = {k: v + delta for k, v in entry.samples[0].items()}
        if all(form(cand) != 0 for form in entry.nonzero) and entry.unimodular(cand) != 0:
            out.append(cand)
        if len(out) == 3:
            break
    return tuple(out)


def verify_entry(entry: CatalogEntry, samples=None):
    """Verify one entry; returns a result dict with a list of failures."""
    failures = []
    checked = []
    samples = list(samples if samples is not None else entry.samples)
    locus = entry.unimodular
    for params in samples:
        try:
            L = instantiate(entry, params)
        except ValueError as exc:
            failures.append(f"{entry.name}{params}: instantiate failed: {exc}")
            continue
        checked.append(params)
        want = locus if isinstance(locus, bool) else locus(params) == 0
        if L.is_unimodular() != want:
            failures.append(f"{entry.name}{params}: unimodular = {not want}, locus says {want}")
        for w in entry.witnesses:
            if _is_lchk(w):
                failures.extend(_verify_lchk_witness(entry, L, params, w))
        try:
            structures = witness_structures(entry, L)
        except ValueError as exc:
            failures.append(f"{entry.name}{params}: witness build failed: {exc}")
            continue
        for label, H, d, claims in structures:
            failures.extend(check_witness(entry, f"{label}{params}", H, d, claims))
            if not lee_form_closed(d).equals(H.lee_form()):
                failures.append(f"{entry.name}/{label}{params}: closed Lee form mismatch")
    # three perturbed off-locus samples must fail unimodularity
    if not isinstance(locus, bool):
        for params in _off_locus_samples(entry):
            if instantiate(entry, params).is_unimodular():
                failures.append(f"{entry.name}{params}: off-locus sample unimodular")
    return {
        "entry": entry.name,
        "ok": not failures,
        "samples": checked,
        "failures": failures,
        "not_checked": _not_checked_claims(entry),
    }


def _not_checked_claims(entry):
    """Global non-existence claims that need a quantifier over all metrics."""
    if entry.name in LCK_LIST:
        return ("admits-no-Kahler-structure (witness-level non-Kahler only)",)
    if entry.name in LCB_LIST:
        return ("admits-no-balanced-or-LCK-structure (witness-level only)",)
    return ()


def _verify_lchk_witness(entry, L, params, w):
    failures = []
    D = _restrict_last(L)
    verdict, witness = construct_lchk(D)
    if not verdict.admissible:
        failures.append(f"{entry.name}{params}: expected admissible, got {verdict}")
        return failures
    if verdict.hyperkahler != w.hyperkahler:
        failures.append(
            f"{entry.name}{params}: hyperkahler flag {verdict.hyperkahler}, "
            f"want {w.hyperkahler}")
    if isinstance(witness, LchkError):
        return failures + [f"{entry.name}{params}: no witness: {witness}"]
    Lc, triple, P, dc = witness
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
    entries = _entries()
    names = sorted(entries) if names is None else list(names)
    if samples is not None and samples < 1:
        raise CatalogError("BAD_SAMPLES", f"samples must be at least 1, not {samples}")
    results = []
    t0 = time.monotonic()
    for name in names:
        if name not in entries:
            raise CatalogError("UNKNOWN_ENTRY", f"no catalog entry named {name}")
        entry = entries[name]
        results.append(verify_entry(entry, entry.samples[:samples]))
    return {
        "results": results,
        "ok": all(r["ok"] for r in results),
        "elapsed_s": time.monotonic() - t0,
    }
