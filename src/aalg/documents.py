"""Structure-equation documents: the text grammar shared by the CLI and
the shipped catalog manifest.

    # comments run to end of line (ignored outside the manifest header)
    algebra g1 dim 6
    params p = -1/4, q = 2
    d = (f16, p f26, p f36, q f46, q f56, 0)
    J: f1->f6, f2->f3, f4->f5
    g: identity
    ideal: f1, f2, f3, f4, f5

Indices are written f16 for single digits and f1,12 (comma form,
mandatory once any index reaches 10).  The ``d =`` entries, the ideal
sums and the catalog's linear forms are read by one signed-term reader;
its terms end with an index pair, one index or no index respectively.
Rational literals keep a document on the exact kernel; any decimal
literal, the ideal's included, switches the whole document to floats.
render() produces the canonical form and parse(render(doc)) returns an
equal document.

The manifest is a header line and blank-separated chunks: a document and
its catalog lines (``samples:``, ``nonzero:``, ``unimodular:`` and
``witness``; see ``aalg.catalog``).  Only parse_manifest reads catalog
lines -- parse() rejects them as unknown directives -- and
render_manifest writes them back: the shipped manifest is byte-stable
under the pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import EXACT, FLOAT, coerce, fmt, zero
from .lie import LieAlgebra
from .hermitian import ComplexStructure, Metric


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = [f"{name} {val}" for name, val in (("line", line), ("column", col))
                 if val is not None]
        super().__init__(f"{message} at {', '.join(where)}" if where else message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Term:
    """One summand c * p * f^{i,j} of a differential expression."""
    i: int
    j: int
    coeff: object
    param: str | None = None


@dataclass
class AlgebraDocument:
    name: str
    dim: int
    params: dict = field(default_factory=dict)
    differential: tuple = ()          # tuple over k of tuple[Term]
    j_spec: tuple | None = None       # ("pairs", ((i, j), ...)) | ("matrix", rows)
    g_spec: tuple | None = None       # ("identity",) | ("matrix", rows)
    ideal: tuple | None = None        # tuple of coefficient vectors (1-based input)
    kind: str = EXACT

    def __eq__(self, other):
        if not isinstance(other, AlgebraDocument):
            return NotImplemented
        return (self.name == other.name and self.dim == other.dim
                and list(self.params.items()) == list(other.params.items())
                and self.differential == other.differential
                and self.j_spec == other.j_spec and self.g_spec == other.g_spec
                and self.ideal == other.ideal and self.kind == other.kind)


DOCUMENT_HEADS = ("d", "J", "g", "ideal")
# catalog lines: parse_manifest reads them, parse() rejects them
CATALOG_HEADS = ("samples", "nonzero", "unimodular", "witness")
# a witness claims verdicts of these properties; an LCHK witness claims
# lchk (its D is LCHK-admissible) and whether it is hyperkahler
CLAIMS = ("kahler", "lck", "balanced", "skt", "lcb", "vaisman", "lchk", "hyperkahler")


@dataclass(frozen=True)
class LinearForm:
    """c_0 + c_1 p_1 + ... in the parameters, as (coeff, param) terms in
    written order; param None is the constant term."""
    terms: tuple

    def __call__(self, params):
        return sum(c if p is None else c * params[p] for c, p in self.terms)

    def __str__(self):
        return _render_terms([(c, p, None) for c, p in self.terms], 0)


@dataclass(frozen=True)
class Witness:
    """A witness line: the claimed verdicts in written order, and the Gram
    matrix of the witness's own metric (None: the document's g)."""
    label: str
    claims: dict
    metric: tuple | None

    @property
    def hyperkahler(self):
        return self.claims.get("hyperkahler")


_NUM_RE = re.compile(r"-?\d+(\.\d+)?(/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Scanner:
    def __init__(self, text, line_no):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        # (offset in text, line number) of each physical line: a multi-line
        # d = ( ... ) tuple appends its continuation lines
        self.starts = [(0, line_no)]

    def error(self, message):
        self.error_at(self.pos, message)

    def error_at(self, pos, message):
        """ParseError at the line and column of text position ``pos``."""
        offset, line = max(start for start in self.starts if start[0] <= pos)
        raise ParseError(message, line, pos - offset + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def number(self):
        self.skip_ws()
        m = _NUM_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        tok = m.group(0)
        try:
            value = float(tok) if "." in tok else Fraction(tok)
            if "." in tok and abs(value) == float("inf"):    # beyond double precision
                raise ValueError
        except (ValueError, ZeroDivisionError):
            self.error(f"bad number {tok!r}")
        self.pos = m.end()
        return value

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def digits(self):
        """The run of digits at the current position (no whitespace skipped)."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start:self.pos]

    def word(self):
        """Algebra names may carry hyphens and plus signs."""
        self.skip_ws()
        m = re.match(r"[A-Za-z_0-9+\-]+", self.text[self.pos:])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group(0)


def _listed(sc: _Scanner, sep, read):
    """read() once, then again after each ``sep``: the items as a list."""
    items = [read()]
    while sc.take(sep):
        items.append(read())
    return items


def _scan_f_index(sc: _Scanner, dim, arity):
    """The index after an 'f': one index in 1..dim (arity 1), or a pair
    i < j written as two digits or as i,j (arity 2)."""
    start = sc.pos
    digits = sc.digits()
    if not digits:
        sc.error("expected an index after f")
    if arity == 1:
        idx = int(digits)
        if not 1 <= idx <= dim:
            sc.error(f"index {idx} out of range")
        return idx
    # A comma immediately followed by a digit is tried as the f{i,j} form;
    # when that reading is out of range the comma separates tuple entries
    # instead (so the spaceless style "(f12,0,0,0)" parses as intended).
    if sc.text[sc.pos:sc.pos + 1] == "," and sc.text[sc.pos + 1:sc.pos + 2].isdigit():
        mark = sc.pos
        sc.pos += 1
        i, j = int(digits), int(sc.digits())
        if 1 <= i < j <= dim:
            return i, j
        sc.pos = mark
    if len(digits) != 2:
        sc.error("two-digit index pair required (use f{i,j} for indices >= 10)")
    i, j = int(digits[0]), int(digits[1])
    if not (1 <= i < j <= dim):
        sc.error_at(start - 1, f"index pair ({i},{j}) out of range for dim {dim}")
    return i, j


def _parse_terms(sc: _Scanner, arity, dim, param_names):
    """Signed sum of terms c * p * f-index, as (coeff, param, index)
    triples in written order.  A term has at most one number and one
    parameter, and ends with its f-index: a pair (arity 2, the ``d =``
    expressions), one index (arity 1, the ideal sums) or none (arity 0,
    the catalog's linear forms in the parameters)."""
    terms = []
    while True:
        if sc.take("-"):
            sign = -1
        elif sc.take("+") or not terms:
            sign = 1
        else:
            return terms
        coeff = param = index = None
        while index is None:
            ch = sc.peek()
            name = _NAME_RE.match(sc.text, sc.pos)
            if ch.isdigit():
                if coeff is not None:
                    sc.error("two numeric factors in one term")
                coeff = sc.number()
            elif arity and ch == "f" and sc.text[sc.pos + 1:sc.pos + 2].isdigit():
                sc.pos += 1
                index = _scan_f_index(sc, dim, arity)
                continue
            elif name:
                if param is not None:
                    sc.error("two parameter factors in one term")
                param = name.group(0)
                if param not in param_names:
                    sc.error(f"unbound parameter {param!r}")
                sc.pos = name.end()
            elif arity or (coeff is None and param is None):
                sc.error("expected a coefficient or f-term")
            else:
                break
            sc.take("*")
        terms.append((sign * (Fraction(1) if coeff is None else coeff), param, index))


def _parse_expression(sc: _Scanner, dim, param_names):
    """One entry of a ``d =`` tuple; '0' is the zero expression."""
    if sc.peek() == "0":
        save = sc.pos
        sc.pos += 1
        if sc.at_end() or sc.peek() in ",)":
            return ()
        sc.pos = save
    return tuple(Term(i, j, c, p) for c, p, (i, j) in _parse_terms(sc, 2, dim, param_names))


def _parse_matrix(sc: _Scanner, dim, label):
    """The dim x dim matrix of a J or g line, as a tuple of row tuples."""
    start = sc.pos

    def row():
        sc.expect("[")
        entries = tuple(_listed(sc, ",", sc.number))
        sc.expect("]")
        return entries

    sc.expect("[")
    rows = tuple(_listed(sc, ",", row))
    sc.expect("]")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        sc.error_at(start, f"{label} matrix must be {dim}x{dim}")
    return rows


def _parse_vector_expr(sc: _Scanner, dim):
    """Sum like f3 + 2 f4 as a coefficient vector (for ideal lines)."""
    vec = [Fraction(0)] * dim
    for c, _, idx in _parse_terms(sc, 1, dim, ()):
        vec[idx - 1] += c
    return tuple(vec)


def _parse_ideal(sc: _Scanner, dim):
    """Comma-separated vector sums, as a tuple of coefficient vectors; the
    rest of the line must be empty."""
    vecs = _listed(sc, ",", lambda: _parse_vector_expr(sc, dim))
    if not sc.at_end():
        sc.error("trailing input after ideal")
    return tuple(vecs)


def parse_ideal(spec, dim):
    """``AlgebraDocument.ideal`` for a spec like 'f2, f3 + f4' (the syntax
    of the ``ideal:`` line); errors give the column in ``spec``."""
    return _parse_ideal(_Scanner(spec, None), dim)


def parse(text) -> AlgebraDocument:
    """Parse one algebra document."""
    return _parse_lines(enumerate(text.splitlines(), start=1), None)


def _parse_lines(numbered, facts):
    """The document on the numbered lines.  With a ``facts`` dict (the
    manifest), the catalog lines are read into it; without one they are
    unknown directives."""
    name = None
    dim = None
    params = {}
    differential = None
    j_spec = None
    g_spec = None
    ideal = None
    pending = None  # the scanner of a multi-line d = ( ... ), until it closes
    heads = DOCUMENT_HEADS + (CATALOG_HEADS if facts is not None else ())
    for ln, raw in numbered:
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if pending is not None:
            pending.starts.append((len(pending.text) + 1, ln))
            pending.text += " " + stripped
            if _balanced(pending.text):
                differential = _parse_differential(pending, dim, params)
                pending = None
            continue
        sc = _Scanner(stripped, ln)
        head = sc.name()
        if head == "algebra":
            name = sc.word()
            kw = sc.name()
            if kw != "dim":
                sc.error("expected 'dim'")
            d = sc.number()
            if not isinstance(d, Fraction) or d.denominator != 1 or d <= 0:
                sc.error("dimension must be a positive integer")
            dim = int(d)
        elif head == "params":
            params.update(_parse_bindings(sc))
        elif head not in heads:
            raise ParseError(f"unknown directive {head!r}", ln, 1)
        elif dim is None:
            sc.error("'algebra <name> dim <n>' must come first")
        elif head == "d":
            sc.expect("=")
            if _balanced(sc.text):
                differential = _parse_differential(sc, dim, params)
            else:
                pending = sc
        elif head == "J":
            sc.expect(":")
            if sc.take("matrix"):
                j_spec = ("matrix", _parse_matrix(sc, dim, head))
            else:
                j_spec = ("pairs", tuple(_listed(sc, ",", lambda: _parse_pair(sc, dim))))
        elif head == "g":
            sc.expect(":")
            if sc.take("identity"):
                g_spec = ("identity",)
            elif sc.take("matrix"):
                g_spec = ("matrix", _parse_matrix(sc, dim, head))
            else:
                sc.error("expected 'identity' or 'matrix [...]'")
        elif head == "ideal":
            sc.expect(":")
            ideal = _parse_ideal(sc, dim)
        else:
            _parse_fact(sc, head, dim, params, facts)
        # a d = ( ... ) tuple may span lines; it checks its own end
        if head != "d" and not sc.at_end():
            sc.error(f"trailing input after {head}")
    if pending is not None:
        raise ParseError("unclosed differential tuple", pending.line_no)
    if name is None or dim is None:
        raise ParseError("missing 'algebra <name> dim <n>' header")
    if differential is None:
        raise ParseError("missing differential tuple 'd = (...)'")
    kind = _document_kind(params, differential, j_spec, g_spec, ideal)
    return AlgebraDocument(name=name, dim=dim, params=params,
                           differential=differential, j_spec=j_spec,
                           g_spec=g_spec, ideal=ideal, kind=kind)


def _parse_pair(sc: _Scanner, dim):
    """One J pairing fa->fb as (a, b)."""
    sc.expect("f")
    a = _scan_f_index(sc, dim, 1)
    for token in ("-", ">", "f"):
        sc.expect(token)
    return a, _scan_f_index(sc, dim, 1)


def _parse_bindings(sc: _Scanner):
    """name = number, ... as a dict in written order."""
    def binding():
        pname = sc.name()
        sc.expect("=")
        return pname, sc.number()
    return dict(_listed(sc, ",", binding))


def _parse_fact(sc: _Scanner, head, dim, params, facts):
    """One catalog line into ``facts``; every line but ``witness`` is
    written at most once."""
    if head == "witness":
        facts.setdefault(head, []).append(_parse_witness(sc, dim))
        return
    if head in facts:
        sc.error(f"repeated {head} line")
    sc.expect(":")
    if head == "samples":
        facts[head] = _listed(sc, ";", lambda: _parse_bindings(sc))
        if any(list(b) != list(params) for b in facts[head]):
            sc.error("each sample binds the parameters of the params line, in order")
    elif head == "nonzero":
        facts[head] = _listed(sc, ",", lambda: _parse_form(sc, params))
    elif sc.take("always"):
        facts[head] = True
    elif sc.take("never"):
        facts[head] = False
    else:
        facts[head] = _parse_form(sc, params)


def _parse_witness(sc: _Scanner, dim):
    """label: claims (a leading '-' claims false), then optionally
    '; g: matrix [...]'."""
    label = sc.word()
    sc.expect(":")

    def claim():
        want = not sc.take("-")
        name = sc.name()
        if name not in CLAIMS:
            sc.error(f"unknown claim {name!r}")
        return name, want

    claims = dict(_listed(sc, ",", claim))
    metric = None
    if sc.take(";"):
        for token in ("g", ":", "matrix"):
            sc.expect(token)
        metric = _parse_matrix(sc, dim, "g")
    return Witness(label, claims, metric)


def _parse_form(sc: _Scanner, params):
    return LinearForm(tuple((c, p) for c, p, _ in _parse_terms(sc, 0, 0, params)))


def _balanced(s):
    return s.count("(") > 0 and s.count("(") == s.count(")")


def _parse_differential(sc: _Scanner, dim, params):
    sc.expect("(")
    exprs = _listed(sc, ",", lambda: _parse_expression(sc, dim, set(params)))
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after differential tuple")
    if len(exprs) != dim:
        raise ParseError(f"differential tuple has {len(exprs)} entries, expected {dim}",
                         sc.line_no)
    return tuple(exprs)


def _document_kind(params, differential, j_spec, g_spec, ideal):
    """Float if any value of the document is a decimal, else exact."""
    values = [*params.values(), *(t.coeff for expr in differential for t in expr),
              *(x for vec in ideal or () for x in vec)]
    for spec in (j_spec, g_spec):
        if spec and spec[0] == "matrix":
            values += [x for row in spec[1] for x in row]
    return FLOAT if any(isinstance(x, float) for x in values) else EXACT


# ---------------------------------------------------------------------------
# rendering (canonical form)

def _render_terms(terms, dim):
    """The text _parse_terms reads as ``terms``: a unit rational factor
    before a parameter or an f-index is left implicit; floats always
    render."""
    out = ""
    for c, param, index in terms:
        neg = c < 0
        mag = -c if neg else c
        pieces = []
        if not (isinstance(mag, Fraction) and mag == 1 and (param or index)):
            pieces.append(fmt(mag))
        if param is not None:
            pieces.append(param)
        if isinstance(index, int):
            pieces.append(f"f{index}")
        elif index is not None:
            pieces.append(f"f{index[0]}{index[1]}" if dim < 10 else f"f{index[0]},{index[1]}")
        body = " ".join(pieces)
        out += (("-" if neg else "") if not out else (" - " if neg else " + ")) + body
    return out


def _render_bindings(binding):
    return ", ".join(f"{k} = {fmt(v)}" for k, v in binding.items())


def render(doc: AlgebraDocument) -> str:
    lines = [f"algebra {doc.name} dim {doc.dim}"]
    if doc.params:
        lines.append(f"params {_render_bindings(doc.params)}")
    exprs = [_render_terms([(t.coeff, t.param, (t.i, t.j)) for t in expr], doc.dim) or "0"
             for expr in doc.differential]
    lines.append("d = (" + ", ".join(exprs) + ")")
    if doc.j_spec:
        if doc.j_spec[0] == "pairs":
            lines.append("J: " + ", ".join(f"f{a}->f{b}" for a, b in doc.j_spec[1]))
        else:
            lines.append("J: matrix " + _render_matrix(doc.j_spec[1]))
    if doc.g_spec:
        if doc.g_spec[0] == "identity":
            lines.append("g: identity")
        else:
            lines.append("g: matrix " + _render_matrix(doc.g_spec[1]))
    if doc.ideal:
        lines.append("ideal: " + ", ".join(
            _render_terms([(c, None, i) for i, c in enumerate(vec, start=1) if c != 0], doc.dim)
            for vec in doc.ideal))
    return "\n".join(lines) + "\n"


def _render_matrix(rows):
    return "[" + ", ".join("[" + ", ".join(fmt(x) for x in row) + "]" for row in rows) + "]"


def _render_facts(facts):
    """The catalog lines of one manifest chunk, as parse_manifest read them."""
    lines = []
    if facts["samples"][1:]:
        lines.append("samples: " + "; ".join(map(_render_bindings, facts["samples"][1:])))
    if facts["nonzero"]:
        lines.append("nonzero: " + ", ".join(map(str, facts["nonzero"])))
    locus = facts["unimodular"]
    lines.append("unimodular: " + {True: "always", False: "never"}.get(locus, str(locus)))
    for w in facts["witnesses"]:
        claims = ", ".join(("" if want else "-") + claim for claim, want in w.claims.items())
        metric = "" if w.metric is None else "; g: matrix " + _render_matrix(w.metric)
        lines.append(f"witness {w.label}: {claims}{metric}")
    return "".join(line + "\n" for line in lines)


MANIFEST_HEADER = "# aalg-catalog/1"


def parse_manifest(text):
    """(document, facts) for each blank-separated chunk after the header
    line.  ``facts`` holds the chunk's catalog lines by the fields of a
    catalog entry: ``samples`` (the params line's binding first, then the
    samples line's), ``nonzero``, ``unimodular`` and ``witnesses``."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MANIFEST_HEADER):
        raise ParseError("manifest must start with the header " + MANIFEST_HEADER, 1)
    chunks = [[]]
    for ln, raw in enumerate(lines[1:], start=2):
        if raw.strip():
            chunks[-1].append((ln, raw))
        elif chunks[-1]:
            chunks.append([])
    return [_parse_chunk(chunk) for chunk in chunks if chunk]


def _parse_chunk(numbered):
    facts = {}
    doc = _parse_lines(numbered, facts)
    for head in ("unimodular", "witness"):
        if head not in facts:
            raise ParseError(f"{doc.name} has no {head} line", numbered[0][0])
    return doc, {"samples": (dict(doc.params), *facts.get("samples", ())),
                 "nonzero": tuple(facts.get("nonzero", ())),
                 "unimodular": facts["unimodular"],
                 "witnesses": tuple(facts["witness"])}


def render_manifest(chunks) -> str:
    return MANIFEST_HEADER + "\n\n" + "\n".join(
        render(doc) + _render_facts(facts) for doc, facts in chunks)


# ---------------------------------------------------------------------------
# document -> structures

def _term_value(t: Term, params, kind):
    c = t.coeff
    if t.param is not None:
        c = c * params[t.param]
    return coerce(c, kind)


def to_algebra(doc: AlgebraDocument) -> LieAlgebra:
    """Validated Lie algebra with the document's bindings substituted."""
    for expr in doc.differential:
        for t in expr:
            if t.param is not None and t.param not in doc.params:
                raise ParseError(f"unbound parameter {t.param!r}")
    brackets = {}
    for k, expr in enumerate(doc.differential):
        for t in expr:
            val = _term_value(t, doc.params, doc.kind)
            key = (t.i - 1, t.j - 1)
            vec = brackets.setdefault(key, [zero(doc.kind)] * doc.dim)
            vec[k] -= val
    brackets = {k: v for k, v in brackets.items() if any(x != 0 for x in v)}
    return LieAlgebra(doc.dim, brackets,
                      kind=doc.kind)


def _on_kind(rows, kind, what):
    """The rows with every value coerced to the document's kind.  parse()
    gives a decimal only to a float document; a decimal spec put into an
    exact document (``--ideal``) is an input error."""
    if kind == EXACT and any(isinstance(x, float) for row in rows for x in row):
        raise ParseError(f"decimal literal in the {what} of an exact document")
    return [[coerce(x, kind) for x in row] for row in rows]


def to_complex_structure(doc: AlgebraDocument):
    if doc.j_spec is None:
        return None
    if doc.j_spec[0] == "pairs":
        pairs = [(a - 1, b - 1) for a, b in doc.j_spec[1]]
        return ComplexStructure.from_pairs(doc.dim, pairs, kind=doc.kind)
    return ComplexStructure.from_matrix(_on_kind(doc.j_spec[1], doc.kind, "J"))


def to_metric(doc: AlgebraDocument):
    if doc.g_spec is None:
        return None
    if doc.g_spec[0] == "identity":
        return Metric.identity(doc.dim, doc.kind)
    return Metric.from_matrix(_on_kind(doc.g_spec[1], doc.kind, "metric"))


def to_ideal(doc: AlgebraDocument):
    if doc.ideal is None:
        return None
    return tuple(map(tuple, _on_kind(doc.ideal, doc.kind, "ideal")))
