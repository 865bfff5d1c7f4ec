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
mandatory once any index reaches 10).  Rational literals keep a document
on the exact kernel; any decimal literal switches the whole document to
floats.  render() produces the canonical form and parse(render(doc))
returns an equal document; the shipped manifest is byte-stable under
parse_manifest/render_manifest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import EXACT, FLOAT, coerce, fmt
from .lie import LieAlgebra, Subspace
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


_NUM_RE = re.compile(r"-?\d+(\.\d+)?(/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Scanner:
    def __init__(self, text, line_no):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message):
        raise ParseError(message, self.line_no, self.pos + 1)

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
        self.pos = m.end()
        return _parse_number(m.group(0))

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def word(self):
        """Algebra names may carry hyphens and plus signs."""
        self.skip_ws()
        m = re.match(r"[A-Za-z_0-9+\-]+", self.text[self.pos:])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group(0)


def _parse_number(tok):
    if "." in tok:
        return float(tok)
    if "/" in tok:
        num, den = tok.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def _scan_f_indices(sc: _Scanner, dim):
    """Parse the index part after 'f': either two digits or i,j."""
    start = sc.pos
    digits = ""
    while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
        digits += sc.text[sc.pos]
        sc.pos += 1
    if not digits:
        sc.error("expected indices after f")
    # A comma immediately followed by a digit is tried as the f{i,j} form;
    # when that reading is out of range the comma separates tuple entries
    # instead (so the spaceless style "(f12,0,0,0)" parses as intended).
    if (sc.pos + 1 < len(sc.text) and sc.text[sc.pos] == ","
            and sc.text[sc.pos + 1].isdigit()):
        mark = sc.pos
        sc.pos += 1
        second = ""
        while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
            second += sc.text[sc.pos]
            sc.pos += 1
        i, j = int(digits), int(second)
        if 1 <= i < j <= dim:
            return i, j
        sc.pos = mark
    if len(digits) != 2:
        sc.error("two-digit index pair required (use f{i,j} for indices >= 10)")
    i, j = int(digits[0]), int(digits[1])
    if not (1 <= i < j <= dim):
        raise ParseError(f"index pair ({i},{j}) out of range for dim {dim}",
                         sc.line_no, start)
    return i, j


def _parse_expression(sc: _Scanner, dim, param_names):
    """Signed sum of coefficient * f terms; '0' is the zero expression."""
    terms = []
    sc.skip_ws()
    if sc.peek() == "0":
        save = sc.pos
        sc.pos += 1
        if sc.at_end() or sc.peek() in ",)":
            return tuple(terms)
        sc.pos = save
    first = True
    while True:
        sc.skip_ws()
        sign = 1
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        elif not first:
            break
        coeff = None
        param = None
        while True:
            sc.skip_ws()
            ch = sc.peek()
            if ch.isdigit():
                if coeff is not None:
                    sc.error("two numeric factors in one term")
                coeff = sc.number()
                sc.take("*")
                continue
            if ch == "f":
                save = sc.pos
                sc.pos += 1
                if sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
                    i, j = _scan_f_indices(sc, dim)
                    break
                sc.pos = save
            m = _NAME_RE.match(sc.text, sc.pos) if ch else None
            if m:
                if param is not None:
                    sc.error("two parameter factors in one term")
                param = m.group(0)
                if param not in param_names:
                    raise ParseError(f"unbound parameter {param!r}",
                                     sc.line_no, sc.pos + 1)
                sc.pos = m.end()
                sc.take("*")
                continue
            sc.error("expected a coefficient or f-term")
        c = Fraction(1) if coeff is None else coeff
        terms.append(Term(i, j, sign * c, param))
        first = False
        sc.skip_ws()
        if sc.peek() not in "+-":
            break
    return tuple(terms)


def _parse_matrix(sc: _Scanner, dim, label):
    """The dim x dim matrix of a J or g line, as a tuple of row tuples."""
    start = sc.pos
    sc.expect("[")
    rows = []
    while True:
        sc.expect("[")
        row = []
        while True:
            row.append(sc.number())
            if not sc.take(","):
                break
        sc.expect("]")
        rows.append(tuple(row))
        if not sc.take(","):
            break
    sc.expect("]")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ParseError(f"{label} matrix must be {dim}x{dim}", sc.line_no, start + 1)
    return tuple(rows)


def _parse_pairing_index(sc: _Scanner, dim):
    """The index of one f-term of a J pairing: an integer in 1..dim."""
    if not sc.take("f"):
        sc.error("expected f-index in J pairing")
    start = sc.pos
    idx = sc.number()
    if not (isinstance(idx, Fraction) and idx.denominator == 1 and 1 <= idx <= dim):
        raise ParseError(f"J index f{idx} is not an integer in 1..{dim}",
                         sc.line_no, start + 1)
    return int(idx)


def _parse_vector_expr(sc: _Scanner, dim):
    """Sum like f3 + 2 f4 as a coefficient vector (for ideal lines)."""
    vec = [Fraction(0)] * dim
    first = True
    while True:
        sc.skip_ws()
        sign = 1
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        elif not first:
            break
        coeff = Fraction(1)
        if sc.peek().isdigit():
            coeff = sc.number()
            sc.take("*")
        sc.skip_ws()
        if not sc.take("f"):
            sc.error("expected f-term in ideal")
        digits = ""
        while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
            digits += sc.text[sc.pos]
            sc.pos += 1
        if not digits:
            sc.error("expected index after f")
        idx = int(digits)
        if not (1 <= idx <= dim):
            sc.error(f"index {idx} out of range")
        vec[idx - 1] += sign * coeff
        first = False
        sc.skip_ws()
        if sc.peek() not in "+-":
            break
    return tuple(vec)


def _parse_ideal(sc: _Scanner, dim):
    """Comma-separated vector sums, as a tuple of coefficient vectors; the
    rest of the line must be empty."""
    vecs = [_parse_vector_expr(sc, dim)]
    while sc.take(","):
        vecs.append(_parse_vector_expr(sc, dim))
    if not sc.at_end():
        sc.error("trailing input after ideal")
    return tuple(vecs)


def parse_ideal(spec, dim):
    """``AlgebraDocument.ideal`` for a spec like 'f2, f3 + f4' (the syntax
    of the ``ideal:`` line); errors give the column in ``spec``."""
    return _parse_ideal(_Scanner(spec, None), dim)


def parse(text) -> AlgebraDocument:
    """Parse one algebra document."""
    lines = text.splitlines()
    name = None
    dim = None
    params = {}
    differential = None
    j_spec = None
    g_spec = None
    ideal = None
    pending = None  # (line_no, accumulated) for a multi-line d = ( ... )
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if pending is not None:
            pending = (pending[0], pending[1] + " " + stripped.strip())
            if _balanced(pending[1]):
                differential = _parse_differential(pending[1], pending[0], dim, params)
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
            while True:
                pname = sc.name()
                sc.expect("=")
                params[pname] = sc.number()
                if not sc.take(","):
                    break
        elif head in ("d", "J", "g", "ideal") and dim is None:
            sc.error("'algebra <name> dim <n>' must come first")
        elif head == "d":
            sc.expect("=")
            rest = stripped[sc.pos:].strip()
            if _balanced(rest):
                differential = _parse_differential(rest, ln, dim, params)
            else:
                pending = (ln, rest)
        elif head == "J":
            sc.expect(":")
            if sc.take("matrix"):
                j_spec = ("matrix", _parse_matrix(sc, dim, head))
            else:
                pairs = []
                while True:
                    a = _parse_pairing_index(sc, dim)
                    sc.expect("-")
                    sc.expect(">")
                    pairs.append((a, _parse_pairing_index(sc, dim)))
                    if not sc.take(","):
                        break
                j_spec = ("pairs", tuple(pairs))
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
            raise ParseError(f"unknown directive {head!r}", ln, 1)
        # a d = ( ... ) tuple may span lines; it checks its own end
        if head != "d" and not sc.at_end():
            sc.error(f"trailing input after {head}")
    if pending is not None:
        raise ParseError("unclosed differential tuple", pending[0])
    if name is None or dim is None:
        raise ParseError("missing 'algebra <name> dim <n>' header")
    if differential is None:
        raise ParseError("missing differential tuple 'd = (...)'")
    kind = _document_kind(params, differential, g_spec, j_spec)
    return AlgebraDocument(name=name, dim=dim, params=params,
                           differential=differential, j_spec=j_spec,
                           g_spec=g_spec, ideal=ideal, kind=kind)


def _balanced(s):
    return s.count("(") > 0 and s.count("(") == s.count(")")


def _parse_differential(body, line_no, dim, params):
    sc = _Scanner(body, line_no)
    sc.expect("(")
    exprs = []
    while True:
        exprs.append(_parse_expression(sc, dim, set(params)))
        if not sc.take(","):
            break
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after differential tuple")
    if len(exprs) != dim:
        raise ParseError(f"differential tuple has {len(exprs)} entries, expected {dim}",
                         line_no)
    return tuple(exprs)


def _document_kind(params, differential, g_spec, j_spec):
    def is_float(x):
        return isinstance(x, float)

    if any(is_float(v) for v in params.values()):
        return FLOAT
    for expr in differential:
        if any(is_float(t.coeff) for t in expr):
            return FLOAT
    for spec in (g_spec, j_spec):
        if spec and spec[0] == "matrix":
            if any(is_float(x) for row in spec[1] for x in row):
                return FLOAT
    return EXACT


# ---------------------------------------------------------------------------
# rendering (canonical form)

def _render_term(t: Term, lead, dim):
    c = t.coeff
    neg = c < 0
    mag = -c if neg else c
    pieces = []
    # a unit rational coefficient is left implicit; floats always render
    if not (isinstance(mag, Fraction) and mag == 1):
        pieces.append(fmt(mag))
    if t.param is not None:
        pieces.append(t.param)
    idx = f"f{t.i}{t.j}" if dim < 10 else f"f{t.i},{t.j}"
    pieces.append(idx)
    body = " ".join(pieces)
    if lead:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


def render(doc: AlgebraDocument) -> str:
    lines = [f"algebra {doc.name} dim {doc.dim}"]
    if doc.params:
        binds = ", ".join(f"{k} = {fmt(v)}" for k, v in doc.params.items())
        lines.append(f"params {binds}")
    exprs = []
    for expr in doc.differential:
        if not expr:
            exprs.append("0")
            continue
        out = ""
        for pos, t in enumerate(expr):
            out += _render_term(t, pos == 0, doc.dim)
        exprs.append(out)
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
        parts = []
        for vec in doc.ideal:
            terms = []
            for idx, c in enumerate(vec, start=1):
                if c == 0:
                    continue
                if c == 1:
                    terms.append(f"f{idx}" if not terms else f"+ f{idx}")
                elif c == -1:
                    terms.append(f"-f{idx}" if not terms else f"- f{idx}")
                else:
                    mag = -c if c < 0 else c
                    if not terms:
                        terms.append(("-" if c < 0 else "") + f"{fmt(mag)} f{idx}")
                    else:
                        terms.append(("- " if c < 0 else "+ ") + f"{fmt(mag)} f{idx}")
            parts.append(" ".join(terms))
        lines.append("ideal: " + ", ".join(parts))
    return "\n".join(lines) + "\n"


def _render_matrix(rows):
    return "[" + ", ".join("[" + ", ".join(fmt(x) for x in row) + "]" for row in rows) + "]"


MANIFEST_HEADER = "# aalg-catalog/1"


def parse_manifest(text):
    """Split a manifest into documents (header line + blank-separated docs)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MANIFEST_HEADER):
        raise ParseError("manifest must start with the header " + MANIFEST_HEADER, 1)
    docs = []
    chunk = []
    for raw in lines[1:]:
        if raw.strip():
            chunk.append(raw)
        elif chunk:
            docs.append(parse("\n".join(chunk)))
            chunk = []
    if chunk:
        docs.append(parse("\n".join(chunk)))
    return docs


def render_manifest(docs) -> str:
    return MANIFEST_HEADER + "\n\n" + "\n".join(render(d) for d in docs)


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
            vec = brackets.setdefault(key, [Fraction(0) if doc.kind == EXACT else 0.0]
                                      * doc.dim)
            vec[k] -= val
    brackets = {k: v for k, v in brackets.items() if any(x != 0 for x in v)}
    return LieAlgebra(doc.dim, brackets,
                      kind=doc.kind)


def to_complex_structure(doc: AlgebraDocument):
    if doc.j_spec is None:
        return None
    if doc.j_spec[0] == "pairs":
        pairs = [(a - 1, b - 1) for a, b in doc.j_spec[1]]
        return ComplexStructure.from_pairs(doc.dim, pairs,
                                           kind=doc.kind)
    rows = [[float(x) if doc.kind == FLOAT else Fraction(x) for x in row]
            for row in doc.j_spec[1]]
    return ComplexStructure.from_matrix(rows)


def to_metric(doc: AlgebraDocument):
    if doc.g_spec is None:
        return None
    if doc.g_spec[0] == "identity":
        return Metric.identity(doc.dim, doc.kind)
    rows = [[float(x) if doc.kind == FLOAT else Fraction(x) for x in row]
            for row in doc.g_spec[1]]
    return Metric.from_matrix(rows)


def to_ideal(doc: AlgebraDocument):
    if doc.ideal is None:
        return None
    vecs = [tuple(float(x) if doc.kind == FLOAT else Fraction(x) for x in v)
            for v in doc.ideal]
    return Subspace(len(vecs), tuple(vecs))
