"""Parser and renderer: grammar coverage, round trips, manifests."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg.documents import (AlgebraDocument, ParseError, Term, parse, parse_ideal,
                            parse_manifest, render, render_manifest,
                            to_algebra, to_complex_structure, to_ideal,
                            to_metric)
from aalg.scalars import EXACT, FLOAT

from conftest import bracket


def test_parse_h3r():
    doc = parse("algebra h3R dim 4\nd = (0,0,0,f12)")
    assert doc.name == "h3R" and doc.dim == 4
    L = to_algebra(doc)
    assert bracket(L, 0, 1) == [F(0), F(0), F(0), F(-1)]


def test_parse_g4():
    doc = parse("algebra g4 dim 6\nd = (f16,f26,f36,f46,0,0)")
    L = to_algebra(doc)
    ad = L.ad_basis(5)
    assert [ad[i][i] for i in range(6)] == [F(1)] * 4 + [F(0)] * 2


def test_unclosed_tuple_error():
    with pytest.raises(ParseError) as err:
        parse("algebra x dim 6\nd = (f16")
    assert "unclosed" in str(err.value)
    assert err.value.line == 2


def test_positioned_errors():
    with pytest.raises(ParseError) as err:
        parse("algebra x dim 4\nd = (f16, 0, 0, 0)")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("algebra x dim 4\nd = (f12, 0, 0)")
    with pytest.raises(ParseError) as err:
        parse("algebra x dim 4\nd = (z f12, 0, 0, 0)")
    assert "unbound parameter" in str(err.value)


@pytest.mark.parametrize("line", ["J: f1->f2", "g: identity", "ideal: f1"])
def test_lines_read_against_dim_need_the_header_first(line):
    with pytest.raises(ParseError) as err:
        parse(line + "\nalgebra x dim 2\nd = (0, 0)")
    assert "must come first" in str(err.value) and err.value.line == 1


def test_parameters_and_rationals():
    doc = parse("algebra t dim 4\nparams p = -1/4, q = 2\n"
                "d = (p f12, 0, 0, q f12)")
    assert doc.params == {"p": F(-1, 4), "q": F(2)}
    assert doc.kind == EXACT
    L = to_algebra(doc)
    assert bracket(L, 0, 1) == [F(1, 4), F(0), F(0), F(-2)]


@pytest.mark.parametrize("text, literal, line, col", [
    ("algebra x dim 2\nparams p = 1/0\nd = (p f12, 0)", "1/0", 2, 12),
    ("algebra x dim 2\nparams p = 1.5/2\nd = (p f12, 0)", "1.5/2", 2, 12),
    ("algebra x dim 2\nd = (f12, 0)\nJ: f1->f2\ng: matrix [[1, 0], [0, 1/0]]", "1/0", 4, 24),
    ("algebra x dim 2\nd = (1/0 f12, 0)", "1/0", 2, 6),
    ("algebra x dim 2\nd = (1.5/2 f12, 0)", "1.5/2", 2, 6),
], ids=["params-zero-denominator", "params-decimal-fraction", "g-matrix",
        "d-zero-denominator", "d-decimal-fraction"])
def test_bad_number_literal_is_a_positioned_parse_error(text, literal, line, col):
    """A literal the number pattern matches but no number reads (a zero
    denominator, a decimal over an integer) is a ParseError at its start."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"bad number {literal!r} at line {line}, column {col}"


@pytest.mark.parametrize("body, message, line, col", [
    ("d = (z f12, 0)", "unbound parameter 'z'", 2, 6),
    ("d = (1/0 f12, 0)", "bad number '1/0'", 2, 6),
    ("d = (f12,\n  z f12)", "unbound parameter 'z'", 3, 3),
    ("d = (f12,\n\n  # a comment\n    0) junk", "trailing input after differential tuple", 5, 8),
    ("d = (\n f12,\n f13)", "index pair (1,3) out of range for dim 2", 4, 2),
], ids=["unbound", "bad-number", "second-line", "after-blank-lines", "index-pair"])
def test_errors_inside_a_d_tuple_give_the_physical_position(body, message, line, col):
    """An error inside a d = ( ... ) tuple, one line or several, points at
    the line and column of the offending token in the text as written."""
    with pytest.raises(ParseError) as err:
        parse("algebra x dim 2\n" + body)
    assert str(err.value) == f"{message} at line {line}, column {col}"


def test_decimal_forces_float_kernel():
    doc = parse("algebra t dim 4\nd = (0.25 f12, 0, 0, 0)")
    assert doc.kind == FLOAT
    L = to_algebra(doc)
    assert isinstance(bracket(L, 0, 1)[0], float)


def test_comma_form_required_for_big_indices():
    doc = parse("algebra m dim 12\nd = (f1,12, 0,0,0,0,0,0,0,0,0,0,0)")
    assert doc.differential[0][0] == Term(1, 12, F(1), None)
    with pytest.raises(ParseError):
        parse("algebra m dim 12\nd = (f1 12, 0,0,0,0,0,0,0,0,0,0,0)")


def test_spaceless_tuple_style():
    doc = parse("algebra m dim 12\nd = (f2,12,-f1,12,f4,12,-f3,12,0,0,0,0,0,0,0,0)")
    assert doc.differential[1][0] == Term(1, 12, F(-1), None)


def test_j_and_g_and_ideal():
    doc = parse("algebra b dim 4\nd = (f12,0,0,0)\nJ: f1->f2, f3->f4\n"
                "g: matrix [[2,0,1,0],[0,2,0,1],[1,0,1,0],[0,1,0,1]]\n"
                "ideal: f1, f3, f4")
    J = to_complex_structure(doc)
    g = to_metric(doc)
    ideal = to_ideal(doc)
    assert J is not None and g is not None
    assert len(ideal) == 3


@pytest.mark.parametrize("spec, col", [("f1, f2, f3 f4", 12), ("f1, f2 junk, f3", 8)])
def test_ideal_rejects_trailing_input(spec, col):
    """Text after a vector that is not a comma is an error at its column,
    on the ideal: line and in parse_ideal alike."""
    with pytest.raises(ParseError) as err:
        parse("algebra x dim 4\nd = (f14, f24, f34, 0)\nideal: " + spec)
    assert (err.value.line, err.value.col) == (3, col + len("ideal: "))
    with pytest.raises(ParseError) as err:
        parse_ideal(spec, 4)
    assert (err.value.line, err.value.col) == (None, col)
    assert "trailing input" in str(err.value)


@pytest.mark.parametrize("text, line, col, head", [
    ("algebra x dim 4 junk\nd = (f14, f24, f34, 0)", 1, 17, "algebra"),
    ("algebra x dim 4\nparams p = 1, q = 2 r = 5\nd = (p f14, f24, q f34, 0)", 2, 21, "params"),
    ("algebra x dim 4\nparams p = 1 q = 2\nd = (p f14, f24, q f34, 0)", 2, 14, "params"),
    ("algebra x dim 4\nd = (f14, f24, f34, 0)\nJ: f1->f4, f2->f3 junk", 3, 19, "J"),
    ("algebra x dim 2\nd = (0, 0)\nJ: matrix [[0,-1],[1,0]] junk", 3, 26, "J"),
    ("algebra x dim 4\nd = (f14, f24, f34, 0)\ng: identity junk", 3, 13, "g"),
    ("algebra x dim 4\nd = (f14, f24, f34, 0)\ng: identityjunk", 3, 12, "g"),
    ("algebra x dim 2\nd = (0, 0)\ng: matrix [[1,0],[0,1]] 3", 3, 25, "g"),
], ids=["algebra", "params-space", "params-no-comma", "J-pairs", "J-matrix",
        "g-identity", "g-identity-glued", "g-matrix"])
def test_directive_lines_reject_trailing_input(text, line, col, head):
    """Text after the last item of an algebra, params, J: or g: line is an
    error at its column, not dropped."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert f"trailing input after {head}" in str(err.value)


def test_j_matrix_spec():
    doc = parse("algebra b dim 2\nd = (0,0)\nJ: matrix [[0,-1],[1,0]]")
    J = to_complex_structure(doc)
    assert J.matrix[1][0] == F(1)


def test_comments_and_blank_lines():
    doc = parse("# heading\nalgebra c dim 4  # trailing\n\nparams p = 1, q = 2 # r\n"
                "d = (0,0,0,f12)\nJ: f1->f4, f2->f3\t\ng: identity  # flat\n")
    assert doc.name == "c" and doc.params == {"p": F(1), "q": F(2)}
    assert doc.g_spec == ("identity",)


def test_multiline_differential():
    doc = parse("algebra m dim 4\nd = (f12,\n 0, 0,\n 0)")
    assert doc.differential[0][0] == Term(1, 2, F(1), None)


def test_render_parse_identity_examples():
    texts = [
        "algebra h3R dim 4\nd = (0, 0, 0, f12)\n",
        ("algebra g1 dim 6\nparams p = -1/4\n"
         "d = (f16, p f26, p f36, p f46, p f56, 0)\n"
         "J: f1->f6, f2->f3, f4->f5\ng: identity\n"),
        "algebra fl dim 4\nd = (0.5 f12, 0, 0, 0)\n",
    ]
    for text in texts:
        doc = parse(text)
        assert parse(render(doc)) == doc
        assert render(parse(render(doc))) == render(doc)


@pytest.mark.parametrize("x", [1e-7, 1e-12, -3.5e-5, 1e20])
def test_render_parse_roundtrip_float_magnitudes(x):
    """Floats render as positional decimals: the grammar has no exponent,
    and repr(1e-7) is '1e-07'."""
    rows = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    rows[0][1] = rows[1][0] = x
    doc = AlgebraDocument(
        name="fl", dim=4, params={"p": x},
        differential=((Term(1, 2, x, None),), (Term(1, 2, F(1), "p"),), (), ()),
        g_spec=("matrix", tuple(tuple(row) for row in rows)), kind=FLOAT)
    assert parse(render(doc)) == doc


@st.composite
def documents(draw):
    dim = draw(st.sampled_from([4, 6]))
    n_params = draw(st.integers(0, 2))
    params = {}
    for t in range(n_params):
        params[f"p{t}"] = draw(st.sampled_from(
            [F(1), F(-1), F(1, 2), F(-1, 4), F(2)]))
    differential = []
    for k in range(dim):
        n_terms = draw(st.integers(0, 2))
        terms = {}
        for _ in range(n_terms):
            i = draw(st.integers(1, dim - 1))
            j = draw(st.integers(i + 1, dim))
            coeff = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 4)]))
            pname = draw(st.sampled_from([None] + list(params)))
            terms[(i, j, pname)] = Term(i, j, coeff, pname)
        differential.append(tuple(terms[key] for key in sorted(
            terms, key=lambda t: (t[0], t[1], t[2] or ""))))
    return AlgebraDocument(name="rand", dim=dim, params=params,
                           differential=tuple(differential))


@settings(max_examples=50, deadline=None)
@given(documents())
def test_parse_render_roundtrip_random(doc):
    assert parse(render(doc)) == doc


def test_manifest_roundtrip_shipped():
    """Byte for byte, catalog lines included: every chunk has its
    unimodular and witness lines."""
    from aalg.catalog import shipped_manifest_text
    text = shipped_manifest_text()
    chunks = parse_manifest(text)
    assert render_manifest(chunks) == text
    assert text.count("\nunimodular: ") == len(chunks)
    assert all(facts["witnesses"] for _, facts in chunks)
    assert parse_manifest(render_manifest(chunks)) == chunks


MANIFEST = """# aalg-catalog/1

algebra t dim 4
params p = 1, q = -1/2
d = (p f14, q f24, f34, 0)
J: f1->f4, f2->f3
g: identity
samples: p = 2, q = 0; p = -1/3, q = 5
nonzero: p, -p + 2 q - 1/2, 3
unimodular: 1 + p + q
witness a-b: lcb, -balanced, vaisman; g: matrix [[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
witness c: skt

algebra u dim 4
d = (0, 0, 0, 0)
unimodular: always
witness lchk: lchk, hyperkahler

algebra v dim 2
d = (f12, 0)
unimodular: never
witness lchk: lchk, -hyperkahler
"""


def test_manifest_catalog_lines():
    """Every form of every catalog line reads and renders back."""
    (_, facts), (_, always), (_, never) = parse_manifest(MANIFEST)
    assert render_manifest(parse_manifest(MANIFEST)) == MANIFEST
    assert facts["samples"] == ({"p": F(1), "q": F(-1, 2)}, {"p": F(2), "q": F(0)},
                                {"p": F(-1, 3), "q": F(5)})
    assert [str(f) for f in facts["nonzero"]] == ["p", "-p + 2 q - 1/2", "3"]
    assert [f(facts["samples"][0]) for f in facts["nonzero"]] == [1, F(-5, 2), 3]
    assert facts["unimodular"]({"p": F(-1), "q": F(0)}) == 0
    (w, v) = facts["witnesses"]
    assert (w.label, w.claims) == ("a-b", {"lcb": True, "balanced": False, "vaisman": True})
    assert w.metric[0] == (F(2), F(0), F(0), F(1)) and v.metric is None
    assert (always["unimodular"], always["samples"], always["nonzero"]) == (True, ({},), ())
    assert never["unimodular"] is False and not never["witnesses"][0].hyperkahler


@pytest.mark.parametrize("line, message", [
    ("samples: p = 2", "binds the parameters of the params line"),
    ("samples: q = 1, p = 2", "binds the parameters of the params line"),
    ("nonzero: p, r", "unbound parameter 'r'"),
    ("nonzero: 2 f14", "unbound parameter 'f14'"),
    ("nonzero: p q", "two parameter factors"),
    ("nonzero: never", "unbound parameter 'never'"),
    ("unimodular: always", "repeated unimodular line"),
    ("witness w: lck, -kahlr", "unknown claim 'kahlr'"),
    ("witness w: lck; g: identity", "expected 'matrix'"),
    ("witness w: lck junk", "trailing input after witness"),
], ids=["short-sample", "sample-order", "unbound", "f-term", "two-params", "locus-word",
        "repeated", "claim", "witness-g", "trailing"])
def test_manifest_catalog_line_errors(line, message):
    text = ("# aalg-catalog/1\n\nalgebra t dim 4\nparams p = 1, q = 2\n"
            "d = (p f14, q f24, f34, 0)\nunimodular: p\nwitness v: lcb\n" + line + "\n")
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert message in str(err.value) and err.value.line == 8


@pytest.mark.parametrize("drop", ["unimodular", "witness"])
def test_manifest_chunk_needs_its_locus_and_a_witness(drop):
    text = ("# aalg-catalog/1\n\nalgebra t dim 2\nd = (f12, 0)\n"
            "unimodular: never\nwitness v: lcb\n")
    text = "\n".join(line for line in text.split("\n") if not line.startswith(drop))
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert f"t has no {drop} line" in str(err.value) and err.value.line == 3


def test_decimal_in_ideal_line_makes_a_float_document():
    """A decimal on the ideal: line switches the document to floats, as
    anywhere else; it is not read as a binary fraction."""
    doc = parse("algebra x dim 4\nd = (f14, f24, f34, 0)\nideal: 0.1 f1 + f2, f2, f3")
    assert doc.kind == FLOAT
    assert to_ideal(doc)[0] == (0.1, 1.0, 0.0, 0.0)
    assert parse(render(doc)) == doc


def test_catalog_instantiates_from_manifest():
    """Every sample of every manifest entry gives the brackets of its
    manifest document; the s_2n entries are generated, not listed."""
    from aalg.catalog import ENTRIES, instantiate, shipped_manifest_text
    manifest = {doc.name: doc for doc, _ in parse_manifest(shipped_manifest_text())}
    assert ({name.replace("+", "_") for name in ENTRIES}
            == set(manifest) | {"s4", "s6", "s8"})
    for name, doc in manifest.items():
        entry = ENTRIES[name.replace("_", "+")]
        assert (entry.dim, entry.params) == (doc.dim, tuple(doc.params))
        assert entry.samples[0] == doc.params
        for params in entry.samples:
            want = to_algebra(replace(doc, params=dict(params)))
            assert instantiate(entry, params).brackets == want.brackets


@pytest.mark.parametrize("n, text", [
    (2, "algebra s4 dim 4\n"
        "params a = 1\n"
        "d = (a f14, -1/2 a f24 + f34, -f24 - 1/2 a f34, 0)\n"
        "J: f1->f4, f2->f3\n"
        "g: identity\n"),
    (3, "algebra s6 dim 6\n"
        "params a = 1, c = 1\n"
        "d = (a f16, -1/2 a f26 + f36, -f26 - 1/2 a f36, c f56, -c f46, 0)\n"
        "J: f1->f6, f2->f3, f4->f5\n"
        "g: identity\n"),
    (4, "algebra s8 dim 8\n"
        "params a = 1, c = 1\n"
        "d = (a f18, -1/2 a f28 + f38, -f28 - 1/2 a f38, c f58, -c f48, c f78, -c f68, 0)\n"
        "J: f1->f8, f2->f3, f4->f5, f6->f7\n"
        "g: identity\n"),
], ids=["s4", "s6", "s8"])
def test_s2n_documents_pinned(n, text):
    """The catalog's s4, s6 and s8 are generated; their equations are pinned."""
    from aalg.catalog import _s2n_entry
    assert render(_s2n_entry(n).document) == text


def test_s2n_document_beyond_manifest():
    """s_10 has no manifest document; its generated equations are pinned."""
    from aalg.catalog import _s2n_entry, entry_document
    doc = entry_document(_s2n_entry(5), {"a": F(-2), "c": F(1, 2)})
    assert render(doc) == (
        "algebra s10 dim 10\n"
        "params a = -2, c = 1/2\n"
        "d = (a f1,10, -1/2 a f2,10 + f3,10, -f2,10 - 1/2 a f3,10, c f5,10, "
        "-c f4,10, c f7,10, -c f6,10, c f9,10, -c f8,10, 0)\n"
        "J: f1->f10, f2->f3, f4->f5, f6->f7, f8->f9\n"
        "g: identity\n")


def test_manifest_documents_instantiate():
    from aalg.catalog import shipped_manifest_text
    for doc, _ in parse_manifest(shipped_manifest_text()):
        L = to_algebra(doc)
        assert L.dim == doc.dim
