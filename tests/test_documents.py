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


def test_parse_h3r():
    doc = parse("algebra h3R dim 4\nd = (0,0,0,f12)")
    assert doc.name == "h3R" and doc.dim == 4
    L = to_algebra(doc)
    assert L.basis_bracket(0, 1) == [F(0), F(0), F(0), F(-1)]


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
    assert L.basis_bracket(0, 1) == [F(1, 4), F(0), F(0), F(-2)]


def test_decimal_forces_float_kernel():
    doc = parse("algebra t dim 4\nd = (0.25 f12, 0, 0, 0)")
    assert doc.kind == FLOAT
    L = to_algebra(doc)
    assert isinstance(L.basis_bracket(0, 1)[0], float)


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
    assert ideal.dim == 3


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
    from aalg.catalog import shipped_manifest_text
    text = shipped_manifest_text()
    docs = parse_manifest(text)
    assert render_manifest(docs) == text


def test_catalog_instantiates_from_manifest():
    """Every sample of every entry gives the brackets of its manifest
    document, and the generated s_2n documents match the manifest's."""
    from aalg.catalog import ENTRIES, _s2n_entry, instantiate, shipped_manifest_text
    manifest = {doc.name: doc for doc in parse_manifest(shipped_manifest_text())}
    assert {name.replace("+", "_") for name in ENTRIES} == set(manifest)
    for name, entry in ENTRIES.items():
        doc = manifest[name.replace("+", "_")]
        assert (entry.dim, entry.params) == (doc.dim, tuple(doc.params))
        assert entry.samples[0] == doc.params
        for params in entry.samples:
            want = to_algebra(replace(doc, params=dict(params)))
            assert instantiate(entry, params).brackets == want.brackets
    for n in (2, 3, 4):
        assert _s2n_entry(n).document == manifest[f"s{2 * n}"]


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
    for doc in parse_manifest(shipped_manifest_text()):
        L = to_algebra(doc)
        assert L.dim == doc.dim
