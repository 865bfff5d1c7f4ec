"""CLI surface: exit codes, JSON schema, determinism."""

import json
import threading

import pytest

from aalg import scalars
from aalg.cli import main
from aalg.catalog import ENTRIES, LCHK_LIST, entry_document
from aalg.documents import parse, render, to_metric
from aalg.hermitian import HermitianStructure
from aalg.documents import to_algebra, to_complex_structure
from aalg.almost_abelian import extract_data, is_kahler_data


B2_GPRIME = """algebra b2 dim 6
d = (f16, f36, 0, f56, 0, 0)
J: f1->f6, f2->f4, f3->f5
g: matrix [[3, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 3]]
"""

S4 = """algebra s4 dim 4
params a = 1
d = (a f14, -1/2 a f24 + f34, -f24 - 1/2 a f34, 0)
J: f1->f4, f2->f3
g: identity
"""

L1_UNIMODULAR = """algebra l1 dim 6
params p = 1/2, q = -1
d = (f16, p f26, p f36, q f46, q f56, 0)
"""

# the Kahler structure of aff(2) + R^2 with a bracket term of size 1e-7
# added: not Kahler at the default tolerance, Kahler within 1e-3
AFF2_PERTURBED = """algebra aff2p dim 4
d = (f12, 0, 0, 0.0000001 f12)
J: f1->f2, f3->f4
g: identity
"""

# g4 with a J that pairs f2 with f3 inside the ideal: N_J != 0
NOT_INTEGRABLE = """algebra g4bad dim 6
d = (f16, f26, f36, f46, 0, 0)
J: f1->f6, f2->f3, f4->f5
g: identity
"""

NOT_ALMOST_ABELIAN = """algebra so3R dim 4
d = (f23, -f13, f12, 0)
J: f1->f2, f3->f4
g: identity
"""


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, text in (("b2p", B2_GPRIME), ("s4", S4), ("l1u", L1_UNIMODULAR),
                       ("aff2p", AFF2_PERTURBED), ("so3", NOT_ALMOST_ABELIAN),
                       ("g4bad", NOT_INTEGRABLE)):
        p = tmp_path / f"{name}.alg"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_b2_lcb(docs, capsys):
    code, rep = run_json(capsys, ["check", docs["b2p"], "--property", "lcb", "--json"])
    assert code == 0
    assert rep["schema"] == "aalg-report/1"
    assert rep["results"]["lcb"] == {"direct": True, "data": True, "agreement": True}


def test_check_b2_balanced_false(docs, capsys):
    code, rep = run_json(capsys, ["check", docs["b2p"], "--property", "balanced", "--json"])
    assert code == 0
    assert rep["results"]["balanced"]["direct"] is False


def test_check_all_properties(docs, capsys):
    code, rep = run_json(capsys, ["check", docs["s4"], "--json"])
    assert code == 0
    res = rep["results"]
    assert res["skt"]["direct"] and res["lcb"]["direct"]
    assert not res["balanced"]["direct"]
    assert res["vaisman"]["agreement"] is None


def test_check_rejects_non_almost_abelian(docs, capsys):
    code = main(["check", docs["so3"], "--property", "lcb"])
    assert code == 2


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("algebra x dim 6\nd = (f16", encoding="utf-8")
    assert main(["check", str(p), "--property", "lcb"]) == 1
    assert main(["check", str(tmp_path / "missing.alg"), "--property", "lcb"]) == 1


def test_data_report(docs, capsys):
    code, rep = run_json(capsys, ["data", docs["s4"], "--json"])
    assert code == 0
    assert rep["a"] == "1"
    assert rep["gauge_invariants"]["trace_A"] == "-1"
    assert rep["frame_orthonormal"] is True


def test_rho_b_report(docs, capsys):
    code, rep = run_json(capsys, ["rho-b", docs["s4"], "--json"])
    assert code == 0
    assert rep["closed_form"] == {"1+4": "-3/2"}
    assert rep["curvature_oracle"] == {"1+4": "-3/2"}
    assert rep["residual"] == 0.0
    assert rep["type_1_1"] is True


@pytest.mark.parametrize("a", ["1", "1.0"])
def test_rho_b_mismatch_exits_2(tmp_path, capsys, monkeypatch, a):
    """A closed form that disagrees with the curvature oracle is a
    mathematical rejection, on the exact and the float path."""
    import aalg.cli
    from aalg.forms import KForm
    path = tmp_path / "s4.alg"
    path.write_text(S4.replace("a = 1", f"a = {a}"), encoding="utf-8")
    assert main(["rho-b", str(path), "--json"]) == 0
    capsys.readouterr()
    closed = aalg.cli.rho_b_closed

    def perturbed(d):
        form = closed(d)
        return form + KForm.basis(4, 0, 1, kind=form.kind)

    monkeypatch.setattr(aalg.cli, "rho_b_closed", perturbed)
    code, rep = run_json(capsys, ["rho-b", str(path), "--json"])
    assert code == 2
    assert rep["residual"] == 1.0


def test_rho_b_float_residual_shows_rounding(tmp_path, capsys):
    """On floats the residual is the largest rounding difference between
    the closed form and the oracle, which the tolerance forgives."""
    path = tmp_path / "s4.alg"
    path.write_text(S4.replace("a = 1", "a = 0.3"), encoding="utf-8")
    code, rep = run_json(capsys, ["rho-b", str(path), "--json"])
    assert code == 0
    assert 0.0 < rep["residual"] <= 1e-9


@pytest.mark.parametrize("command", ["check", "rho-b"])
def test_integrability_decided_once_per_document(docs, capsys, monkeypatch, command):
    """The Nijenhuis tensor is evaluated once per document, however many
    routes ask; a non-integrable J is still rejected with exit code 2."""
    from aalg import hermitian
    real = hermitian.nijenhuis
    calls = []
    monkeypatch.setattr(hermitian, "nijenhuis", lambda J, L: calls.append(1) or real(J, L))
    code, _ = run_json(capsys, [command, docs["b2p"], "--json"])
    assert code == 0 and len(calls) == 1
    assert main([command, docs["g4bad"], "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rejected: J is not integrable\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_skt_to_lcb_split_computed_once(docs, capsys, monkeypatch, json_flag):
    """The SKT -> LCB split runs once per document, with or without --json;
    the metric and the reported v' come from the same split."""
    import aalg.cli
    from aalg import almost_abelian
    real = almost_abelian.skt_to_lcb
    calls = []

    def counted(d):
        calls.append(1)
        return real(d)

    monkeypatch.setattr(almost_abelian, "skt_to_lcb", counted)
    monkeypatch.setattr(aalg.cli, "skt_to_lcb", counted)
    assert main(["skt-to-lcb", docs["s4"]] + json_flag) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_lchk_id3(capsys):
    code, rep = run_json(capsys, ["lchk", "--matrix", "id3", "--json"])
    assert code == 0
    assert rep["admissible"] is True
    assert rep["a"] == "1"
    assert rep["hyperkahler"] is False


def test_lchk_witness_dump(capsys):
    code, rep = run_json(capsys, ["lchk", "--matrix", "zero3", "--witness", "--json"])
    assert code == 0
    assert rep["hyperkahler"] is True
    assert "witness" in rep and rep["witness"]["lee_form"] == {}


def test_lchk_inline_rejected(capsys):
    code = main(["lchk", "--matrix", "[[1,0,0],[0,1,0],[0,0,2]]", "--json"])
    assert code == 2


@pytest.mark.parametrize("spec", ['[["x",0,0],[0,0,0],[0,0,0]]', "idq", "5",
                                  "[[1e400,0,0],[0,1,0],[0,0,1]]", "DIRECTORY"])
def test_lchk_malformed_matrix_is_input_error(tmp_path, capsys, spec):
    spec = str(tmp_path) if spec == "DIRECTORY" else spec
    assert main(["lchk", "--matrix", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "data"])
@pytest.mark.parametrize("lines", [
    "J: f0->f1, f2->f3\ng: identity",
    "J: f1->f2, f3->f7\ng: identity",
    "J: f1.5->f2, f3->f4\ng: identity",
    "J: matrix [[0, -1], [1, 0]]\ng: identity",
    "J: f1->f2, f3->f4\ng: matrix [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
], ids=["j-index-0", "j-index-7", "j-index-1.5", "j-matrix-2x2", "g-matrix-3x3"])
def test_j_and_g_must_fit_the_dimension(tmp_path, capsys, command, lines):
    """Pairing indices outside 1..dim, non-integer ones and J or g matrices
    that are not dim x dim are input errors, not a check of another J."""
    p = tmp_path / "bad.alg"
    p.write_text("algebra s4 dim 4\nd = (f14, f24, f34, 0)\n" + lines + "\n",
                 encoding="utf-8")
    assert main([command, str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "data"])
@pytest.mark.parametrize("lines, where", [
    ("params p = 1, q = 2 r = 5\nd = (p f14, f24, q f34, 0)\nJ: f1->f4, f2->f3\ng: identity",
     "params at line 2, column 21"),
    ("d = (f14, f24, f34, 0)\nJ: f1->f4, f2->f3 junk\ng: identity", "J at line 3, column 19"),
    ("d = (f14, f24, f34, 0)\nJ: f1->f4, f2->f3\ng: identity junk", "g at line 4, column 13"),
], ids=["params", "J", "g"])
def test_trailing_input_on_a_directive_is_an_input_error(tmp_path, capsys, command,
                                                        lines, where):
    """A document whose params, J: or g: line runs on past its last item
    exits 1 with the column, instead of running on what was read."""
    p = tmp_path / "trailing.alg"
    p.write_text("algebra s4 dim 4\n" + lines + "\n", encoding="utf-8")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr().err == f"error: trailing input after {where}\n"


def test_check_points_into_a_multi_line_d_tuple(tmp_path, capsys):
    """aalg check names the physical line and column of a bad token inside
    a d = ( ... ) tuple written over several lines."""
    p = tmp_path / "tuple.alg"
    p.write_text("algebra s4 dim 4\nd = (f14,\n     f24, z f34,\n     0)\n"
                 "J: f1->f4, f2->f3\ng: identity\n", encoding="utf-8")
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().err == "error: unbound parameter 'z' at line 3, column 11\n"


@pytest.mark.parametrize("ideal, defect", [("f1, f2, f4", "not abelian"),
                                           ("f1, f2", "not a hyperplane")])
def test_lattice_validates_a_declared_ideal(tmp_path, capsys, ideal, defect):
    """A declared ideal that is not an abelian hyperplane ideal is rejected
    as by ``aalg data``, not probed and not crashed on."""
    p = tmp_path / "bad-ideal.alg"
    p.write_text("algebra x dim 4\nd = (f14, f24, f34, 0)\nJ: f1->f4, f2->f3\n"
                 f"g: identity\nideal: {ideal}\n", encoding="utf-8")
    want = f"rejected: IDEAL_NOT_ABELIAN: declared subspace is {defect}\n"
    assert main(["data", str(p)]) == 2
    assert capsys.readouterr().err == want
    assert main(["lattice", str(p), "--rule", "2logk:K=12", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == want


def test_ideal_flag_errors_point_into_the_flag(docs, capsys):
    """--ideal is parsed as an ideal spec: the error names its column, not
    a line of a document the user never wrote."""
    assert main(["data", docs["s4"], "--ideal", "f9"]) == 1
    assert capsys.readouterr().err == "error: index 9 out of range at column 3\n"
    code, rep = run_json(capsys, ["data", docs["s4"], "--ideal", "f1, f2, f3", "--json"])
    assert code == 0 and rep["n"] == 2
    assert main(["data", docs["s4"], "--ideal", "f1, f2 junk, f3"]) == 1
    assert capsys.readouterr().err == "error: trailing input after ideal at column 8\n"


@pytest.mark.parametrize("command", ["check", "data", "rho-b", "skt-to-lcb"])
def test_decimal_ideal_flag_on_an_exact_document_is_an_input_error(docs, capsys, command):
    """A decimal in --ideal never enters an exact document as a binary
    fraction: the command exits 1."""
    assert main([command, docs["s4"], "--ideal", "0.1 f1 + f2, f2, f3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: decimal literal in the ideal of an exact document\n"


@pytest.mark.parametrize("line", ["samples: a = 2", "nonzero: a", "unimodular: always",
                                  "witness skt-lcb: skt, lcb"])
def test_catalog_lines_are_input_errors(tmp_path, capsys, line):
    """The manifest's catalog lines are not part of the document grammar."""
    p = tmp_path / "s4.alg"
    p.write_text(S4 + line + "\n", encoding="utf-8")
    assert main(["check", str(p)]) == 1
    head = line.split()[0].rstrip(":")
    assert capsys.readouterr().err == f"error: unknown directive {head!r} at line 6, column 1\n"


def test_aalg_epsilon_sets_the_tolerance_for_one_call(docs, capsys, monkeypatch):
    argv = ["check", docs["aff2p"], "--property", "kahler", "--json"]
    before = scalars.current_eps()
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["results"]["kahler"]["direct"] is False
    monkeypatch.setenv("AALG_EPSILON", "1e-3")
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["results"]["kahler"]["direct"] is True
    assert scalars.current_eps() == before == scalars.DEFAULT_EPS


def aff2_perturbed_kahler():
    """(direct, data) Kahler verdicts of AFF2_PERTURBED, every object
    built under the tolerance in force."""
    doc = parse(AFF2_PERTURBED)
    L, J, g = to_algebra(doc), to_complex_structure(doc), to_metric(doc)
    H = HermitianStructure(L, J, g)
    return H.is_kahler_direct(), is_kahler_data(extract_data(L, None, J, g))


def test_tolerance_block_decides_both_routes():
    with scalars.tolerance(1e-3):
        assert aff2_perturbed_kahler() == (True, True)
    assert aff2_perturbed_kahler() == (False, False)


def test_tolerance_block_stays_in_its_thread():
    entered, other_done = threading.Event(), threading.Event()
    verdicts = {}

    def loose():
        with scalars.tolerance(1e-3):
            entered.set()
            # decide while the other thread runs at the default tolerance
            assert other_done.wait(60)
            verdicts["loose"] = aff2_perturbed_kahler()

    def default():
        assert entered.wait(60)
        verdicts["default"] = aff2_perturbed_kahler()
        other_done.set()

    threads = [threading.Thread(target=loose), threading.Thread(target=default)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert verdicts == {"loose": (True, True), "default": (False, False)}


def test_aalg_epsilon_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("AALG_EPSILON", "tiny")
    assert main(["lchk", "--matrix", "id3"]) == 1
    assert capsys.readouterr().err.startswith("error: bad AALG_EPSILON")


def test_lattice_rule(docs, capsys):
    code, rep = run_json(capsys, ["lattice", docs["l1u"], "--rule", "2logk:K=12", "--json"])
    assert code == 0
    assert rep["overall"] == "NONE_IN_RANGE"
    assert len(rep["points"]) == 11
    assert all(pt["residual_vs_inv_k"] <= 1e-9 for pt in rep["points"])


def test_lattice_grid(docs, capsys):
    code, rep = run_json(capsys, ["lattice", docs["l1u"], "--grid", "0.5:2:4", "--json"])
    assert code == 0
    assert [pt["t"] for pt in rep["points"]] == [0.5, 1.0, 1.5, 2.0]


def test_catalog_verify_entry(capsys):
    code, rep = run_json(capsys, ["catalog", "verify", "--entry", "l14",
                                  "--samples", "3", "--json"])
    assert code == 0
    assert rep["ok"] is True
    assert rep["entries"][0]["entry"] == "l14"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_catalog_verify_rejects_fewer_than_one_sample(capsys, samples):
    """--samples 0 used to verify every sample and -1 all but the last."""
    assert main(["catalog", "verify", "--entry", "l14", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: BAD_SAMPLES: samples must be at least 1, not {samples}\n"


@pytest.mark.parametrize("line", ["params p = 1/0\nd = (p f14, f24, f34, 0)",
                                  "d = (1/0 f14, f24, f34, 0)",
                                  "d = (1.5/2 f14, f24, f34, 0)",
                                  "d = (f14, f24, f34, 0)\nJ: f1->f4, f2->f3\n"
                                  "g: matrix [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], "
                                  "[0, 0, 0, 1/0]]"],
                         ids=["params", "d-zero-denominator", "d-decimal-fraction", "g"])
def test_bad_number_literal_is_an_input_error(tmp_path, capsys, line):
    p = tmp_path / "bad-number.alg"
    p.write_text("algebra s4 dim 4\n" + line + "\n", encoding="utf-8")
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad number") and "Traceback" not in err


def _lchk_matrix(block):
    """diag(block, 0, 0, 0) for a 4x4 block, as an inline --matrix."""
    rows = [[0] * 7 for _ in range(7)]
    for i in range(4):
        rows[i][:4] = block[i]
    return json.dumps(rows)


def test_lchk_witness_with_a_large_rotation_parameter(capsys):
    """diag(C(10^9), 0, 0, 0): the rational roots of hhat = (y + 10^18)^2
    are found in time polynomial in its bit size, where trial division
    would try divisors up to 10^18."""
    b = 10 ** 9
    c = [[0, b, 0, 0], [-b, 0, 0, 0], [0, 0, 0, -b], [0, 0, b, 0]]
    code, rep = run_json(capsys, ["lchk", "--matrix", _lchk_matrix(c), "--witness", "--json"])
    assert code == 0 and rep["admissible"]
    assert rep["witness"]["canonical_form"][0][1] == str(b)


def test_lchk_witness_with_an_irrational_rotation_parameter(capsys):
    """Two companion blocks of y^2 + 10^18 + 1: b^2 = 10^18 + 1 is rational,
    b is not."""
    n = 10 ** 18 + 1
    block = [[0, 1, 0, 0], [-n, 0, 0, 0], [0, 0, 0, 1], [0, 0, -n, 0]]
    code, rep = run_json(capsys, ["lchk", "--matrix", _lchk_matrix(block),
                                  "--witness", "--json"])
    assert code == 0 and rep["admissible"]
    assert rep["witness"] == {"error": "EXACT_IRRATIONAL: rotation parameter "
                                       "sqrt(-beta) is irrational"}


def test_catalog_unknown_entry(capsys):
    assert main(["catalog", "verify", "--entry", "nope", "--json"]) == 1


def test_skt_to_lcb_roundtrip(docs, capsys):
    code = main(["skt-to-lcb", docs["s4"]])
    out = capsys.readouterr().out
    assert code == 0
    doc = parse(out)
    L = to_algebra(doc)
    J = to_complex_structure(doc)
    g = to_metric(doc)
    H = HermitianStructure(L, J, g)
    assert H.is_lcb_direct()


def test_json_determinism(docs, capsys):
    code1 = main(["check", docs["b2p"], "--property", "lcb", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["check", docs["b2p"], "--property", "lcb", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("name", [n for n in ENTRIES if n not in LCHK_LIST])
def test_every_entry_document_checks(name, tmp_path, capsys):
    """Each rendered LCK/LCB/example entry document carries its J and g:
    ``aalg check`` accepts it, and each direct verdict is the claim of the
    witness that uses the document's metric."""
    entry = ENTRIES[name]
    path = tmp_path / f"{name}.alg"
    path.write_text(render(entry_document(entry)), encoding="utf-8")
    code, rep = run_json(capsys, ["check", str(path), "--json"])
    assert code == 0
    for w in entry.witnesses:
        if w.metric is None:
            for prop, expected in w.claims.items():
                assert rep["results"][prop]["direct"] == expected, (w.label, prop)
