"""CLI surface: exit codes, JSON schema, determinism."""

import json
import os
import random
import subprocess
import sys
import threading
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from aalg import linalg, scalars
from aalg.cli import _lattice_frame, build_parser, main
from aalg.catalog import ENTRIES, LCHK_LIST, entry_document, instantiate
from aalg.documents import parse, render, to_ideal, to_metric
from aalg.hermitian import HermitianError, HermitianStructure
from aalg.documents import to_algebra, to_complex_structure
from aalg.almost_abelian import extract_data, is_kahler_data
from aalg.lie import LieAlgebra, abelian_ideal

from conftest import random_shear


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

# J is orthogonal for the identity, not for g: g(J., J.) != g
INCOMPATIBLE_G = """algebra h4inc dim 4
d = (f14, f24, f34, 0)
J: f1->f4, f2->f3
g: matrix [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
"""

# aff(R) and R^2: SKT in dimension 2, where n_1 = 0 and v, A are empty
AFF = """algebra aff dim 2
d = (f12, 0)
J: f1->f2
g: identity
"""

R2 = """algebra R2 dim 2
d = (0, 0)
J: f1->f2
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
                       ("g4bad", NOT_INTEGRABLE), ("incompatible", INCOMPATIBLE_G),
                       ("aff", AFF), ("r2", R2)):
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


def test_check_in_dimension_2(tmp_path, capsys):
    """aff(R) with its only Hermitian structure: d omega = 0, theta = 0, and
    the two routes agree on every predicate."""
    path = tmp_path / "aff.alg"
    path.write_text("algebra aff dim 2\nd = (f12, 0)\nJ: f1->f2\ng: identity\n",
                    encoding="utf-8")
    code, rep = run_json(capsys, ["check", str(path), "--json"])
    assert code == 0
    for prop in ("kahler", "lck", "balanced", "skt", "lcb"):
        assert rep["results"][prop] == {"direct": True, "data": True, "agreement": True}
    for prop in ("lck", "lcb"):
        code, rep = run_json(capsys, ["check", str(path), "--property", prop, "--json"])
        assert code == 0 and rep["results"][prop]["agreement"] is True


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
    assert captured.err == "rejected: J_NOT_COMPATIBLE: J is not integrable\n"


@pytest.mark.parametrize("command", ["check", "data", "rho-b", "skt-to-lcb"])
def test_an_incompatible_metric_is_rejected_by_every_structure_command(docs, capsys, command):
    """g(J., J.) != g is one rejection, raised where the structure is
    built, with one code for the library and the CLI."""
    assert main([command, docs["incompatible"], "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rejected: J_NOT_COMPATIBLE: g(J., J.) != g\n"
    doc = parse(INCOMPATIBLE_G)
    with pytest.raises(HermitianError) as err:
        HermitianStructure(to_algebra(doc), to_complex_structure(doc), to_metric(doc))
    assert err.value.code == "J_NOT_COMPATIBLE"


@pytest.mark.parametrize("name", ["aff", "r2"])
def test_skt_to_lcb_in_dimension_two(docs, capsys, name):
    """In dimension 2 the split v = (A - a) x + v' is the empty system."""
    code, rep = run_json(capsys, ["skt-to-lcb", docs[name], "--json"])
    assert code == 0 and rep["is_lcb"] is True and rep["new_v"] == []


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


def test_lchk_any_decimal_entry_makes_the_matrix_float(capsys):
    """As in a document, one decimal literal anywhere makes the whole
    --matrix float: a decimal last entry reads as a decimal first entry does."""
    reports = []
    for spec in ("[[1,0,0],[0,1,0],[0,0,1.5]]", "[[1.0,0,0],[0,1,0],[0,0,1.5]]",
                 '[["1/2",0,0],[0,1,0],[0,0,1.5]]', "[[0.5,0,0],[0,1,0],[0,0,1.5]]"):
        code, rep = run_json(capsys, ["lchk", "--matrix", spec, "--json"])
        assert code == 2 and not rep["admissible"]
        reports.append(rep)
    assert reports[0] == reports[1] and reports[2] == reports[3]
    # an integer too large for a float is an input error, not a traceback
    huge = "[[0.5,0,0],[0,1,0],[0,0,1" + "0" * 400 + "]]"
    assert main(["lchk", "--matrix", huge]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("spec", ['[["x",0,0],[0,0,0],[0,0,0]]', "idq", "5",
                                  "[[1e400,0,0],[0,1,0],[0,0,1]]", "DIRECTORY",
                                  "[[1,2],[3]]", "[]", "[[]]", "id0", "id-1", "zero0",
                                  "idzero3", "[[1,2,3]]", "[[1,0],[0,1],[0,0]]"])
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
    return H.is_kahler_direct(), is_kahler_data(extract_data(H, None))


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


@pytest.mark.parametrize("value", ["tiny", "nan", "-1", "inf", "-inf"])
def test_aalg_epsilon_not_finite_non_negative(capsys, monkeypatch, value):
    """A tolerance that is not a finite non-negative number is an input
    error, before any command runs."""
    monkeypatch.setenv("AALG_EPSILON", value)
    assert main(["lchk", "--matrix", "id3"]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad AALG_EPSILON {value!r}")


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf"), "-1e-9"])
def test_tolerance_must_be_finite_and_non_negative(value):
    with pytest.raises(ValueError, match="finite and non-negative"):
        scalars.tolerance(value)
    assert scalars.current_eps() == scalars.DEFAULT_EPS


def test_zero_tolerance_compares_exactly(docs, capsys, monkeypatch):
    monkeypatch.setenv("AALG_EPSILON", "0")
    code, rep = run_json(capsys, ["check", docs["aff2p"], "--property", "kahler", "--json"])
    assert code == 0 and rep["results"]["kahler"]["direct"] is False
    with scalars.tolerance(0):
        assert scalars.current_eps() == 0.0


def test_the_parser_is_built_once(docs, capsys):
    """Commands alternating in one process, an argv error among them, give
    the reports of their first call on a freshly built parser, and every
    call shares that parser."""
    argvs = [["check", docs["b2p"], "--property", "lcb", "--json"],
             ["data", docs["s4"], "--ideal", "f1, f2, f3", "--json"],
             ["lchk", "--matrix", "zero3", "--witness", "--json"],
             ["catalog", "verify", "--entry", "g1", "--samples", "1", "--json"]]

    def report(argv):
        code, rep = run_json(capsys, argv)
        rep.pop("elapsed_s", None)
        return code, rep

    build_parser.cache_clear()
    first = [report(argv) for argv in argvs]
    parser = build_parser()
    for _ in range(2):
        for argv, want in zip(argvs, first):
            with pytest.raises(SystemExit) as exc:
                main(["check", docs["s4"], "--property", "hermitian"])
            assert exc.value.code == 2
            capsys.readouterr()
            assert report(argv) == want
    assert [code for code, _ in first] == [0, 0, 0, 0]
    assert build_parser() is build_parser() is parser


def test_the_shared_parser_parses_in_threads():
    """Eight threads parsing through the one parser with a short switch
    interval get the namespaces a lone parse gets."""
    argvs = [["check", "a.alg", "--property", "lcb", "--json"], ["data", "b.alg", "--ideal", "f1"],
             ["lchk", "--matrix", "id3", "--witness"], ["catalog", "verify", "--samples", "2"]]
    want = [vars(build_parser().parse_args(argv)) for argv in argvs]
    bad = []

    def work(k):
        for _ in range(200):
            got = vars(build_parser().parse_args(argvs[k % 4]))
            if got != want[k % 4]:
                bad.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


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


@pytest.mark.parametrize("args", [["--grid", "nan:1:3"], ["--grid", "0:inf:3"],
                                  ["--grid=-inf:0:2"], ["--rule", "2logk:K=3", "--eps-int", "nan"],
                                  ["--grid", "0:1:3", "--eps-int", "inf"],
                                  ["--grid", "0:1:3", "--eps-int", "-1"]])
def test_lattice_rejects_non_finite_grid_and_eps_int(docs, capsys, args):
    assert main(["lattice", docs["l1u"], *args, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_lattice_on_a_one_dimensional_algebra(tmp_path, capsys):
    """The abelian ideal is 0, so B is 0 x 0 and both polynomials are 1."""
    path = tmp_path / "a1.alg"
    path.write_text("algebra a1 dim 1\nd = (0)\n", encoding="utf-8")
    code, rep = run_json(capsys, ["lattice", str(path), "--rule", "2logk:K=3", "--json"])
    assert code == 0 and rep["overall"] == "FOUND"
    assert [(p["verdict"], p["char"], p["min"]) for p in rep["points"]] == [
        ("INTEGER", [1.0], [1.0])] * 2


def contains_rule_frame(L, ideal):
    """The lattice frame as the span test built it, one solve per candidate:
    the ideal's basis, then the last basis vector outside its span."""
    vecs = [list(v) for v in ideal]
    for e in reversed(linalg.idmat(L.dim, L.kind)):
        if (linalg.solve_general(linalg.transpose(vecs), e) is None if vecs
                else not linalg.is_zero_vector(e)):
            return linalg.transpose(vecs + [e])


def float_case(L, ideal):
    brackets = {key: [float(x) for x in vec] for key, vec in L.brackets.items()}
    return (LieAlgebra(L.dim, brackets, kind=scalars.FLOAT),
            None if ideal is None else tuple(tuple(map(float, v)) for v in ideal))


def test_lattice_transversal_matches_the_span_test_on_the_catalog():
    """The covector rule picks the transversal the span test picked, on
    every catalog entry, exact and as a float copy, and in dimensions one
    and two."""
    cases = [(LieAlgebra(1, {}), None), (LieAlgebra.semidirect([[F(1)]]), None)]
    for entry in ENTRIES.values():
        L = instantiate(entry, entry.samples[0])
        cases += [(L, to_ideal(entry.document)), float_case(L, to_ideal(entry.document))]
    for L, declared in cases:
        ideal = abelian_ideal(L, declared)
        assert _lattice_frame(L, ideal) == contains_rule_frame(L, ideal), L


@pytest.mark.parametrize("seed", range(12))
def test_lattice_transversal_matches_the_span_test_on_sheared_algebras(seed):
    """The same on R^k x|_D R in a basis where the ideal's covector xi is
    row k of the change of basis s, zero after a random index t, with the
    ideal declared in a mixed basis: the transversal is e_t, exact and as
    floats."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    t = rng.randrange(k + 1)
    D = [[F(rng.choice((0, 0, 1, -1, 2, -3))) for _ in range(k)] for _ in range(k)]
    unit = linalg.idmat(k + 1)
    s = linalg.idmat(k + 1)
    s[t] = unit[k]
    s[k] = [F(rng.choice((0, 1, -2))) for _ in range(t)] + [F(1, 2)] + [F(0)] * (k - t)
    s = linalg.mat_mul(linalg.block_diag([random_shear(rng, k), [[F(1)]]]), s)
    L = LieAlgebra.semidirect(D).change_basis(s)
    moved = linalg.transpose(linalg.inverse(s))[:k]
    declared = tuple(map(tuple, linalg.mat_mul(random_shear(rng, k), moved)))
    for M, ideal in ((L, declared), float_case(L, declared)):
        frame = _lattice_frame(M, abelian_ideal(M, ideal))
        assert frame == contains_rule_frame(M, abelian_ideal(M, ideal))
        assert [row[-1] for row in frame] == unit[t]


def test_lchk_float_overflow_is_an_input_error(capsys):
    """The eigenvalue cluster of 1e308 has an infinite mean: one error line,
    no numpy warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lchk", "--matrix", "[[1e308,0,0],[0,1e308,0],[0,0,-1e308]]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a float matrix is not finite in double precision\n"


@pytest.mark.parametrize("name", ["g1", "g2", "l17"])
def test_lattice_overflow_names_t(tmp_path, capsys, name):
    """exp(800 B) overflows double precision on these entries (by the
    closed form, in the Taylor squarings and in the eigenvalues): an input
    error naming t, not a traceback; t = 700 still runs on g1."""
    path = tmp_path / f"{name}.alg"
    path.write_text(render(entry_document(ENTRIES[name])), encoding="utf-8")
    assert main(["lattice", str(path), "--grid", "0:800:2", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exp(tB) at t = 800.0 ")
    assert len(captured.err.splitlines()) == 1
    if name == "g1":
        assert main(["lattice", str(path), "--grid", "0:700:2", "--json"]) == 0


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


@pytest.mark.parametrize("args", [["--rule", "2logk:K=10001"], ["--rule", f"2logk:K={10 ** 20}"],
                                  ["--grid", "0:1:10001"], ["--grid", f"0:1:{10 ** 20}"]],
                         ids=["rule", "huge-rule", "grid", "huge-grid"])
def test_lattice_caps_the_number_of_points(docs, capsys, args):
    """K and n above MAX_PROBE_POINTS are input errors, before any point is
    built."""
    assert main(["lattice", docs["l1u"], *args, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" must be at most 10000\n")


@pytest.mark.parametrize("flag, at_cap, over", [("--rule", "2logk:K=12", "2logk:K=13"),
                                                ("--grid", "0:1:12", "0:1:13")])
def test_lattice_cap_is_inclusive(docs, capsys, monkeypatch, flag, at_cap, over):
    import aalg.cli
    monkeypatch.setattr(aalg.cli, "MAX_PROBE_POINTS", 12)
    assert main(["lattice", docs["l1u"], flag, at_cap, "--json"]) == 0
    assert main(["lattice", docs["l1u"], flag, over, "--json"]) == 1
    assert capsys.readouterr().err.endswith(" must be at most 12\n")


@pytest.mark.parametrize("k", ["1", "0", "-5"])
def test_lattice_rule_needs_two_points(docs, capsys, k):
    """The 2 log k rule probes k = 2..K, so a K below 2 is an input error
    instead of an empty NONE_IN_RANGE report."""
    assert main(["lattice", docs["l1u"], "--rule", f"2logk:K={k}", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rule '2logk:K={k}': K must be at least 2\n"
    assert main(["lattice", docs["l1u"], "--rule", "2logk:K=2", "--json"]) == 0


@pytest.mark.parametrize("scale", ["0.001", "1/1000", "1000"])
def test_small_metric_is_positive_definite(tmp_path, capsys, scale):
    """A float metric 0.001 Id passes Sylvester's criterion as its exact
    twin does: the test does not depend on the scale of g."""
    rows = [[scale if i == j else "0" for j in range(4)] for i in range(4)]
    path = tmp_path / "small.alg"
    path.write_text("algebra small dim 4\nd = (f14, f24, f34, 0)\nJ: f1->f2, f3->f4\n"
                    f"g: matrix [{', '.join('[' + ', '.join(r) + ']' for r in rows)}]\n",
                    encoding="utf-8")
    code, rep = run_json(capsys, ["data", str(path), "--json"])
    assert code == 0 and rep["command"] == "data"


@pytest.mark.parametrize("spec", ["id128", "zero128", f"id{10 ** 20}", f"zero{10 ** 20}"])
def test_lchk_caps_the_shorthand_size(capsys, spec):
    """idN and zeroN with N above MAX_MATRIX_SIZE are input errors, before
    the matrix is built (128 is not 4m - 1, which the parent rejected only
    after building it)."""
    assert main(["lchk", "--matrix", spec, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse matrix {spec!r}: the size must be from 1 to 127\n"


def test_lchk_shorthand_cap_is_inclusive(capsys, monkeypatch):
    import aalg.cli
    monkeypatch.setattr(aalg.cli, "MAX_MATRIX_SIZE", 7)
    assert main(["lchk", "--matrix", "id7"]) == 0
    assert main(["lchk", "--matrix", "id8"]) == 1
    assert capsys.readouterr().err.endswith("the size must be from 1 to 7\n")


@pytest.mark.parametrize("argv, epsilon, code", [
    (["lchk", "--matrix", "zero3", "--witness", "--json"], None, 0),
    (["lchk", "--matrix", "idq"], None, 1),
    (["lchk", "--matrix", "[[1, 0, 0], [0, 1, 0], [0, 0, 2]]"], None, 2),
    (["lchk", "--matrix", "id3"], "nan", 1),
    (["lattice", "DOC", "--rule", "2logk:K=3"], None, 0),
    (["lchk", "--matrix", "[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 1.5]]"], None, 2)])
def test_the_module_runs_as_a_process(tmp_path, capsys, monkeypatch, argv, epsilon, code):
    """``python -m aalg.cli`` exits with main's code and writes its output.
    The lattice probe and the float lchk verdict run in a process that has
    not loaded numpy before; DOC is l17, whose B is not in rotation-block
    form, so the probe takes the scaling-and-squaring exponential."""
    doc = tmp_path / "l17.alg"
    doc.write_text(render(entry_document(ENTRIES["l17"])), encoding="utf-8")
    argv = [str(doc) if arg == "DOC" else arg for arg in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "AALG_EPSILON"}
    env["PYTHONPATH"] = src
    monkeypatch.delenv("AALG_EPSILON", raising=False)
    if epsilon is not None:
        env["AALG_EPSILON"] = epsilon
        monkeypatch.setenv("AALG_EPSILON", epsilon)
    proc = subprocess.run([sys.executable, "-m", "aalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


# run in a fresh interpreter: the exact commands, then what they loaded
EXACT_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from aalg import catalog
from aalg.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "parsed": catalog._entries.cache_info().currsize,
                  "attributes": sorted({"ENTRIES", "LCHK_LIST"} & set(vars(catalog)))}))
"""


@pytest.mark.parametrize("commands", [
    [],
    [["check", "G1"], ["data", "G1"], ["rho-b", "G1"], ["check", "S4", "--json"],
     ["data", "S4"], ["rho-b", "S4", "--json"], ["skt-to-lcb", "S4"],
     ["skt-to-lcb", "S4", "--json"]]], ids=["import", "exact-commands"])
def test_exact_commands_load_neither_numpy_nor_the_manifest(tmp_path, commands):
    """Importing ``aalg.cli`` and ``aalg.catalog`` loads neither numpy nor
    the parsed manifest, and the exact check, data, rho-b and skt-to-lcb
    (on s4, an SKT document; g1's metric is not SKT) load neither."""
    paths = {}
    for name in ("g1", "s4"):
        paths[name.upper()] = tmp_path / f"{name}.alg"
        paths[name.upper()].write_text(render(entry_document(ENTRIES[name])), encoding="utf-8")
    argvs = [[str(paths.get(arg, arg)) for arg in argv] for argv in commands]
    env = {k: v for k, v in os.environ.items() if k != "AALG_EPSILON"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", EXACT_COMMANDS_SCRIPT, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(argvs), "numpy": False,
                                       "parsed": 0, "attributes": []}


@pytest.mark.parametrize("command", ["check", "data", "lattice"])
@pytest.mark.parametrize("zeros", [200, 400])
def test_huge_decimal_literal_is_an_input_error(tmp_path, capsys, command, zeros):
    """1 followed by 200 zeros parses, but the Jacobi tolerance scaled to its
    square is not finite; with 400 zeros the literal itself is beyond double
    precision.  Either way: exit 1 and one error line, no traceback."""
    literal = "1" + "0" * zeros + ".0"
    path = tmp_path / "huge.alg"
    path.write_text(f"algebra huge dim 4\nd = ({literal} f14, 0, 0, 0)\n"
                    "J: f1->f4, f2->f3\ng: identity\n", encoding="utf-8")
    argv = [command, str(path)] + (["--rule", "2logk:K=3"] if command == "lattice" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if zeros == 400:
        assert captured.err == f"error: bad number {literal!r} at line 2, column 6\n"
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("double precision\n")


def test_lattice_rejects_an_exact_coefficient_beyond_double_precision(tmp_path, capsys):
    """An exact coefficient of 401 digits stays exact for data, but the float
    probe cannot take B: exit 1 and one error line, no traceback."""
    path = tmp_path / "huge.alg"
    path.write_text(f"algebra huge dim 4\nd = (1{'0' * 400} f14, 0, 0, 0)\n"
                    "J: f1->f4, f2->f3\ng: identity\n", encoding="utf-8")
    assert main(["data", str(path)]) == 0
    capsys.readouterr()
    assert main(["lattice", str(path), "--rule", "2logk:K=3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: B is not finite in double precision\n"
