"""Every command's output, human and ``--json``, stays byte-identical
across refactors of the CLI.

The corpus covers the seven commands: check, data, rho-b and skt-to-lcb
on every catalog document and its float copy; lattice on the same
documents, with the 2 log k rule and with a grid; lchk with a witness on
the restriction of every LCHK sample, exact and float; and catalog verify
on every entry.  Each run's exit code, stdout and stderr are hashed (the
``elapsed_s`` line, a wall time, dropped) and compared with the digests in
``cli_report_digests.json``.

To re-record after an intended change of a report, run this file as a
script (``PYTHONPATH=src python tests/test_cli_reports.py``) and name the
change in CHANGES.md.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from aalg.catalog import ENTRIES, LCHK_LIST, _restrict_last, entry_document, instantiate
from aalg.cli import main
from aalg.documents import parse, render
from aalg.scalars import FLOAT

DIGESTS = Path(__file__).with_name("cli_report_digests.json")
STRUCTURE_COMMANDS = (["check"], ["data"], ["rho-b"], ["skt-to-lcb"],
                      ["lattice", "--rule", "2logk:K=12"], ["lattice", "--grid", "0.5:2:4"])
MODES = ((), ("--json",))
# rejections the catalog does not reach: a non-integrable J, an algebra
# that is not almost abelian, and a D that is not LCHK-admissible
REJECTED_DOCUMENTS = (
    "algebra g4bad dim 6\nd = (f16, f26, f36, f46, 0, 0)\nJ: f1->f6, f2->f3, f4->f5\n"
    "g: identity\n",
    "algebra so3R dim 4\nd = (f23, -f13, f12, 0)\nJ: f1->f2, f3->f4\ng: identity\n")
MATRICES = ("id3", "zero7", "[[1, 0, 0], [0, 1, 0], [0, 0, 2]]",
            "[[1.0, 0, 0], [0, 1, 0], [0, 0, 2]]")
ELAPSED = re.compile(r'^\s*"?elapsed_s"?: .*\n', re.MULTILINE)


def float_copy(doc):
    """The document with every value written as a decimal."""
    def rows(m):
        return tuple(tuple(float(x) for x in row) for row in m)

    def spec(s):
        return s if s is None or s[0] != "matrix" else ("matrix", rows(s[1]))

    return replace(
        doc, name=doc.name + "-float", params={k: float(v) for k, v in doc.params.items()},
        differential=tuple(tuple(replace(t, coeff=float(t.coeff)) for t in expr)
                           for expr in doc.differential),
        j_spec=spec(doc.j_spec), g_spec=spec(doc.g_spec),
        ideal=None if doc.ideal is None else rows(doc.ideal), kind=FLOAT)


def runs(tmp_path):
    """(label, argv) of every run in the corpus."""
    out = []
    documents = [entry_document(ENTRIES[name]) for name in sorted(ENTRIES)]
    for doc in documents + [parse(text) for text in REJECTED_DOCUMENTS]:
        for copy in (doc, float_copy(doc)):
            path = tmp_path / f"{copy.name}.alg"
            path.write_text(render(copy), encoding="utf-8")
            out += [(f"{copy.name} {' '.join(command)}", [command[0], str(path), *command[1:]])
                    for command in STRUCTURE_COMMANDS]
    for name in LCHK_LIST:
        for k, params in enumerate(ENTRIES[name].samples):
            D = _restrict_last(instantiate(ENTRIES[name], params))
            for kind, convert in (("exact", str), ("float", float)):
                matrix = json.dumps([[convert(x) for x in row] for row in D])
                out.append((f"lchk {name} sample {k} {kind}",
                            ["lchk", "--matrix", matrix, "--witness"]))
    out += [(f"lchk {spec}", ["lchk", "--matrix", spec, "--witness"]) for spec in MATRICES]
    out += [(f"catalog {name}", ["catalog", "verify", "--entry", name]) for name in sorted(ENTRIES)]
    out.append(("catalog all samples 1", ["catalog", "verify", "--samples", "1"]))
    return out


def digests(tmp_path):
    out = {}
    for label, argv in runs(tmp_path):
        for mode in MODES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv + list(mode))
            blob = json.dumps([code, ELAPSED.sub("", stdout.getvalue()), stderr.getvalue()])
            out[" ".join([label, *mode])] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return out


def test_every_command_matches_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"{len(changed)} outputs changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
