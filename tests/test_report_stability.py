"""The ``--json`` reports of check, data, rho-b and skt-to-lcb stay
byte-identical across refactors of the kernels.

The inputs are random structures of every shape at dims 4 .. 10, each
moved by a random shear (so the frame is dense and the ideal search and
extraction do real work), half of them with a declared ``ideal:`` line,
plus their float copies.  Each run's exit code, stdout and stderr are
hashed and compared with the digests in ``report_digests.json``.  A
float report that moves in its last bit fails here, as an exact one
whose text changes does.

To re-record after an intended change of a report, run this file as a
script (``PYTHONPATH=src python tests/test_report_stability.py``) and
name the change in CHANGES.md.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from aalg import linalg
from aalg.almost_abelian import build_algebra
from aalg.cli import main
from aalg.documents import AlgebraDocument, Term, render
from aalg.scalars import EXACT, FLOAT

from conftest import ALL_SHAPES, random_data, random_shear, transported

DIGESTS = Path(__file__).with_name("report_digests.json")
COMMANDS = ("check", "data", "rho-b", "skt-to-lcb")
DIMS = (2, 3, 4, 5)


def document(name, L, J, g, ideal, convert):
    """The document of (L, J, g) and the declared ideal (None: no ideal
    line), every value passed through ``convert``."""
    differential = tuple(
        tuple(Term(i + 1, j + 1, convert(-vec[k])) for (i, j), vec in sorted(L.brackets.items())
              if vec[k] != 0)
        for k in range(L.dim))

    def rows(m):
        return tuple(tuple(convert(x) for x in row) for row in m)

    return AlgebraDocument(
        name=name, dim=L.dim, differential=differential,
        j_spec=("matrix", rows(J.J)), g_spec=("matrix", rows(g.g)),
        ideal=None if ideal is None else rows(ideal),
        kind=FLOAT if convert is float else EXACT)


def documents():
    """(name, text) for each sheared structure and its float copy."""
    out = []
    for n in DIMS:
        for k, shape in enumerate(ALL_SHAPES):
            rng = random.Random(1000 * n + k)
            d = random_data(rng, n, shape)
            s = random_shear(rng, 2 * n)
            L, J, g = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix), s)
            # span(e_1 .. e_{2n-1}) of the adapted basis: the first 2n-1
            # columns of s^-1
            ideal = linalg.transpose(linalg.inverse(s))[:-1] if (n + k) % 2 else None
            for convert in (lambda x: x, float):
                name = f"dim{2 * n}-{shape}-{'float' if convert is float else 'exact'}"
                out.append((name, render(document(name, L, J, g, ideal, convert))))
    return out


def digests(tmp_path):
    out = {}
    for name, text in documents():
        path = tmp_path / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([command, str(path), "--json"])
            blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
            out[f"{name} {command}"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return out


def test_reports_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"{len(changed)} reports changed: {changed}"


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
