"""Command line surface.

    aalg check <file> --property kahler|lck|balanced|skt|lcb|vaisman
    aalg data <file>
    aalg rho-b <file>
    aalg lchk --matrix <file|inline>
    aalg lattice <file> --rule "2logk:K=50" | --grid a:b:n
    aalg catalog verify [--entry name] [--samples n]
    aalg skt-to-lcb <file>

Every command exits 0 on success, 2 on mathematical rejection (not almost
abelian, non-integrable J, failed verification, ...) and 1 on input
errors.  ``--json`` produces a machine-readable report with the stable
schema tag ``aalg-report/1``; reports are deterministic for fixed input.
The tolerance for float documents can be set with ``AALG_EPSILON``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction

from . import scalars
from .scalars import fmt
from . import linalg
from .documents import (ParseError, parse, parse_ideal, render,
                        to_algebra, to_complex_structure, to_ideal, to_metric)
from .hermitian import HermitianError, HermitianStructure
from .lie import LieAlgebraError, abelian_ideal
from .almost_abelian import (DATA_PREDICATES, DataError, extract_data, is_lcb_data,
                             is_skt_data, is_type_11, rho_b_closed, route_verdicts,
                             skt_to_lcb)
from .lchk import LchkError, construct_lchk, lchk_admissible
from .lattice import LatticeError, integrality_probe
from .catalog import CatalogError, _restrict_last, verify_all

SCHEMA = "aalg-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2


class MathRejection(Exception):
    """A mathematical rejection: the command exits 2."""


# Caps on the arguments that set how much a command allocates, so that a
# short argument cannot exhaust memory.  Whole commands on a 2-vCPU host:
# --rule 2logk:K=10000 probes the 5x5 matrix of g1 in 1.6-2.5 s and the
# 11x11 one of s_12 in 3-5 s (--grid a:b:10000 alike); lchk --matrix id127
# --witness takes 1.7-2.3 s.
MAX_PROBE_POINTS = 10_000
MAX_MATRIX_SIZE = 127


def _form_json(form):
    return {"+".join(str(i + 1) for i in key): val for key, val in form.terms()}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _structures(args):
    """The document of ``args.file``, the Hermitian structure of its L, J
    and g, and its data extracted on the declared ideal (the --ideal flag,
    else the document's ideal line, else None); a bad or missing ideal is
    rejected here, before J and g are checked."""
    doc = parse(_read(args.file))
    L = to_algebra(doc)
    J = to_complex_structure(doc)
    g = to_metric(doc)
    if J is None or g is None:
        raise ParseError("this command needs both J and g in the document")
    declared = to_ideal(replace(doc, ideal=parse_ideal(args.ideal, doc.dim))
                        if args.ideal else doc)
    abelian_ideal(L, declared)
    H = HermitianStructure(L, J, g)
    return doc, H, extract_data(H, declared)


def _emit(report, args):
    """Write the report.  A Fraction is written as ``fmt`` writes it in
    JSON and as ``str`` writes it in human mode: the same ``p/q`` text."""
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=fmt))
    else:
        _print_human(report)


def _print_human(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for key in report:
            val = report[key]
            if isinstance(val, (dict, list, tuple)):
                print(f"{pad}{key}:")
                _print_human(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(report, (list, tuple)):
        for val in report:
            if isinstance(val, (dict, list, tuple)):
                _print_human(val, indent)
                print()
            else:
                print(f"{pad}- {val}")
    else:
        print(f"{pad}{report}")


PROPERTIES = (*DATA_PREDICATES, "vaisman")


def cmd_check(args):
    doc, H, d = _structures(args)
    props = [args.property] if args.property else list(PROPERTIES)
    results = {}
    for prop in props:
        direct, data, note = route_verdicts(H, d, prop)
        results[prop] = {"direct": direct, "data": data,
                         "agreement": None if data is None else direct == data}
        if note is not None:
            results[prop]["note"] = note
    report = {"schema": SCHEMA, "command": "check", "algebra": doc.name,
              "results": results}
    _emit(report, args)
    bad = [p for p, r in results.items()
           if r["agreement"] is False]
    if bad:
        raise MathRejection(f"direct/data disagreement on {bad}")
    return EXIT_OK


def cmd_data(args):
    doc, _, d = _structures(args)
    report = {
        "schema": SCHEMA, "command": "data", "algebra": doc.name,
        "n": d.n, "a": d.a, "v": d.v, "A": d.A, "J1": d.J1,
        "frame_orthonormal": d.is_orthonormal(),
        "frame_outer_norm_sq": d.d_outer,
        "gauge_invariants": d.gauge_invariants(),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_rho_b(args):
    doc, H, d = _structures(args)
    closed = rho_b_closed(d)
    oracle = H.bismut_ricci_oracle()
    # per key, not via closed - oracle: a KForm drops sub-tolerance differences
    residual = max((abs(float(closed.get(k) - oracle.get(k)))
                    for k in set(closed.coeffs) | set(oracle.coeffs)), default=0.0)
    report = {
        "schema": SCHEMA, "command": "rho-b", "algebra": doc.name,
        "closed_form": _form_json(closed),
        "curvature_oracle": _form_json(oracle),
        "residual": residual,
        "type_1_1": is_type_11(closed, H.J.matrix),
        "is_lcb_data": is_lcb_data(d),
    }
    _emit(report, args)
    if not closed.equals(oracle):
        raise MathRejection("closed rho^B disagrees with the curvature oracle")
    return EXIT_OK


def _parse_inline_matrix(spec):
    spec = spec.strip()
    if os.path.exists(spec):
        spec = _read(spec).strip()
    try:
        for head in ("id", "zero"):
            if spec.startswith(head):
                n = int(spec[len(head):])
                if not 1 <= n <= MAX_MATRIX_SIZE:
                    raise ValueError(f"the size must be from 1 to {MAX_MATRIX_SIZE}")
                return linalg.idmat(n) if head == "id" else linalg.zeros(n, n)
        rows = json.loads(spec)
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("expected a list of rows")
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("expected nonempty rows of one length")
        if len(rows) != len(rows[0]):
            raise ValueError("expected a square matrix")
        entries = [[_matrix_entry(x) for x in row] for row in rows]
        # as in a document, one decimal literal makes the whole matrix float
        if any(isinstance(x, float) for row in entries for x in row):
            return linalg.as_matrix(entries, scalars.FLOAT)
        return entries
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"cannot parse matrix {spec!r}: {exc}")


def _matrix_entry(x):
    """A JSON matrix entry: an integer or a rational string (exact), or a
    finite float."""
    if isinstance(x, float) and math.isfinite(x):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"entry {x!r} is not a number")


def cmd_lchk(args):
    D = _parse_inline_matrix(args.matrix)
    verdict, witness = construct_lchk(D) if args.witness else (lchk_admissible(D), None)
    report = {"schema": SCHEMA, "command": "lchk", **asdict(verdict)}
    if isinstance(witness, LchkError) and verdict.admissible:
        report["witness"] = {"error": str(witness)}
    elif witness and verdict.admissible:
        L, triple, P, dc = witness
        report["witness"] = {
            "canonical_form": dc, "basis_change": P,
            "lee_form": _form_json(triple.theta),
            "I1": triple.I1.matrix, "I2": triple.I2.matrix, "I3": triple.I3.matrix,
        }
    _emit(report, args)
    if not verdict.admissible:
        raise MathRejection("D is not LCHK-admissible")
    return EXIT_OK


def _parse_rule(rule):
    # "2logk:K=50"
    try:
        head, tail = rule.split(":", 1)
        if head != "2logk":
            raise ValueError
        key, val = tail.split("=", 1)
        if key != "K":
            raise ValueError
        k_max = int(val)
    except ValueError:
        raise ParseError(f"cannot parse rule {rule!r}; expected '2logk:K=50'")
    if not 2 <= k_max <= MAX_PROBE_POINTS:
        bound = "at least 2" if k_max < 2 else f"at most {MAX_PROBE_POINTS}"
        raise ParseError(f"rule {rule!r}: K must be {bound}")
    return k_max


def _parse_grid(grid):
    try:
        a, b, n = grid.split(":")
        a, b, n = float(a), float(b), int(n)
        if n < 1 or not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError
    except ValueError:
        raise ParseError(f"cannot parse grid {grid!r}; expected 'a:b:n', a and b finite, n >= 1")
    if n > MAX_PROBE_POINTS:
        raise ParseError(f"grid {grid!r}: n must be at most {MAX_PROBE_POINTS}")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _lattice_frame(L, ideal):
    """The ideal's basis, then the transversal e_t: t is the last index with
    xi_t != 0 for the ideal's covector xi (any covector in dimension one)."""
    vecs = [list(v) for v in ideal]
    unit = linalg.idmat(L.dim, L.kind)
    xi = (linalg.nullspace(vecs) if vecs else unit)[0]
    t = max(i for i, x in enumerate(xi) if not scalars.is_zero(x))
    return linalg.transpose(vecs + [unit[t]])


def cmd_lattice(args):
    doc = parse(_read(args.file))
    L = to_algebra(doc)
    # B: ad of the transversal on the ideal, in the ideal basis
    frame = _lattice_frame(L, abelian_ideal(L, to_ideal(doc)))
    B = _restrict_last(L.change_basis(frame))
    eps_int = args.eps_int
    if args.rule:
        k_max = _parse_rule(args.rule)
        rep = integrality_probe(B, rule_k_max=k_max, eps_int=eps_int)
    else:
        ts = _parse_grid(args.grid)
        rep = integrality_probe(B, t_values=ts, eps_int=eps_int)
    report = {
        "schema": SCHEMA, "command": "lattice", "algebra": doc.name,
        "overall": rep.overall,
        "found_t": rep.found,
        "eps_int": rep.eps_int,
        "points": [{
            "t": pt.t, "k": pt.k, "verdict": pt.verdict,
            "max_deviation": pt.max_deviation,
            "char": pt.char_coeffs, "min": pt.min_coeffs,
            "residual": pt.residual,
            "residual_vs_inv_k": pt.residual_vs_inv_k,
        } for pt in rep.points],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_catalog(args):
    names = [args.entry] if args.entry else None
    rep = verify_all(names, samples=args.samples)
    report = {
        "schema": SCHEMA, "command": "catalog-verify",
        "ok": rep["ok"],
        "elapsed_s": round(rep["elapsed_s"], 3),
        "entries": rep["results"],
    }
    _emit(report, args)
    if not rep["ok"]:
        raise MathRejection("catalog verification failed")
    return EXIT_OK


def cmd_skt_to_lcb(args):
    doc, _, d = _structures(args)
    if not is_skt_data(d):
        raise MathRejection("the document's metric is not SKT")
    dp = skt_to_lcb(d)
    new_doc = replace(doc, name=doc.name + "-lcb", g_spec=("matrix", dp.metric().g))
    if not args.json:
        sys.stdout.write(render(new_doc))
        return EXIT_OK
    _emit({"schema": SCHEMA, "command": "skt-to-lcb", "algebra": doc.name,
           "document": render(new_doc), "new_v": dp.v, "is_lcb": is_lcb_data(dp)}, args)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built at the first call and shared after it:
    ``parse_args`` never mutates it, and each parse returns a fresh
    namespace.  The subcommand is dispatched by name through
    :data:`COMMANDS`, so the shared parser holds no function: whatever
    COMMANDS holds at the call runs."""
    ap = argparse.ArgumentParser(
        prog="aalg",
        description="special Hermitian structures on almost abelian Lie algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true")
    structure = argparse.ArgumentParser(add_help=False, parents=[report])
    structure.add_argument("file")
    structure.add_argument("--ideal", help="declare the abelian ideal, e.g. 'f2, f3, f4'")

    p = sub.add_parser("check", parents=[structure],
                       help="predicate verdicts (direct and data criteria)")
    p.add_argument("--property", choices=PROPERTIES)
    sub.add_parser("data", parents=[structure], help="extracted (a, v, A) and gauge invariants")
    sub.add_parser("rho-b", parents=[structure],
                   help="Bismut-Ricci closed form, oracle and type")

    p = sub.add_parser("lchk", parents=[report], help="LCHK admissibility verdict")
    p.add_argument("--matrix", required=True,
                   help=f"file, inline JSON rows, idN or zeroN with N <= {MAX_MATRIX_SIZE}")
    p.add_argument("--witness", action="store_true")

    p = sub.add_parser("lattice", parents=[report],
                       help="integer polynomial lattice obstruction probe")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", help=f"'2logk:K=50', 2 <= K <= {MAX_PROBE_POINTS}")
    group.add_argument("--grid", help=f"'a:b:n', n <= {MAX_PROBE_POINTS}")
    p.add_argument("--eps-int", type=float, default=None)

    p = sub.add_parser("catalog", parents=[report], help="catalog verification harness")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--entry")
    p.add_argument("--samples", type=int, default=None)

    sub.add_parser("skt-to-lcb", parents=[structure], help="transformed LCB metric document")
    return ap


COMMANDS = {"check": cmd_check, "data": cmd_data, "rho-b": cmd_rho_b, "lchk": cmd_lchk,
            "lattice": cmd_lattice, "catalog": cmd_catalog, "skt-to-lcb": cmd_skt_to_lcb}


def main(argv=None):
    env_eps = os.environ.get("AALG_EPSILON")
    try:
        # AALG_EPSILON holds for this call only: in-process callers keep theirs
        scope = scalars.tolerance(float(env_eps) if env_eps else scalars.current_eps())
    except ValueError:
        print(f"error: bad AALG_EPSILON {env_eps!r}", file=sys.stderr)
        return EXIT_INPUT
    args = build_parser().parse_args(argv)
    with scope:
        try:
            return COMMANDS[args.command](args)
        except (ParseError, CatalogError, LatticeError, scalars.PrecisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (MathRejection, HermitianError, LieAlgebraError, DataError,
                LchkError) as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
