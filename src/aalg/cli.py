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
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import scalars
from .scalars import fmt
from . import linalg
from .documents import (ParseError, parse, parse_ideal, render,
                        to_algebra, to_complex_structure, to_ideal, to_metric)
from .hermitian import HermitianError, HermitianStructure
from .lie import LieAlgebraError, abelian_ideal
from .almost_abelian import (DataError, extract_data, is_lcb_data, is_skt_data,
                             is_type_11, rho_b_closed, adapted_J_matrix, route_verdicts,
                             skt_to_lcb)
from .lchk import LchkError, construct_lchk, lchk_admissible
from .lattice import integrality_probe
from .catalog import CatalogError, verify_all

SCHEMA = "aalg-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2


class MathRejection(Exception):
    def __init__(self, message):
        super().__init__(message)


def _scalar_json(x):
    if isinstance(x, Fraction):
        return fmt(x)
    if isinstance(x, float):
        return x
    if isinstance(x, (list, tuple)):
        return [_scalar_json(v) for v in x]
    return x


def _matrix_json(m):
    return [[_scalar_json(x) for x in row] for row in m]


def _form_json(form):
    return {"+".join(str(i + 1) for i in key): _scalar_json(val)
            for key, val in form.terms()}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_document(path):
    return parse(_read(path))


def _structures(doc, ideal_flag=None):
    """L, J, g and the declared ideal (the --ideal flag, else the
    document's ideal line, else None); a bad or missing ideal is rejected
    here, before any check of J."""
    L = to_algebra(doc)
    J = to_complex_structure(doc)
    g = to_metric(doc)
    if J is None or g is None:
        raise ParseError("this command needs both J and g in the document")
    declared = to_ideal(replace(doc, ideal=parse_ideal(ideal_flag, doc.dim))
                        if ideal_flag else doc)
    abelian_ideal(L, declared)
    return L, J, g, declared


def _emit(report, args):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_scalar_json))
    else:
        _print_human(report)


def _print_human(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for key in report:
            val = report[key]
            if isinstance(val, (dict, list)):
                print(f"{pad}{key}:")
                _print_human(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(report, list):
        for val in report:
            if isinstance(val, (dict, list)):
                _print_human(val, indent)
                print()
            else:
                print(f"{pad}- {val}")
    else:
        print(f"{pad}{report}")


PROPERTIES = ("kahler", "lck", "balanced", "skt", "lcb", "vaisman")


def cmd_check(args):
    doc = _load_document(args.file)
    L, J, g, ideal = _structures(doc, ideal_flag=args.ideal)
    H = HermitianStructure(L, J, g)
    if not H.is_integrable():
        raise MathRejection("J is not integrable")
    d = extract_data(L, ideal, J, g)
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
    doc = _load_document(args.file)
    L, J, g, ideal = _structures(doc, ideal_flag=args.ideal)
    d = extract_data(L, ideal, J, g)
    inv = d.gauge_invariants()
    report = {
        "schema": SCHEMA, "command": "data", "algebra": doc.name,
        "n": d.n,
        "a": _scalar_json(d.a),
        "v": _scalar_json(list(d.v)),
        "A": _matrix_json(d.A_matrix),
        "J1": _matrix_json(d.J1_matrix),
        "frame_orthonormal": d.is_orthonormal(),
        "frame_outer_norm_sq": _scalar_json(d.d_outer),
        "gauge_invariants": {
            "a": _scalar_json(inv["a"]),
            "trace_A": _scalar_json(inv["trace_A"]),
            "v_norm_sq": _scalar_json(inv["v_norm_sq"]),
            "charpoly_A": _scalar_json(list(inv["charpoly_A"])),
            "rank_A": inv["rank_A"],
        },
    }
    _emit(report, args)
    return EXIT_OK


def cmd_rho_b(args):
    doc = _load_document(args.file)
    L, J, g, ideal = _structures(doc, ideal_flag=args.ideal)
    H = HermitianStructure(L, J, g)
    if not H.is_integrable():
        raise MathRejection("J is not integrable")
    d = extract_data(L, ideal, J, g)
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
        "type_1_1": is_type_11(closed, adapted_J_matrix(d)),
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
        if spec.startswith("id"):
            return linalg.idmat(int(spec[2:]))
        if spec.startswith("zero"):
            return linalg.zeros(int(spec[4:]), int(spec[4:]))
        rows = json.loads(spec)
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("expected a list of rows")
        return [[_matrix_entry(x) for x in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
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
    try:
        verdict = lchk_admissible(D)
    except LchkError as exc:
        raise MathRejection(str(exc))
    report = {
        "schema": SCHEMA, "command": "lchk",
        "admissible": verdict.admissible,
        "a": _scalar_json(verdict.a),
        "hyperkahler": verdict.hyperkahler,
        "diagonalizable": verdict.diagonalizable,
        "condition_spectrum_line": verdict.condition_spectrum_line,
        "condition_real_multiplicity": verdict.condition_real_multiplicity,
        "condition_even_pairs": verdict.condition_even_pairs,
        "multiplicities": [[_scalar_json(b), m] for b, m in verdict.multiplicities],
    }
    if verdict.admissible and args.witness:
        try:
            L, triple, P, dc = construct_lchk(D)
            theta = triple.theta
            report["witness"] = {
                "canonical_form": _matrix_json(dc),
                "basis_change": _matrix_json(P),
                "lee_form": _form_json(theta),
                "I1": _matrix_json(triple.I1.matrix),
                "I2": _matrix_json(triple.I2.matrix),
                "I3": _matrix_json(triple.I3.matrix),
            }
        except LchkError as exc:
            report["witness"] = {"error": str(exc)}
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
        return int(val)
    except ValueError:
        raise ParseError(f"cannot parse rule {rule!r}; expected '2logk:K=50'")


def _parse_grid(grid):
    try:
        a, b, n = grid.split(":")
        a, b, n = float(a), float(b), int(n)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ParseError(f"cannot parse grid {grid!r}; expected 'a:b:n'")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def cmd_lattice(args):
    doc = _load_document(args.file)
    L = to_algebra(doc)
    ideal = abelian_ideal(L, to_ideal(doc))
    # matrix of ad on the ideal in the ideal basis
    vecs = [list(v) for v in ideal.vectors]
    # transversal: the last basis vector outside the hyperplane
    trans = next(e for e in reversed(linalg.idmat(L.dim)) if not ideal.contains(e))
    full = linalg.transpose(vecs + [trans])
    inv = linalg.inverse(full)
    cols = [linalg.mat_vec(inv, L.bracket(trans, v))[:-1] for v in vecs]
    B = [[float(cols[j][i]) for j in range(len(vecs))] for i in range(len(vecs))]
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
            "char": list(pt.char_coeffs), "min": list(pt.min_coeffs),
            "residual": pt.residual,
            "residual_vs_inv_k": pt.residual_vs_inv_k,
        } for pt in rep.points],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_catalog(args):
    if args.action != "verify":
        raise ParseError(f"unknown catalog action {args.action!r}")
    names = [args.entry] if args.entry else None
    try:
        rep = verify_all(names, samples=args.samples)
    except CatalogError as exc:
        raise ParseError(str(exc))
    report = {
        "schema": SCHEMA, "command": "catalog-verify",
        "ok": rep["ok"],
        "elapsed_s": round(rep["elapsed_s"], 3),
        "entries": [{
            "entry": r["entry"],
            "ok": r["ok"],
            "samples": [{k: _scalar_json(v) for k, v in s.items()} for s in r["samples"]],
            "failures": r["failures"],
            "not_checked": list(r["not_checked"]),
        } for r in rep["results"]],
    }
    _emit(report, args)
    if not rep["ok"]:
        raise MathRejection("catalog verification failed")
    return EXIT_OK


def cmd_skt_to_lcb(args):
    doc = _load_document(args.file)
    L, J, g, ideal = _structures(doc, ideal_flag=args.ideal)
    d = extract_data(L, ideal, J, g)
    if not is_skt_data(d):
        raise MathRejection("the document's metric is not SKT")
    dp = skt_to_lcb(d)
    new_doc = replace(doc, name=doc.name + "-lcb", g_spec=("matrix", dp.metric().g))
    if args.json:
        report = {"schema": SCHEMA, "command": "skt-to-lcb",
                  "algebra": doc.name,
                  "document": render(new_doc),
                  "new_v": _scalar_json(list(dp.v)),
                  "is_lcb": is_lcb_data(dp)}
        print(json.dumps(report, sort_keys=True, indent=2, default=_scalar_json))
    else:
        sys.stdout.write(render(new_doc))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="aalg",
        description="special Hermitian structures on almost abelian Lie algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="predicate verdicts (direct and data criteria)")
    p.add_argument("file")
    p.add_argument("--ideal", help="declare the abelian ideal, e.g. 'f2, f3, f4'")
    p.add_argument("--property", choices=PROPERTIES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("data", help="extracted (a, v, A) and gauge invariants")
    p.add_argument("file")
    p.add_argument("--ideal", help="declare the abelian ideal, e.g. 'f2, f3, f4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("rho-b", help="Bismut-Ricci closed form, oracle and type")
    p.add_argument("file")
    p.add_argument("--ideal", help="declare the abelian ideal, e.g. 'f2, f3, f4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rho_b)

    p = sub.add_parser("lchk", help="LCHK admissibility verdict")
    p.add_argument("--matrix", required=True,
                   help="file, inline JSON rows, idN or zeroN")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lchk)

    p = sub.add_parser("lattice", help="integer polynomial lattice obstruction probe")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", help="'2logk:K=50'")
    group.add_argument("--grid", help="'a:b:n'")
    p.add_argument("--eps-int", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("catalog", help="catalog verification harness")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--entry")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("skt-to-lcb", help="transformed LCB metric document")
    p.add_argument("file")
    p.add_argument("--ideal", help="declare the abelian ideal, e.g. 'f2, f3, f4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_skt_to_lcb)
    return ap


def main(argv=None):
    env_eps = os.environ.get("AALG_EPSILON")
    try:
        eps = float(env_eps) if env_eps else scalars.current_eps()
    except ValueError:
        print(f"error: bad AALG_EPSILON {env_eps!r}", file=sys.stderr)
        return EXIT_INPUT
    args = build_parser().parse_args(argv)
    # AALG_EPSILON holds for this call only: in-process callers keep theirs
    with scalars.tolerance(eps):
        try:
            return args.func(args)
        except (ParseError, CatalogError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (MathRejection, HermitianError, LieAlgebraError, DataError,
                LchkError) as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
