"""The three benchmark workloads: draws, sweep and float.

``WORKLOADS[name](seed, workdir)`` returns one pass: a list of
``Item(label, dim, run)``.  The list depends only on the seed, and every
call of ``run()`` does the same work, so passes can be repeated.  ``run()``
returns ``(record, problems)``: ``record`` is the canonical, JSON-ready
output of the item (hashed into the digest) and ``problems`` lists every
disagreement between two routes that should agree.

Library calls go through module attributes (``almost_abelian.extract_data``
rather than a copied name) so that the traced run sees every one of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import namedtuple
from fractions import Fraction as F

import numpy as np

from aalg import (almost_abelian, catalog, cli, documents, hermitian, lattice,
                  lchk, linalg)

import gen

Item = namedtuple("Item", "label dim run")

PREDICATES = ("kahler", "lck", "balanced", "skt", "lcb")

DRAWS_DIMS = (4, 6, 8)
# dimension 8 three times (three times the structures): the median latency
# then falls inside the dim-8 structures, not in the gap below them
FLOAT_DIMS = (4, 6, 8, 8, 8, 10, 12)
# 2n = 4 adds twelve commands of a few milliseconds each, which puts the
# median latency inside the 90-160 ms group (catalog g1/l1, data and
# skt-to-lcb on s_8) instead of at its upper edge
SWEEP_DIMS = (4, 6, 8, 10, 12)
SWEEP_COMMANDS = ("data", "check", "rho-b", "skt-to-lcb")
# catalog verify subset: LCK (g), LCB (l) and one m = 3 hyperkahler LCHK entry
SWEEP_CATALOG = ("g1", "l1", "lchk-m3-hk1")
# entries whose brackets all involve the last basis vector, so that
# ad(e_last) on span(e_1 .. e_{dim-1}) is the matrix of the lattice probe
PROBE_ENTRIES = ("g1", "g2", "g5", "l1", "l8", "l9", "l14", "l17")
PROBE_GRID = tuple(0.25 * k for k in range(1, 9))
L1_P = (1 / 3, 1 / 2, 2.0, 1 / 4, 3 / 4, 3 / 2, 2 / 3, 1 / 5)
S2N_PARAM_POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2))
# structures per (dim, shape) pairing in one pass of draws and float: the cost
# of a structure depends on its random entries, and more of them per pass
# keeps the pass time and the median latency from following the seed
PER_PAIRING = 2


# -- draws / float: one Hermitian structure, every route compared -------------

def _float_data(d):
    return almost_abelian.data_from_parts(
        float(d.a), [float(x) for x in d.v],
        [[float(x) for x in row] for row in d.A],
        [[float(x) for x in row] for row in d.J1])


def check_structure(d, shape):
    """Direct vs data predicates, closed vs oracle rho^B, LCB <=> type (1,1),
    and SKT -> LCB, on one structure; exact equality on the exact path and
    the default tolerance on the float path."""
    exact = d.kind == "exact"
    L, J, g = almost_abelian.build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
    H = hermitian.HermitianStructure(L, J, g)
    problems = []
    direct = {}
    data = {}
    for name in PREDICATES:
        direct[name] = getattr(H, f"is_{name}_direct")()
        data[name] = getattr(almost_abelian, f"is_{name}_data")(d)
        if direct[name] != data[name]:
            problems.append(f"{name}: direct {direct[name]}, data {data[name]}")
    closed = almost_abelian.rho_b_closed(d)
    oracle = H.bismut_ricci_oracle()
    if not (closed == oracle if exact else closed.equals(oracle)):
        problems.append("rho^B: closed form != curvature oracle")
    type11 = almost_abelian.is_type_11(closed, almost_abelian.adapted_J_matrix(d))
    if type11 != data["lcb"]:
        problems.append(f"type (1,1) {type11} but LCB {data['lcb']}")
    record = {"dim": 2 * d.n, "shape": shape, "direct": direct, "data": data,
              "type_11": type11}
    if data["skt"]:
        out = almost_abelian.skt_to_lcb(d)
        record["skt_to_lcb"] = almost_abelian.is_lcb_data(out)
        if not record["skt_to_lcb"]:
            problems.append("skt_to_lcb output is not LCB")
        if exact and d.a != 0 and not linalg.is_zero_vector(list(out.v)):
            problems.append("skt_to_lcb: a != 0 but v' != 0")
    if exact:
        record["rho_b"] = [[list(k), str(c)] for k, c in closed.terms()]
    return record, problems


def _structure_items(seed, dims, to_float):
    """PER_PAIRING structures for every (dim, shape) pairing."""
    items = []
    count = PER_PAIRING * len(gen.SHAPES) * len(dims)
    for i, (dim, shape, d) in enumerate(gen.data_stream(seed, count, dims)):
        if to_float:
            d = _float_data(d)
        items.append(Item(f"{shape}-{dim}-{i}", dim,
                          lambda d=d, shape=shape: check_structure(d, shape)))
    return items


def draws_items(seed, workdir):
    return _structure_items(seed, DRAWS_DIMS, to_float=False)


# -- sweep: CLI commands in-process -------------------------------------------

def run_cli(argv):
    """aalg.cli.main(argv + ['--json']) with stdout captured; (rc, report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv) + ["--json"])
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    if isinstance(report, dict):
        report.pop("elapsed_s", None)
    return rc, report


def _cli_item(label, dim, argv, shown, check):
    """``shown`` replaces argv in the record so file locations never enter it."""
    def run():
        rc, report = run_cli(argv)
        problems = [f"exit code {rc}"] if rc != 0 else []
        if report is None:
            problems.append("no JSON report")
        else:
            problems += check(report)
        return {"argv": shown, "rc": rc, "report": report}, problems
    return Item(label, dim, run)


def _check_report(command):
    def check(rep):
        if command == "check":
            return [f"{p}: routes disagree" for p, r in rep["results"].items()
                    if r["agreement"] is False]
        if command == "rho-b":
            out = [] if rep["residual"] == 0 else [f"rho-b residual {rep['residual']}"]
            if rep["type_1_1"] != rep["is_lcb_data"]:
                out.append("rho-b: type (1,1) != LCB")
            return out
        if command == "skt-to-lcb":
            return [] if rep["is_lcb"] else ["skt-to-lcb output is not LCB"]
        return []
    return check


def _check_lchk(hyperkahler):
    def check(rep):
        out = [] if rep["admissible"] else ["lchk: not admissible"]
        if rep["hyperkahler"] != hyperkahler:
            out.append(f"lchk: hyperkahler {rep['hyperkahler']}, want {hyperkahler}")
        if "error" in rep.get("witness", {"error": "missing"}):
            out.append("lchk: no witness")
        return out
    return check


def _check_catalog(rep):
    return [] if rep["ok"] else ["catalog verify failed"]


def _repeats(dim):
    """Inputs per pass for the commands at ``dim``.  Commands on structures of
    dimension <= 8 take well under a second; each runs on several seeded
    inputs, so that the latency percentiles, which fall among them, rest on
    several samples and several inputs.  Five at dimension 8: the tail rank
    (ten items beyond it) then falls inside the s_8 check/rho-b group, not at
    its lower edge."""
    return 5 if dim == 8 else 3 if dim < 8 else 1


def _matrix_arg(D):
    return json.dumps([[str(x) for x in row] for row in D])


def sweep_items(seed, workdir):
    rng = random.Random(seed)
    items = []
    for dim in SWEEP_DIMS:
        entry = catalog._s2n_entry(dim // 2)
        for r in range(_repeats(dim)):
            params = {p: rng.choice(S2N_PARAM_POOL) for p in entry.params}
            text = documents.render(catalog.entry_document(entry, params))
            name = f"s{dim}-{r}.alg"
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command in SWEEP_COMMANDS:
                items.append(_cli_item(f"{command}-{name}", dim, [command, path],
                                       [command, name], _check_report(command)))
    for m in (1, 2, 3):
        names = [n for n in catalog.LCHK_LIST if catalog.ENTRIES[n].dim == 4 * m]
        for _ in range(_repeats(4 * m)):
            entry = catalog.ENTRIES[rng.choice(names)]
            params = rng.choice(entry.samples)
            D = catalog._restrict_last(catalog.instantiate(entry, params))
            argv = ["lchk", "--matrix", _matrix_arg(D), "--witness"]
            items.append(_cli_item(f"lchk-{entry.name}", 4 * m, argv, argv,
                                   _check_lchk(entry.witnesses[0].hyperkahler)))
    for name in SWEEP_CATALOG:
        argv = ["catalog", "verify", "--entry", name, "--samples", "1"]
        dim = catalog.ENTRIES[name].dim
        items += [_cli_item(f"catalog-{name}", dim, argv, argv, _check_catalog)] * _repeats(dim)
    return items


# -- float: structures as floats, lattice probe, LCHK verdicts ------------------

def _l1_probe(p):
    """l1 on its unimodular line q = -1/2 - p: never integral on 2 log k."""
    diag = (1.0, p, p, -0.5 - p, -0.5 - p)
    B = [[diag[i] if i == j else 0.0 for j in range(5)] for i in range(5)]

    def run():
        rep = lattice.integrality_probe(B, rule_k_max=50)
        problems = [] if rep.overall == "NONE_IN_RANGE" else [f"l1 p={p}: {rep.overall}"]
        worst = max(pt.residual_vs_inv_k for pt in rep.points)
        if worst > 1e-9:
            problems.append(f"l1 p={p}: residual gap {worst:.2e}")
        return {"overall": rep.overall,
                "verdicts": [pt.verdict for pt in rep.points]}, problems
    return run


def _grid_probe(B):
    """Probe on a grid; det exp(tB) = exp(t tr B) checks each char polynomial."""
    n = len(B)
    tr = sum(B[i][i] for i in range(n))

    def run():
        rep = lattice.integrality_probe(B, t_values=list(PROBE_GRID))
        problems = []
        for pt in rep.points:
            want = (-1) ** n * float(np.exp(pt.t * tr))
            if abs(pt.char_coeffs[0] - want) > 1e-8 * max(1.0, abs(want)) \
                    or pt.char_coeffs[-1] != 1.0:
                problems.append(f"t={pt.t}: char poly {pt.char_coeffs}")
        return {"overall": rep.overall,
                "verdicts": [pt.verdict for pt in rep.points]}, problems
    return run


def _lchk_float(entry, params):
    """Float admissibility against the exact canonical form of the same D."""
    D = catalog._restrict_last(catalog.instantiate(entry, params))
    Df = [[float(x) for x in row] for row in D]

    def run():
        v = lchk.lchk_admissible(Df)
        p, dc, a, blocks = lchk.canonical_form(D)
        problems = []
        if not v.admissible:
            problems.append("float verdict not admissible")
        if v.hyperkahler != entry.witnesses[0].hyperkahler:
            problems.append(f"float hyperkahler {v.hyperkahler}")
        if v.a is None or abs(v.a - float(a)) > 1e-9:
            problems.append(f"float a {v.a}, exact {a}")
        P = np.array(p, dtype=float)
        resid = np.abs(np.array(Df) @ P - P @ np.array(dc, dtype=float)).max()
        if resid > 1e-9:
            problems.append(f"canonical form residual {resid:.2e}")
        return {"admissible": v.admissible, "hyperkahler": v.hyperkahler,
                "diagonalizable": v.diagonalizable,
                "conditions": [v.condition_spectrum_line,
                               v.condition_real_multiplicity,
                               v.condition_even_pairs]}, problems
    return run


def float_items(seed, workdir):
    """Seeded structures; the probes and LCHK entries are the same for every seed."""
    items = _structure_items(seed, FLOAT_DIMS, to_float=True)
    for p in L1_P:
        items.append(Item(f"probe-l1-{p:.4f}", 6, _l1_probe(p)))
    for name in PROBE_ENTRIES:
        entry = catalog.ENTRIES[name]
        L = catalog.instantiate(entry, entry.samples[0])
        B = [[float(x) for x in row] for row in catalog._restrict_last(L)]
        items.append(Item(f"probe-{name}", entry.dim, _grid_probe(B)))
    for name in catalog.LCHK_LIST:
        entry = catalog.ENTRIES[name]
        items.append(Item(f"lchk-{name}", entry.dim, _lchk_float(entry, entry.samples[0])))
    return items


WORKLOADS = {"draws": draws_items, "sweep": sweep_items, "float": float_items}
