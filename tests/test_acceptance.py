"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All counts, tolerances and runtime budgets are pinned here:
equalities on the exact path, 1e-8 for float identities, 1e-9 for the
lattice residual, 30 s / 120 s wall-clock budgets where stated.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from aalg import linalg
from aalg.forms import KForm, exterior_derivative, wedge
from aalg.hermitian import HermitianStructure
from aalg.lie import LieAlgebra, LieAlgebraError
from aalg.almost_abelian import (build_algebra, is_balanced_data, is_kahler_data,
                                 is_lcb_data, is_lck_data, is_skt_data, is_type_11,
                                 adapted_J_matrix, rho_b_closed, skt_to_lcb)
from aalg.catalog import (ENTRIES, LCB_LIST, LCK_LIST, LCHK_LIST, instantiate,
                          verify_all, witness_structures, _restrict_last)
from aalg.lchk import (construct_lchk, hyperkahler_flatness, lchk_admissible,
                       verify_triple)
from aalg.lattice import integrality_probe, matrix_exp

from conftest import data_stream, random_data


def report(num, ok, label):
    print(f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_lcb_equivalence():
    """is_lcb_data <=> d(lee form) = 0 on 500 exact draws, dims 4/6/8."""
    t0 = time.monotonic()
    disagreements = 0
    true_count = 0
    for d in data_stream(1001, 500, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        direct = exterior_derivative(H.lee_form(), L).is_zero()
        data_verdict = is_lcb_data(d)
        if direct != data_verdict:
            disagreements += 1
        true_count += data_verdict
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 30.0 and 0 < true_count < 500
    report(1, ok, f"LCB criterion equivalence on 500 draws "
                  f"({disagreements} disagreements, {elapsed:.1f} s)")


def test_criterion_2_bismut_ricci_cross_validation():
    """rho_b_closed equals the curvature-trace oracle exactly on 100 draws;
    is_lcb_data <=> type-(1,1) on the same draws."""
    mismatches = 0
    type_mismatches = 0
    for d in data_stream(1002, 100, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        closed = rho_b_closed(d)
        if closed != H.bismut_ricci_oracle():
            mismatches += 1
        if is_lcb_data(d) != is_type_11(closed, adapted_J_matrix(d)):
            type_mismatches += 1
    ok = mismatches == 0 and type_mismatches == 0
    report(2, ok, f"Bismut-Ricci closed form vs oracle on 100 draws "
                  f"({mismatches} form, {type_mismatches} type mismatches)")


def test_criterion_3_predicate_concordance():
    """All five data predicates agree with direct-form predicates, 500 draws."""
    checks = (
        ("kahler", is_kahler_data, "is_kahler_direct"),
        ("lck", is_lck_data, "is_lck_direct"),
        ("balanced", is_balanced_data, "is_balanced_direct"),
        ("skt", is_skt_data, "is_skt_direct"),
        ("lcb", is_lcb_data, "is_lcb_direct"),
    )
    disagreements = 0
    hits = {name: 0 for name, _, _ in checks}
    for d in data_stream(1003, 500, dims=(2, 3, 4)):
        L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        H = HermitianStructure(L, J, g)
        for name, data_fn, direct_name in checks:
            dv = data_fn(d)
            if dv != getattr(H, direct_name)():
                disagreements += 1
            hits[name] += dv
    covered = all(c > 0 for c in hits.values())
    ok = disagreements == 0 and covered
    report(3, ok, f"predicate concordance on 500 draws "
                  f"({disagreements} disagreements, positives {hits})")


def test_criterion_4_catalog_reproduction():
    """verify_all over g1-g6 and l1-l17 + nilpotent entries, >= 3 samples."""
    t0 = time.monotonic()
    rep = verify_all(list(LCK_LIST) + list(LCB_LIST))
    elapsed = time.monotonic() - t0
    failures = [f for r in rep["results"] for f in r["failures"]]
    sample_ok = all(
        len(r["samples"]) >= min(3, len(ENTRIES[r["entry"]].samples))
        for r in rep["results"])
    ok = rep["ok"] and sample_ok and elapsed < 120.0
    report(4, ok, f"catalog reproduction, {len(rep['results'])} entries "
                  f"({len(failures)} failures, {elapsed:.1f} s)")
    if failures:
        for f in failures:
            print("   ", f)


def test_criterion_5_section4_examples():
    """b2, aff2 + 2R and s_2n carry the claimed compatibility witnesses."""
    ok = True
    notes = []
    # b2: balanced witness and non-balanced LCB witness with theta' = f5 + f6
    ws = witness_structures(ENTRIES["b2"], instantiate(ENTRIES["b2"], {}))
    (_, Hb, db, _), (_, Hp, dp, _) = ws
    if not (Hb.is_balanced_direct() and is_balanced_data(db)):
        ok = False; notes.append("b2 balanced witness failed")
    theta_p = Hp.lee_form()
    if theta_p != KForm(1, 6, {(4,): F(1), (5,): F(1)}):
        ok = False; notes.append(f"b2 theta' = {theta_p}")
    if Hp.is_balanced_direct() or not Hp.is_lcb_direct():
        ok = False; notes.append("b2 LCB witness flags wrong")
    # aff2 + 2R: Kahler witness and non-Kahler LCK witness on the same J
    aff = ENTRIES["aff2+2R"]
    (_, Hk, dk, _), (_, Hl, dl, _) = witness_structures(aff, instantiate(aff, {}))
    if not Hk.is_kahler_direct():
        ok = False; notes.append("aff2 Kahler witness failed")
    theta = KForm(1, 4, {(1,): F(1), (3,): F(1)})
    if Hl.domega() != wedge(theta, Hl.omega) or Hl.domega().is_zero():
        ok = False; notes.append("aff2 d omega' != (f2+f4) ^ omega'")
    if not Hl.is_lck_direct() or Hl.is_kahler_direct():
        ok = False; notes.append("aff2 LCK witness flags wrong")
    # s_2n simultaneously SKT and LCB for n = 2, 3, 4
    for name in ("s4", "s6", "s8"):
        entry = ENTRIES[name]
        for params in entry.samples:
            for _, H, d, _ in witness_structures(entry, instantiate(entry, params)):
                if not (H.is_skt_direct() and H.is_lcb_direct()
                        and is_skt_data(d) and is_lcb_data(d)):
                    ok = False; notes.append(f"{name}{params} not SKT+LCB")
    report(5, ok, "compatibility example witnesses (b2, aff2+2R, s4/s6/s8)"
                  + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_6_skt_to_lcb():
    """200 random SKT draws: output is LCB; a != 0 forces v' = 0 exactly."""
    rng = random.Random(1006)
    produced = 0
    nonzero_a = 0
    failures = 0
    while produced < 200:
        d = random_data(rng, rng.choice([2, 3, 4]), "skt")
        if not is_skt_data(d):
            continue
        produced += 1
        out = skt_to_lcb(d)
        if not is_lcb_data(out):
            failures += 1
        if d.a != 0:
            nonzero_a += 1
            if any(x != 0 for x in out.v):
                failures += 1
    ok = failures == 0 and nonzero_a >= 50
    report(6, ok, f"SKT-to-LCB construction on 200 draws "
                  f"({failures} failures, {nonzero_a} with a != 0)")


def test_criterion_7_lchk_suite():
    """Admissibility matches the m = 1, 2, 3 lists; witnesses verify; the
    hyperkahler ones are exactly flat; perturbed fixtures are rejected."""
    ok = True
    notes = []
    for name in LCHK_LIST:
        entry = ENTRIES[name]
        hk_expected = entry.witnesses[0].hyperkahler
        for params in entry.samples:
            L = instantiate(entry, params)
            D = _restrict_last(L)
            verdict, witness = construct_lchk(D)
            if not verdict.admissible or verdict.hyperkahler != hk_expected:
                ok = False; notes.append(f"{name}{params} verdict {verdict}")
                continue
            Lc, triple, P, dc = witness
            rep = verify_triple(Lc, triple)
            if not rep["ok"]:
                ok = False
                notes.append(f"{name}{params}: " + str([k for k, v in rep.items() if not v]))
            m = Lc.dim // 4
            want_theta = KForm(1, Lc.dim, {(Lc.dim - 1,): -(4 * m - 2) * verdict.a})
            if triple.theta != want_theta:
                ok = False; notes.append(f"{name}{params}: theta mismatch")
            if hk_expected and not hyperkahler_flatness(triple, Lc):
                ok = False; notes.append(f"{name}{params}: not flat")
    # perturbed counterexamples
    def rot(a, b):
        return [[F(a), F(b)], [-F(b), F(a)]]

    def blockdiag(blocks):
        n = sum(len(b) for b in blocks)
        out = linalg.zeros(n, n)
        pos = 0
        for blk in blocks:
            for i in range(len(blk)):
                for j in range(len(blk)):
                    out[pos + i][pos + j] = F(blk[i][j])
            pos += len(blk)
        return out

    odd_pairs = blockdiag([[[1]]] * 5 + [rot(1, 1)])
    v = lchk_admissible(odd_pairs)
    if v.admissible or v.condition_even_pairs:
        ok = False; notes.append("odd-multiplicity fixture not rejected by (iii)")
    low_real = blockdiag([[[1]], rot(1, 2), rot(1, 2), rot(1, 3)])
    v = lchk_admissible(low_real)
    if v.admissible or v.condition_real_multiplicity:
        ok = False; notes.append("low real multiplicity fixture not rejected by (ii)")
    report(7, ok, "LCHK admissibility, witnesses, flatness, counterexamples"
                  + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_8_lattice_probe():
    """l1^{q = -1/2 - p} never integral on t = 2 log k, k = 2..50, with the
    residual identity to 1e-9; the log fixture is FOUND at t0 = 1."""
    ok = True
    notes = []
    for p in (1 / 3, 1 / 2, 2.0):
        q = -0.5 - p
        B = [[1, 0, 0, 0, 0], [0, p, 0, 0, 0], [0, 0, p, 0, 0],
             [0, 0, 0, q, 0], [0, 0, 0, 0, q]]
        rep = integrality_probe(B, rule_k_max=50)
        if rep.overall != "NONE_IN_RANGE":
            ok = False; notes.append(f"p={p}: {rep.overall}")
        worst = max(pt.residual_vs_inv_k for pt in rep.points)
        if worst > 1e-9:
            ok = False; notes.append(f"p={p}: residual gap {worst:.2e}")
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    w, vv = np.linalg.eigh(a)
    b = (vv @ np.diag(np.log(w)) @ vv.T).tolist()
    rep = integrality_probe(b, t_values=[0.5, 1.0, 1.5])
    pt = next(pt for pt in rep.points if pt.t == 1.0)
    if rep.overall != "FOUND" or rep.found != 1.0:
        ok = False; notes.append("log fixture not FOUND at t0 = 1")
    if [round(c) for c in pt.char_coeffs] != [1, -3, 1]:
        ok = False; notes.append(f"char poly {pt.char_coeffs}")
    report(8, ok, "lattice probe obstruction and recovery"
                  + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_9_kernel_soundness():
    """d^2 = 0 <=> Jacobi; exponential identities to 1e-8; manifest bytes."""
    ok = True
    notes = []
    # d^2 = 0 <=> Jacobi on random valid/invalid tensors
    rng = random.Random(1009)
    valid = invalid = 0
    for _ in range(60):
        dim = rng.choice([3, 4])
        brackets = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(dim), 2))
            vec = [F(0)] * dim
            vec[rng.randrange(dim)] = F(rng.choice([-1, 1, 2]))
            brackets[(i, j)] = vec
        try:
            L = LieAlgebra(dim, brackets)
            jac = True
            valid += 1
        except LieAlgebraError:
            L = LieAlgebra(dim, brackets, _validated=True)
            jac = False
            invalid += 1
        dd = all(exterior_derivative(exterior_derivative(
            KForm.basis(dim, k), L), L).is_zero() for k in range(dim))
        if dd != jac:
            ok = False; notes.append("d^2 = 0 vs Jacobi mismatch")
    if valid < 5 or invalid < 5:
        ok = False; notes.append("fixture mix too thin")
    # exponential identities
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = np.array(matrix_exp(b, s)) @ np.array(matrix_exp(b, t))
        rhs = np.array(matrix_exp(b, s + t))
        if float(np.max(np.abs(lhs - rhs))) > 1e-8:
            ok = False; notes.append("exp group law violated")
        detv = float(np.linalg.det(np.array(matrix_exp(b, t))))
        if abs(detv - math.exp(t * sum(b[i][i] for i in range(n)))) > 1e-8:
            ok = False; notes.append("exp determinant identity violated")
    # parser round-trips the shipped manifest byte-identically
    from aalg.catalog import shipped_manifest_text
    from aalg.documents import parse_manifest, render_manifest
    text = shipped_manifest_text()
    if render_manifest(parse_manifest(text)) != text:
        ok = False; notes.append("manifest round trip not byte-identical")
    report(9, ok, "kernel soundness (d^2/Jacobi, exp identities, manifest)"
                  + ("; " + "; ".join(notes) if notes else ""))
