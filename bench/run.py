"""aalg benchmark: seeded, single-process, closed-loop workloads.

Run one workload from the root of a source checkout:

    python3 bench/run.py --workload draws|sweep|float --seed N --seconds S --trace 0|1

``--workload all`` runs the three one after another, each in its own process.

The library is imported from ``src/`` of the same checkout; nothing needs
to be installed.  A workload is a fixed list of items (one pass) made from
the seed.  One caller runs the items one after another, each starting when
the previous one returned, and repeats whole passes while the next one is
expected to end within ``--seconds`` (at least one pass is always run).

Item and pass times are reported at reference speed: while the items run,
a sampler process reads the machine-speed gauge (``gauge.py``) on the other
core, and each item's time is scaled by the readings taken during it.  On
a shared host the cores' speed drifts by tens of per cent within a second
and between runs, and wall and CPU time drift alike; the gauge takes that
drift out of the figures.  The measured pass times and the gauge's median
reading are kept in the run's record.  ``setup_s`` is not scaled; its
samples are spread over the run (see ``SetupTimer``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then one traced pass of the same items, and reports the
per-layer metrics (see ``spans.py``); span self times are as measured, and
``trace.overhead_s``, the traced pass minus the untraced one, is at
reference speed.  End-to-end numbers never come from a traced pass.

Every item is checked: two routes that must agree are compared, every pass
must reproduce the first pass's output digest, and for the seeds recorded
in ``digests.json`` the digest must match the recorded one.  The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any item failed.  Every run also
appends its full record (environment, digest, tail percentile,
per-function table) to ``bench/results/runs.jsonl``.

    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

prints, per workload and end-to-end metric, both sides' median and
quartiles, the share of pairs the change won and a verdict.

    python3 bench/run.py --workload draws --inject-fault

negates the LCB data-route verdict (``is_lcb_data``) inside the benchmark
process; the run must then report failures and exit 1.

    python3 bench/run.py --record-digests

rewrites ``digests.json`` for its default and hold-out seeds; only a change
to the benchmark's own items may do that.

The benchmark pins OPENBLAS/OMP/MKL threads to 1 for its own processes and
does no machine tuning: no frequency pinning, no cache dropping, no cgroup
changes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import gauge

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

SETUP_RUNS = 15
NOTES = ("single process, closed loop, one caller; OPENBLAS/OMP/MKL threads = 1; "
         "no machine tuning (no frequency pinning, no cache dropping, no cgroup changes)")

WORKLOADS = ("draws", "sweep", "float")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"), ("top_dim_s", "s"),
              ("peak_rss_mb", "MB"))


def _import_library():
    """Import aalg from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "aalg", "__init__.py")):
        sys.exit(f"error: no aalg sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import aalg

    if os.path.dirname(os.path.dirname(os.path.abspath(aalg.__file__))) != SRC:
        sys.exit(f"error: aalg imported from {aalg.__file__}, not {SRC}")


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment(seed):
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "aalg"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".pyc"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_hash.update(name.encode() + b"\0" + fh.read())
    return {"seed": seed, "commit": commit, "src_sha256": src_hash.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "notes": NOTES}


class SetupTimer:
    """Wall time of a fresh interpreter importing aalg.cli and aalg.catalog.

    The SETUP_RUNS samples are spread over the run, one between two items
    at most every ``interval`` seconds, and topped up at the end: start-up
    time drifts over tens of seconds, and medians of 15 samples spread over
    a minute varied half as much as medians of 15 taken back to back.  Not
    scaled by the gauge: start-up is process creation, loading and
    unmarshalling more than Python arithmetic, and scaled figures spread
    more than measured ones (cv 0.22 against 0.13)."""

    CODE = "import sys; sys.path.insert(0, sys.argv[1]); import aalg.cli, aalg.catalog"

    def __init__(self, interval):
        self.interval = interval
        self.times = []
        self.last = None

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE, SRC], check=True)
        self.times.append(time.perf_counter() - t0)
        self.last = time.monotonic()

    def between_items(self):
        if len(self.times) < SETUP_RUNS and (
                self.last is None or time.monotonic() - self.last >= self.interval):
            self.sample()

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def inject_fault():
    """Negate every is_lcb_data verdict in this process (for the self-check)."""
    from aalg import almost_abelian
    from spans import aalg_modules, rebind

    original = almost_abelian.is_lcb_data

    def corrupted(*args, **kwargs):
        return not original(*args, **kwargs)

    rebind(original, corrupted, aalg_modules())


class Runner:
    """Runs passes over the items and checks every output."""

    def __init__(self, items, recorded):
        self.items = items
        self.recorded = recorded          # item digests for this seed, or None
        self.reference = None             # item digests of the first pass
        self.steps = []                   # (pass, dim, start, end) per item run
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None, between_items=None):
        digests = []
        for idx, item in enumerate(self.items):
            if tracer is not None:
                tracer.current_item = self.passes * len(self.items) + idx
            t0 = time.monotonic()
            try:
                record, problems = item.run()
            except Exception as exc:  # an item that raises is a failed item
                record, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            self.steps.append((self.passes, item.dim, t0, time.monotonic()))
            digests.append(digest(record))
            self.attempted += 1
            if self.reference is not None and digests[idx] != self.reference[idx]:
                problems.append("output differs from the first pass")
            elif self.recorded is not None and digests[idx] != self.recorded[idx]:
                problems.append("output differs from the recorded digest")
            if problems:
                self.failures.append(f"{item.label}: " + "; ".join(problems))
            if between_items is not None:
                between_items()
        self.passes += 1
        if self.reference is None:
            self.reference = digests

    def pass_walls(self, scale=None):
        """Seconds per pass, as measured or, given ``scale``, at reference speed."""
        walls = [0.0] * self.passes
        for p, _, t0, t1 in self.steps:
            walls[p] += (t1 - t0) * (scale(t0, t1) if scale else 1.0)
        return walls


def tail(latencies, m):
    """(percentile, latency) at 100 (M - 10) / M, M = items per pass: the
    highest percentile that has ten samples beyond it even in one pass.
    Fixed by the pass, so runs with more passes report the same quantile."""
    pct = 100.0 * max(m - 10, 0) / m
    lat = sorted(latencies)
    rank = max(1, -(-len(lat) * (m - 10) // m))     # nearest rank, 1-based
    return pct, lat[rank - 1]


def end_to_end(runner, setup_s, speed):
    """End-to-end metrics; item and pass times at reference speed (gauge.py)."""
    timed = [(d, (t1 - t0) * speed.scale(t0, t1)) for _, d, t0, t1 in runner.steps]
    lat = [t for _, t in timed]
    top = max(d for d, _ in timed)
    pct, tail_s = tail(lat, len(runner.items))
    walls = runner.pass_walls(speed.scale)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "items_per_s": len(runner.items) / statistics.median(walls),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * tail_s,
        "top_dim_s": statistics.mean(t for d, t in timed if d == top),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": pct, "samples": len(lat), "top_dim": top,
            "passes": runner.passes, "pass_walls": walls,
            "raw_pass_walls": runner.pass_walls(),
            "gauge_median_s": statistics.median(speed.readings),
            "gauge_readings": len(speed.readings)}
    return {name: (values[name], unit) for name, unit in END_TO_END}, info


def per_layer(tracer, overhead_s):
    from spans import metric_names

    per, layers = tracer.summary()
    values = {}
    for label, rec in per.items():
        values[f"{label}.calls"] = rec["calls"]
        values[f"{label}.self_s"] = rec["self_s"]
    for layer, tot in layers.items():
        values[f"{layer}.self_s"] = tot["self_s"]
        values[f"{layer}.fraction_ops"] = tot["fraction_ops"]
    values["hermitian.nijenhuis.per_structure"] = (
        per["hermitian.nijenhuis"]["calls"] / tracer.structures if tracer.structures else 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in metric_names()}, per


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args):
    import workloads
    from spans import Tracer

    workdir = os.path.join(BENCH_DIR, ".work")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    env = environment(args.seed)
    extra = {}
    with gauge.Sampler() as speed:
        items = workloads.WORKLOADS[args.workload](args.seed, workdir)
        recorded = load_digests()["digests"].get(args.workload, {}).get(str(args.seed))
        runner = Runner(items, None if recorded is None else recorded["items"])
        if args.inject_fault:
            inject_fault()
        items[0].run()                    # warm-up: lazy imports, first allocations
        if args.trace:
            runner.run_pass()
            tracer = Tracer()
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            setup = SetupTimer(args.seconds / SETUP_RUNS)
            t_start = time.monotonic()
            while True:
                runner.run_pass(between_items=setup.between_items)
                elapsed = time.monotonic() - t_start
                if elapsed + statistics.median(runner.pass_walls()) > args.seconds:
                    break
            setup_s = setup.median()
    if args.trace:
        walls = runner.pass_walls(speed.scale)
        metrics, per = per_layer(tracer, walls[1] - walls[0])
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"))
        extra["per_function"] = per
    else:
        metrics, info = end_to_end(runner, setup_s, speed)
        extra.update(info, setup_times=setup.times)
    failed = len(runner.failures)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": runner.attempted,
        "failed": failed, "fail_ratio": failed / runner.attempted,
        "digest": digest(runner.reference),
        "metrics": {k: v for k, (v, _) in metrics.items()}, **extra,
    }
    with open(os.path.join(RESULTS, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True, default=str) + "\n")

    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}  seed {args.seed}  digest {result['digest']}"
          f"  recorded {'-' if recorded is None else recorded['pass']}")
    print(f"commit {env['commit']}  src {env['src_sha256']}  python {env['python']}"
          f"  numpy {env['numpy']}  nproc {env['nproc']}")
    print(f"notes: {NOTES}")
    if not args.trace:
        print(f"passes {extra['passes']}  items {extra['samples']}"
              f"  tail = p{extra['tail_percentile']:.1f} of {extra['samples']} samples"
              f"  top_dim {extra['top_dim']}")
    print(f"fail_ratio {result['fail_ratio']:.6g} ratio  ({failed} of {runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def record_digests():
    """Write digests.json for the default and hold-out seeds of every workload."""
    import workloads

    data = load_digests()
    workdir = os.path.join(BENCH_DIR, ".work")
    os.makedirs(workdir, exist_ok=True)
    for name, make in workloads.WORKLOADS.items():
        for seed in (data["default_seed"], data["holdout_seed"]):
            runner = Runner(make(seed, workdir), None)
            runner.run_pass()
            if runner.failures:
                sys.exit(f"{name} seed {seed} failed: {runner.failures}")
            data["digests"].setdefault(name, {})[str(seed)] = {
                "pass": digest(runner.reference), "items": runner.reference}
            print(name, seed, digest(runner.reference), flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def compare(parent_path, change_path):
    """Median/quartiles per side, share of pairs won and a verdict (bounds
    from BENCHMARK.json).  Pairs are the i-th untraced runs of a workload on
    each side, so run both commits on the same seed list in the same order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec["metrics"])
        return runs

    def quartiles(xs):
        return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':8} {'metric':13} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>6}  verdict")
    for wl in sorted(set(parent) & set(change)):
        for name, m in spec.items():
            a = [r[name] for r in parent[wl]]
            b = [r[name] for r in change[wl]]
            sign = 1 if m["better"] == "lower" else -1
            pairs = list(zip(a, b))
            won = sum(sign * (x - y) > 0 for x, y in pairs) / len(pairs)
            qa, qb = quartiles(a), quartiles(b)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            gain = sign * (qa[1] - qb[1])     # > 0: the change is better
            all_better = all(sign * (x - y) > 0 for x in a for y in b)
            if won >= 0.9 and gain > qa[2] - qa[0]:
                verdict = "improved"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif -gain > m["bound"] * qa[1]:
                verdict = "worse beyond bound"
            else:
                verdict = "within bound"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{wl:8} {name:13} {fa:>30} {fb:>30} {won:6.0%}  {verdict}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the recorded default seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="negate is_lcb_data in-process; the run must fail")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _import_library()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        common = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        common += ["--seed", str(args.seed)] if args.seed is not None else []
        common += ["--inject-fault"] if args.inject_fault else []
        return max(subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", w] + common).returncode
                   for w in WORKLOADS)
    if args.seed is None:
        args.seed = load_digests()["default_seed"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
