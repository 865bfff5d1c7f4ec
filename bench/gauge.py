"""Machine-speed gauge: converts measured times to reference-speed times.

On a shared host the speed of the cores drifts by tens of per cent within a
second and by more over minutes; the process's CPU time drifts with its
wall time, so neither clock removes it.  The drift is shared by both cores
of the guest: a gauge loop timed on the other core follows the benchmark's
own item times (correlation 0.9 over 0.6-2 s items on a 2-vCPU VM, where
readings taken only between items reached 0.6).

So while a workload runs, one sampler process (``python3 gauge.py``) times a
small fixed loop of pure-Python rational arithmetic (ints and ``math.gcd``,
the operations ``Fraction`` is made of, plus the dict-of-tuples bookkeeping
the library's forms use) every ``INTERVAL_S`` seconds, about a twentieth of
one core, until its standard input closes.  A step timed from ``t0`` to
``t1`` is reported at reference speed: its measured time times ``REF_S``
over the mean reading taken within the step (the nearest reading when none
was).  The loop uses nothing from ``aalg``, so no change to the program can
move a reading.

``REF_S`` is fixed: a time at reference speed is the time the step takes on
a machine on which one gauge loop takes ``REF_S`` seconds; a 2-vCPU shared
VM with Python 3.11 read 0.8 to 1.8 ms per loop.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

REF_S = 1.0e-3      # reference reading: one loop in one millisecond
INTERVAL_S = 0.02   # pause between two readings
MAX_LIFE_S = 900    # a sampler whose caller never stops it ends by itself


def _loop():
    """Sum of products of small rationals, kept small and reduced each step."""
    acc = {}
    p, q = 0, 1
    for i in range(1, 1500):
        a, b = (i % 7) - 3, (i % 5) + 1
        n, d = p * b + a * q, q * b
        g = math.gcd(n, d)
        p, q = n // g, d // g
        if q > 1 << 20:
            p, q = p % 97, 1
        key = (i % 11, i % 13)
        acc[key] = acc.get(key, 0) + p
    return acc


def sample():
    """Sampler process: read the gauge until stdin closes, then print the
    readings as JSON ``[[midpoint, seconds], ...]`` (CLOCK_MONOTONIC)."""
    readings = []
    stop = time.monotonic() + MAX_LIFE_S
    while time.monotonic() < stop:
        t0 = time.monotonic()
        _loop()
        t1 = time.monotonic()
        readings.append((0.5 * (t0 + t1), t1 - t0))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    json.dump(readings, sys.stdout)


class Sampler:
    """Runs the sampler process for the duration of a ``with`` block; after
    it, ``scale(t0, t1)`` gives the reference-speed factor of a step."""

    def __init__(self):
        self.proc = None
        self.times = []
        self.readings = []

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        time.sleep(0.2)         # first readings before the first timed step
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0 or not out:
            raise RuntimeError(f"gauge sampler failed (exit code {self.proc.returncode})")
        pairs = json.loads(out)
        self.times = [t for t, _ in pairs]
        self.readings = [r for _, r in pairs]
        return False

    def scale(self, t0, t1):
        """Factor turning a time measured from t0 to t1 (time.monotonic) into
        one at reference speed."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return REF_S / statistics.fmean(self.readings[lo:hi])
        mid = 0.5 * (t0 + t1)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - mid))
        return REF_S / self.readings[near]


if __name__ == "__main__":
    sample()
