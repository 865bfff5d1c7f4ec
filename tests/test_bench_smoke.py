"""The benchmark's workloads build and their first items run cleanly.

No timing is asserted: this only keeps the library calls the benchmark
makes (catalog documents, CLI commands, route checks) working.
"""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


@pytest.mark.parametrize("workload", ["draws", "sweep", "float"])
def test_first_item_reports_no_problems(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.normpath(BENCH))
    import workloads

    items = workloads.WORKLOADS[workload](1, str(tmp_path))
    record, problems = items[0].run()
    assert record
    assert problems == []
