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


def test_tracer_wraps_every_listed_function(monkeypatch):
    """Installing the span tracer resolves every function the traced bench
    wraps (a renamed or deleted one raises here), and uninstalling it puts
    the originals back."""
    monkeypatch.syspath_prepend(os.path.normpath(BENCH))
    from spans import LAYERS, Tracer
    from aalg import almost_abelian, catalog

    originals = (almost_abelian.skt_to_lcb, catalog.witness_structures)
    tracer = Tracer()
    tracer.install()
    try:
        assert almost_abelian.skt_to_lcb is not originals[0]
        assert len(tracer.names) == sum(len(funcs) for funcs in LAYERS.values())
    finally:
        tracer.uninstall()
    assert (almost_abelian.skt_to_lcb, catalog.witness_structures) == originals


@pytest.mark.parametrize("workload", ["draws", "sweep", "float"])
def test_recorded_digests_reproduce(workload, tmp_path, monkeypatch):
    """Every item of every seed recorded in ``digests.json`` still gives its
    recorded output digest: the benchmark's "outputs unchanged" gate."""
    monkeypatch.syspath_prepend(os.path.normpath(BENCH))
    import workloads
    from run import digest, load_digests

    recorded = load_digests()["digests"][workload]
    assert recorded
    for seed, want in sorted(recorded.items()):
        items = workloads.WORKLOADS[workload](int(seed), str(tmp_path))
        assert [digest(item.run()[0]) for item in items] == want["items"], seed
