"""Bench: filter-probe engine (batched vs scalar probe throughput).

Writes ``results/BENCH_filter_probe.{txt,json}``.  ``REPRO_PROBE_SMOKE=1``
shrinks the workload for the CI smoke step: the batch verdicts are still
asserted equal to the scalar ones, the throughput bars are not (tiny
inputs are all fixed overhead), and the committed results file is left
untouched.  The LSM-level bit-identity of the engine (extracted keys and
simulated time of whole attacks) is pinned by the golden digests of
``tests/integration/test_probe_engine_equivalence.py``.
"""

import os

from conftest import emit

from repro.bench.experiments import exp_filter_probe

SMOKE = bool(os.environ.get("REPRO_PROBE_SMOKE"))


def test_filter_probe_report(benchmark):
    if SMOKE:
        report = benchmark.pedantic(
            lambda: exp_filter_probe.run(num_keys=2_000, num_probes=2_000,
                                         reps=1),
            rounds=1, iterations=1)
    else:
        report = benchmark.pedantic(exp_filter_probe.run,
                                    rounds=1, iterations=1)
        emit(report)
    summary = report.summary
    # Every filter family ran, and (inside the run) its batch verdicts
    # equalled the scalar loop's.
    assert set(summary) == {"probe_speedup_bloom", "probe_speedup_pbf",
                            "probe_speedup_surf_trie",
                            "probe_speedup_surf_louds",
                            "probe_speedup_rosetta"}
    if not SMOKE:
        # The acceptance bars of the probe-engine overhaul, measured
        # same-run: >= 2x batched throughput on the Bloom and LOUDS-SuRF
        # paths.
        assert summary["probe_speedup_bloom"] >= 2.0
        assert summary["probe_speedup_surf_louds"] >= 2.0
        assert summary["probe_speedup_surf_trie"] > 1.0
