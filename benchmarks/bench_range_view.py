"""Bench: sorted-view range engine (incremental maintenance under churn).

Writes ``results/BENCH_range_view.{txt,json}``.  ``REPRO_RANGE_SMOKE=1``
shrinks the workload for the CI smoke step: the zero-leaked-pins check
still runs, the rebuild-fraction bar does not (a tiny store has too few
segments to show reuse), and the committed results file is left
untouched.  The view's bit-identity with the classic merge (results,
per-filter stats, simulated clock) is pinned by the golden digests of
``tests/lsm/test_sorted_view.py``.
"""

import os

from conftest import emit

from repro.bench.experiments import exp_range_view

SMOKE = bool(os.environ.get("REPRO_RANGE_SMOKE"))


def test_range_view_report(benchmark):
    if SMOKE:
        report = benchmark.pedantic(
            lambda: exp_range_view.run(amortize_keys=4_000,
                                       amortize_band=150,
                                       amortize_rounds=4),
            rounds=1, iterations=1)
    else:
        report = benchmark.pedantic(exp_range_view.run,
                                    rounds=1, iterations=1)
        emit(report)
    summary = report.summary
    assert summary["amortize_leaked_pins"] == 0
    if not SMOKE:
        # Incremental maintenance must beat rebuild-per-install by a wide
        # margin.
        assert summary["amortize_rebuild_fraction"] < 0.5
