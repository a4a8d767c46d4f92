"""Sorted-view range-engine bench: incremental view maintenance cost.

An engineering bench beyond the paper's tables, for the REMIX-style
range-read engine (DESIGN.md section 13).  One churning store (clustered
writes, periodic range reads) measures what incremental view maintenance
costs at install time: segments actually rebuilt vs the
rebuild-everything-per-install worst case, and the churn wall-clock that
carries the view.

Range reads always run through the sorted view when the version has one;
its bit-identity with the classic k-way merge is pinned by the golden
digests of ``tests/lsm/test_sorted_view.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.sorted_view import ensure_view

WIDTH = 5

PAPER_CLAIM = ("(engineering) the range-descent attack and any range-read "
               "workload are gated by bounded-scan latency; a per-version "
               "sorted view removes the per-query merge rebuild without "
               "moving the timing side channel")


def _churn(db: LSMTree, keys_per_band: int, rounds: int,
           seed: int) -> float:
    """Clustered write churn with interleaved narrow range reads.

    Each round's writes share one prefix band, so a flush's key span is
    narrow and the incremental evolve can keep far-away segments; the
    interleaved reads keep the view instantiated.
    """
    rng = make_rng(seed, "churn")
    started = time.perf_counter()
    for round_index in range(rounds):
        band = bytes([round_index % 8])
        for _ in range(keys_per_band):
            db.put(band + rng.random_bytes(WIDTH - 1), b"c" * 12)
        low = band + b"\x40"
        db.range_query(low, low + b"\x20" * (WIDTH - 1))
    return time.perf_counter() - started


def _bench_amortization(rows: List[Dict[str, object]], num_keys: int,
                        keys_per_band: int, rounds: int,
                        seed: int) -> Dict[str, object]:
    db = LSMTree(LSMOptions(
        memtable_size_bytes=32 * 1024,
        sstable_target_bytes=64 * 1024,
        filter_builder=None,
        enable_wal=False,
        seed=seed,
    ))
    rng = make_rng(seed, "amortize-keys")
    for _ in range(num_keys):
        db.put(rng.random_bytes(WIDTH), b"v" * 12)
    db.range_query(b"\x10", b"\x10" + b"\xff" * (WIDTH - 1),
                   limit=32)  # instantiate the first view
    wall = _churn(db, keys_per_band, rounds, seed + 1)
    view = ensure_view(db.version, db.options.build_threads)
    segments_now = len(view.seg_keys) if view is not None else 0
    installs = db.stats.flushes
    rebuilt = db.stats.view_rebuild_segments
    # The alternative the incremental evolve replaces: rebuilding every
    # segment at every install.
    full_rebuild_segments = max(1, installs * segments_now)
    db.close()
    rows.append({
        "phase": "amortize",
        "installs_flushes": installs,
        "segments_in_final_view": segments_now,
        "segments_rebuilt_total": rebuilt,
        "rebuild_fraction_vs_full": rebuilt / full_rebuild_segments,
        "churn_wall_s": wall,
    })
    return {
        "amortize_rebuild_fraction": rebuilt / full_rebuild_segments,
        "amortize_churn_wall_s": wall,
        "amortize_leaked_pins": db.leaked_pins,
    }


def run(amortize_keys: int = 24_000, amortize_band: int = 400,
        amortize_rounds: int = 8, seed: int = 23) -> ExperimentReport:
    """Churn amortization of the incremental sorted-view maintenance."""
    rows: List[Dict[str, object]] = []
    summary = _bench_amortization(rows, amortize_keys, amortize_band,
                                  amortize_rounds, seed + 11)
    return ExperimentReport(
        experiment="BENCH_range_view",
        title="Sorted-view range engine: incremental maintenance",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"{amortize_rounds} clustered churn rounds over "
                    f"{amortize_keys:,} keys"),
        rows=rows,
        summary=summary,
    )
