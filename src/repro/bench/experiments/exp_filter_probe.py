"""Filter-probe engine bench: batched vs scalar probe throughput.

An engineering bench beyond the paper's tables: every stage of every
attack — cutoff learning, FindFPK classification, prefix extension — is
at bottom a stream of filter probes, so probe throughput gates attack
wall-clock the way ``get`` latency did before the read-path overhaul and
ingest did before the build engine.  The bench measures per-filter probe
throughput, scalar loop vs :meth:`Filter.probe_many` (the engine's pure
batch entry point), over a probe mix that is half shared-prefix guesses
and half uniform noise — the shape FindFPK actually issues — asserting
the verdict vectors are identical.

The LSM layer always runs the batched engine; its bit-identity with the
scalar probes is pinned by the golden digests of
``tests/integration/test_probe_engine_equivalence.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.filters.bloom import BloomFilterBuilder
from repro.filters.prefix_bloom import PrefixBloomFilterBuilder
from repro.filters.rosetta import RosettaFilterBuilder
from repro.filters.surf.surf import SuRFBuilder

WIDTH = 5

PAPER_CLAIM = ("(engineering) every attack stage is a stream of filter "
               "probes; probe throughput gates attack wall-clock")


def _builders() -> Dict[str, object]:
    return {
        "bloom": BloomFilterBuilder(10.0),
        "pbf": PrefixBloomFilterBuilder(prefix_len=WIDTH - 2),
        "surf-trie": SuRFBuilder(variant="real", suffix_bits=8,
                                 backend="trie"),
        "surf-louds": SuRFBuilder(variant="real", suffix_bits=8,
                                  backend="louds"),
        "rosetta": RosettaFilterBuilder(key_bytes=WIDTH,
                                        bits_per_key_per_level=8.0),
    }


def _probe_mix(keys: List[bytes], num_probes: int, seed: int) -> List[bytes]:
    """FindFPK-shaped probes: half shared-prefix guesses, half noise."""
    rng = make_rng(seed, "probe-mix")
    half = num_probes // 2
    base = keys[::max(1, len(keys) // half)]
    prefixed = [base[i % len(base)][:3] + rng.random_bytes(WIDTH - 3)
                for i in range(half)]
    noise = [rng.random_bytes(WIDTH) for _ in range(num_probes - half)]
    probes = prefixed + noise
    rng.shuffle(probes)
    return probes


def _bench_probes(rows: List[Dict[str, object]], num_keys: int,
                  num_probes: int, seed: int, reps: int) -> Dict[str, float]:
    rng = make_rng(seed, "probe-keys")
    keys = sorted({rng.random_bytes(WIDTH) for _ in range(num_keys)})
    probes = _probe_mix(keys, num_probes, seed + 1)
    speedups: Dict[str, float] = {}
    for name, builder in _builders().items():
        filt = builder.build(keys)
        scalar_probe = filt._may_contain  # the pure per-key hook
        best_scalar = best_batch = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            scalar = [scalar_probe(key) for key in probes]
            best_scalar = min(best_scalar, time.perf_counter() - started)
            started = time.perf_counter()
            batch = filt.probe_many(probes)
            best_batch = min(best_batch, time.perf_counter() - started)
            assert scalar == batch, f"{name}: batch verdicts diverged"
        speedups[name] = best_scalar / best_batch
        rows.append({
            "phase": "probe",
            "filter": name,
            "scalar_probes_per_s": len(probes) / best_scalar,
            "batch_probes_per_s": len(probes) / best_batch,
            "speedup": speedups[name],
        })
    return speedups


def run(num_keys: int = 20_000, num_probes: int = 40_000, seed: int = 13,
        reps: int = 3) -> ExperimentReport:
    """Per-filter probe-throughput sweep, scalar vs batched."""
    rows: List[Dict[str, object]] = []
    speedups = _bench_probes(rows, num_keys, num_probes, seed, reps)
    summary: Dict[str, object] = {
        f"probe_speedup_{name.replace('-', '_')}": value
        for name, value in speedups.items()
    }
    return ExperimentReport(
        experiment="BENCH_filter_probe",
        title="Filter-probe engine: batched probes vs scalar loop",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"{num_probes:,} probes against {num_keys:,}-key "
                    f"filters (best of {reps})"),
        rows=rows,
        summary=summary,
    )
