"""The benchmark's metrics: names, units, and what each should move.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions (the self-test checks that the two agree).  This module also
records, for every per-layer metric, the end-to-end metric and workloads
it is predicted to move, and whether it repeats exactly from run to run
for one seed.  A per-layer metric of a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "surf-attack":
        "The paper's headline SuRF-Real timing attack; ~90% of its queries "
        "are prefix-clustered extension gets served from the page cache. "
        "No range reads, writes or wire traffic.",
    "range-attack":
        "Range-descent timing attack: the only workload through the LSM "
        "range path, sorted view and may_contain_range, with background "
        "churn keeping the working set far above the cache.",
    "remote-mixed":
        "Zipf get_many/put_many over the asyncio wire server on a prefix "
        "Bloom store with WAL and background compaction: the only workload "
        "through server, write path and filter builds.",
}

ATTACKS = ("surf-attack", "range-attack")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str

    def spec(self) -> dict:
        return {"name": self.name, "unit": self.unit, "better": self.better,
                "bound": self.bound}


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workloads) this metric is predicted to move.
    moves: Tuple[str, Tuple[str, ...]]
    #: Workloads on which the value repeats exactly for one seed.
    exact_on: Tuple[str, ...] = ()
    note: Optional[str] = None

    def spec(self) -> dict:
        return {"name": self.name, "unit": self.unit, "better": self.better}


END_TO_END = (
    EndToEnd("ops_per_s", "1/s", "higher", 0.2,
             "store queries completed per wall second of the measured "
             "phases (set-up excluded): every counted attack query, or keys "
             "read plus keys written; scaled to the reference machine speed "
             "(see run.REFERENCE_NOMINAL_S)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "environment build, bulk load with filter build, and (for "
             "remote-mixed) server start; the median of several set-ups, "
             "scaled to the reference machine speed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident set size of the benchmark process"),
)

_SURF = ("ops_per_s", ("surf-attack",))
_RANGE = ("ops_per_s", ("range-attack",))
_ATTACK_OPS = ("ops_per_s", ATTACKS)
_GET = ("get_p50_ms", ("remote-mixed",))
_PUT = ("put_p50_ms", ("remote-mixed",))
_SERVE = ("ops_per_s", ("remote-mixed",))

PER_LAYER = (
    # core: attack driver and oracles
    Layer("core.learn.wall_s", "s", "lower", _ATTACK_OPS),
    Layer("core.find_fpk.wall_s", "s", "lower", _SURF),
    Layer("core.id_prefix.wall_s", "s", "lower", _SURF),
    Layer("core.extend.wall_s", "s", "lower", _SURF),
    Layer("core.descent.wall_s", "s", "lower", _RANGE),
    Layer("core.classify.wall_s", "s", "lower", _ATTACK_OPS),
    Layer("core.learn.queries", "count", "lower", _ATTACK_OPS, ATTACKS),
    Layer("core.find_fpk.queries", "count", "lower", _SURF, ATTACKS),
    Layer("core.id_prefix.queries", "count", "lower", _SURF, ATTACKS),
    Layer("core.extend.queries", "count", "lower", _SURF, ATTACKS),
    Layer("core.extend.useful_frac", "frac", "higher", _SURF, ATTACKS,
          "1 - wasted/extend queries (surf-attack only)"),
    Layer("core.descent.range_queries", "count", "lower", _RANGE, ATTACKS),
    Layer("core.descent.point_queries", "count", "lower", _RANGE, ATTACKS),
    # system: the ACL service facade
    Layer("system.get.self_s", "s", "lower", _SURF,
          note="predicted flat on range-attack"),
    Layer("system.get.calls", "count", "lower", _SURF, ATTACKS),
    Layer("system.get_many.self_s", "s", "lower", _ATTACK_OPS),
    Layer("system.range.self_s", "s", "lower", _RANGE),
    Layer("system.range.calls", "count", "lower", _RANGE, ATTACKS),
    Layer("system.put_many.self_s", "s", "lower", _PUT),
    # lsm: read path, range path, write path
    Layer("lsm.get.self_s", "s", "lower", ("ops_per_s", ("surf-attack",)),
          note="also get_p50_ms on remote-mixed"),
    Layer("lsm.get.calls", "count", "lower", _SURF, ATTACKS),
    Layer("lsm.probe_plan.wall_s", "s", "lower", _SURF),
    Layer("lsm.sstable_get.wall_s", "s", "lower", _SURF),
    Layer("lsm.table_reads_per_get", "ratio", "lower", _GET, ATTACKS),
    Layer("lsm.filter_negative_frac", "frac", "higher", _GET, ATTACKS),
    Layer("lsm.range_query.self_s", "s", "lower", _RANGE),
    Layer("lsm.range_query.calls", "count", "lower", _RANGE, ATTACKS),
    Layer("lsm.sorted_view.build_s", "s", "lower", _RANGE),
    Layer("lsm.view_rebuild_segments", "count", "lower", _RANGE, ATTACKS),
    Layer("lsm.put_many.wall_s", "s", "lower", _PUT),
    Layer("lsm.put_many.p99_ms", "ms", "lower", _PUT),
    Layer("lsm.flush.wall_s", "s", "lower", _PUT),
    Layer("lsm.flush.calls", "count", "lower", _PUT),
    Layer("lsm.compaction.wall_s", "s", "lower", ("get_p99_ms",
                                                   ("remote-mixed",)),
          note="runs on the background thread, contending for the GIL"),
    Layer("lsm.compaction.runs", "count", "lower", ("get_p99_ms",
                                                     ("remote-mixed",))),
    Layer("lsm.memtable_hit_frac", "frac", "higher", _GET),
    Layer("storage.device.write_amp", "ratio", "lower", _PUT,
          note="device bytes written (WAL, flushes, and background "
               "compaction through the silent device view) per user byte"),
    # filters
    Layer("filters.probe_many.wall_s", "s", "lower", _ATTACK_OPS),
    Layer("filters.may_contain.calls", "count", "lower", _ATTACK_OPS,
          ATTACKS, "point probes recorded in the live tables' filter stats"),
    Layer("filters.may_contain_range.calls", "count", "lower", _RANGE,
          ATTACKS),
    Layer("filters.may_contain_range.wall_s", "s", "lower", _RANGE),
    Layer("filters.positive_frac", "frac", "lower", _ATTACK_OPS, ATTACKS),
    Layer("filters.build.wall_s", "s", "lower", ("setup_s", ALL),
          note="also put_p50_ms on remote-mixed (flush/compaction builds)"),
    # storage: page cache, device, background load
    Layer("storage.page_cache.read.wall_s", "s", "lower", _ATTACK_OPS),
    Layer("storage.page_cache.hit_frac", "frac", "higher", _ATTACK_OPS,
          ATTACKS),
    Layer("storage.page_cache.decoded_hit_frac", "frac", "higher", _SURF,
          ATTACKS),
    Layer("storage.page_cache.evictions", "count", "lower", _RANGE, ATTACKS),
    Layer("storage.device.reads", "count", "lower", _RANGE, ATTACKS),
    Layer("storage.background.run_for.wall_s", "s", "lower", _RANGE,
          note="predicted small on surf-attack"),
    Layer("storage.background.run_for.calls", "count", "lower", _RANGE,
          ATTACKS),
    # server: wire protocol, asyncio core, client
    Layer("server.request.wall_s", "s", "lower", _SERVE,
          note="client side, per wire request"),
    Layer("server.execute.wall_s", "s", "lower", _GET),
    Layer("server.wire.wall_s", "s", "lower", _GET,
          note="request minus execute: framing, sockets, loop queueing"),
    Layer("server.requests", "count", "higher", _SERVE),
    # remote-mixed client latencies (untraced pass of the traced run)
    Layer("get_p50_ms", "ms", "lower", _SERVE,
          note="demoted from end-to-end: attacks issue no wire requests"),
    Layer("get_p99_ms", "ms", "lower", _SERVE,
          note="demoted from end-to-end: attacks issue no wire requests"),
    Layer("put_p50_ms", "ms", "lower", _SERVE,
          note="demoted from end-to-end: attacks issue no writes"),
    Layer("put_p99_ms", "ms", "lower", _SERVE,
          note="demoted from end-to-end: attacks issue no writes"),
    Layer("get.samples", "count", "higher", _SERVE),
    Layer("put.samples", "count", "higher", _SERVE),
    Layer("failed_frac", "frac", "lower", ("ops_per_s", ALL), ATTACKS,
          "demoted from end-to-end: it is 0 on a correct run, and an "
          "end-to-end metric must never be 0; attempted/failed carry it"),
    # the tracer itself
    Layer("trace.overhead_frac", "frac", "lower", ("ops_per_s", ALL),
          note="traced wall over untraced wall, minus 1"),
    Layer("trace.spans", "count", "lower", ("ops_per_s", ALL), ATTACKS),
    Layer("trace.wall_s", "s", "lower", ("ops_per_s", ALL)),
    Layer("machine.reference_ms", "ms", "lower", ("ops_per_s", ALL),
          note="the run's reference-loop time: per-layer times are "
               "unscaled, so compare them across runs in its units"),
)


def benchmark_spec() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [metric.spec() for metric in END_TO_END],
        "per_layer": [metric.spec() for metric in PER_LAYER],
    }


RUN_SECONDS = 20
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(samples, fraction: float) -> float:
    """Nearest-rank percentile, in ms (0 with no samples)."""
    if not len(samples):
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered)
                                            + 0.999999) - 1))
    return ordered[rank] * 1e3


def per_layer_values(summary: dict, counts: dict, latencies: dict,
                     failed_frac: float, overhead_frac: float,
                     trace_wall_s: float, spans: int,
                     reference_s: float) -> Dict[str, float]:
    """Every per-layer metric from one traced run."""
    def span(name: str, field: str) -> float:
        entry = summary.get(name)
        return float(entry[field]) if entry else 0.0

    requests = summary.get("server.request")
    put_durations = (summary["lsm.put_many"]["durations_s"]
                     if "lsm.put_many" in summary else [])
    c = counts
    written = c.get("device_bytes_written", 0) + c.get(
        "silent_bytes_written", 0)
    values = {
        "core.learn.wall_s": span("core.learn", "wall_s"),
        "core.find_fpk.wall_s": span("core.find_fpk", "wall_s"),
        "core.id_prefix.wall_s": span("core.id_prefix", "wall_s"),
        "core.extend.wall_s": span("core.extend", "wall_s"),
        "core.descent.wall_s": span("core.descent", "wall_s"),
        "core.classify.wall_s": span("core.classify", "wall_s"),
        "core.learn.queries": c.get("queries.learning", 0),
        "core.find_fpk.queries": c.get("queries.find_fpk", 0),
        "core.id_prefix.queries": c.get("queries.id_prefix", 0),
        "core.extend.queries": c.get("queries.extend", 0),
        "core.extend.useful_frac": (
            1.0 - _frac(c["wasted_queries"], c["queries.extend"])
            if c.get("queries.extend") else 0.0),
        "core.descent.range_queries": c.get("descent.range_queries", 0),
        "core.descent.point_queries": c.get("descent.point_queries", 0),
        "system.get.self_s": span("system.get", "self_s"),
        "system.get.calls": span("system.get", "calls"),
        "system.get_many.self_s": span("system.get_many", "self_s"),
        "system.range.self_s": span("system.range", "self_s"),
        "system.range.calls": span("system.range", "calls"),
        "system.put_many.self_s": span("system.put_many", "self_s"),
        "lsm.get.self_s": span("lsm.get", "self_s"),
        "lsm.get.calls": span("lsm.get", "calls"),
        "lsm.probe_plan.wall_s": span("lsm.probe_plan", "wall_s"),
        "lsm.sstable_get.wall_s": span("lsm.sstable_get", "wall_s"),
        "lsm.table_reads_per_get": _frac(c["table_reads"], c["gets"]),
        "lsm.filter_negative_frac": _frac(c["filter_negatives"],
                                          c["filter_checks"]),
        "lsm.range_query.self_s": span("lsm.range_query", "self_s"),
        "lsm.range_query.calls": span("lsm.range_query", "calls"),
        "lsm.sorted_view.build_s": span("lsm.sorted_view.build", "wall_s"),
        "lsm.view_rebuild_segments": c["view_rebuild_segments"],
        "lsm.put_many.wall_s": span("lsm.put_many", "wall_s"),
        "lsm.put_many.p99_ms": _percentile_ms(put_durations, 0.99),
        "lsm.flush.wall_s": span("lsm.flush", "wall_s"),
        "lsm.flush.calls": span("lsm.flush", "calls"),
        "lsm.compaction.wall_s": span("lsm.compaction", "wall_s"),
        "lsm.compaction.runs": c.get("compactions_run", 0),
        "lsm.memtable_hit_frac": _frac(c["memtable_hits"], c["gets"]),
        "storage.device.write_amp": _frac(written,
                                          c.get("user_bytes_written", 0)),
        "filters.probe_many.wall_s": span("filters.probe_many", "wall_s"),
        "filters.may_contain.calls": c["filter_point_queries"],
        "filters.may_contain_range.calls": c["filter_range_queries"],
        "filters.may_contain_range.wall_s": span(
            "filters.may_contain_range", "wall_s"),
        "filters.positive_frac": _frac(c["filter_positives"],
                                       c["filter_point_queries"]),
        "filters.build.wall_s": span("filters.build", "wall_s"),
        "storage.page_cache.read.wall_s": span("storage.page_cache.read",
                                               "wall_s"),
        "storage.page_cache.hit_frac": _frac(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "storage.page_cache.decoded_hit_frac": _frac(
            c["decoded_hits"], c["decoded_hits"] + c["decoded_misses"]),
        "storage.page_cache.evictions": c["cache_evictions"],
        "storage.device.reads": c["device_reads"],
        "storage.background.run_for.wall_s": span(
            "storage.background.run_for", "wall_s"),
        "storage.background.run_for.calls": span(
            "storage.background.run_for", "calls"),
        "server.request.wall_s": span("server.request", "wall_s"),
        "server.execute.wall_s": span("server.execute", "wall_s"),
        "server.wire.wall_s": span("server.request", "self_s"),
        "server.requests": requests["calls"] if requests else 0,
        "get_p50_ms": _percentile_ms(latencies.get("get", []), 0.50),
        "get_p99_ms": _percentile_ms(latencies.get("get", []), 0.99),
        "put_p50_ms": _percentile_ms(latencies.get("put", []), 0.50),
        "put_p99_ms": _percentile_ms(latencies.get("put", []), 0.99),
        "get.samples": len(latencies.get("get", [])),
        "put.samples": len(latencies.get("put", [])),
        "failed_frac": failed_frac,
        "trace.overhead_frac": overhead_frac,
        "trace.spans": spans,
        "trace.wall_s": trace_wall_s,
        "machine.reference_ms": reference_s * 1e3,
    }
    missing = {metric.name for metric in PER_LAYER} ^ set(values)
    if missing:
        raise KeyError(f"per-layer metrics out of sync: {sorted(missing)}")
    return {name: float(value) for name, value in values.items()}
