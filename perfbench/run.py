#!/usr/bin/env python3
"""The repository's end-to-end benchmark, with per-layer attribution.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surf-attack --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced
    python3 perfbench/run.py --self-test      # small-N checks of the benchmark itself

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced on the same
inputs, checks that both produce the same simulated outputs, and reports
the per-layer metrics; the spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check or a digest fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")

#: Attack workloads run units (set-up plus attack, each on its own
#: dataset) until ``--seconds`` have passed, and at least MIN_UNITS, so
#: ``setup_s`` is a median of several set-ups and ``ops_per_s`` averages
#: over several datasets.
MIN_UNITS = 3
#: remote-mixed sets up this many stores; the last one serves the load.
MIXED_SETUPS = 5


def _load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: the program's source (src/repro) is not "
                         "in this checkout\n")
        sys.exit(2)
    sys.path.insert(1, SRC)


#: On a shared host the CPU speed can drift by 1.7x over minutes (seen on
#: a 2-vCPU Xeon VM, with set-up time and attack throughput moving
#: together), which no run length averages out.  Each run therefore times a fixed pure-Python reference loop, none
#: of it the program's code, between its units, and reports ``ops_per_s``
#: and ``setup_s`` scaled to a machine on which that loop takes
#: REFERENCE_NOMINAL_S.  A change to the program cannot move the loop, so
#: the scaling removes only the machine's speed.  The raw values and the
#: loop's time are printed alongside.
REFERENCE_NOMINAL_S = 0.05


def reference_seconds() -> float:
    """Wall time of the fixed reference loop (dict, bytes, sort, calls)."""
    started = time.perf_counter()
    table = {}
    keys = [i.to_bytes(5, "big") for i in range(4000)]
    for _ in range(50):
        for key in keys:
            table[key] = table.get(key, 0) + len(key[1:4])
        keys.sort(key=lambda k: k[::-1])
    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


class Run:
    """Accumulates checks for one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, unit) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _check_digests(run: Run, workload: str, seed: int, digests) -> None:
    """Unit digests match the ones recorded for this seed, if any."""
    recorded = _golden().get("digests", {}).get(workload, {}).get(str(seed))
    for index, (digest, expected) in enumerate(zip(digests, recorded or [])):
        run.check(digest == expected,
                  f"{workload}: unit {index} digest {digest} != recorded "
                  f"{expected} for seed {seed}")


def _attack_fn(workload: str):
    import workloads
    return {"surf-attack": workloads.surf_attack,
            "range-attack": workloads.range_attack}[workload]


def measure(workload: str, seed: int, seconds: float, small: bool = False):
    """Untraced run: the end-to-end metrics."""
    import workloads
    seeds = workloads.Seeds.derive(seed)
    size = (workloads.SMALL if small else workloads.FULL)[workload]
    run = Run()
    info = {}
    refs = [reference_seconds() for _ in range(3)]
    if workload == "remote-mixed":
        setups = workloads.mixed_setups(seeds, size, MIXED_SETUPS - 1)
        unit = workloads.remote_mixed(seeds, size, seconds)
        setups.append(unit.setup_s)
        info["latency"] = unit.latencies_s
        info["background"] = {k: unit.counts[k] for k in
                              ("flushes", "compactions_run",
                               "background_cycles")}
        units = [unit]
    else:
        fn = _attack_fn(workload)
        units = []
        started = time.perf_counter()
        while (len(units) < MIN_UNITS
               or time.perf_counter() - started < seconds):
            units.append(fn(workloads.Seeds.derive(seed, len(units)), size))
            refs.append(reference_seconds())
        _check_digests(run, workload, seed, [u.digest for u in units])
        run.check(sum(u.counts["extracted"] for u in units) > 0
                  or workload != "surf-attack",
                  "surf-attack: no unit extracted a key")
        info["digests"] = [u.digest for u in units]
        setups = [u.setup_s for u in units]
    refs.extend(reference_seconds() for _ in range(3))
    for unit in units:
        run.add(unit)
    speed = statistics.median(refs) / REFERENCE_NOMINAL_S
    raw_ops = sum(u.ops for u in units) / sum(u.wall_s for u in units)
    raw_setup = statistics.median(setups)
    info["units"] = len(units)
    info["raw"] = {"ops_per_s": raw_ops, "setup_s": raw_setup,
                   "reference_ms": statistics.median(refs) * 1e3}
    metrics = {
        "ops_per_s": raw_ops * speed,
        "setup_s": raw_setup / speed,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return run, metrics, info


def traced(workload: str, seed: int, seconds: float, small: bool = False,
           write: bool = True):
    """Untraced then traced pass on the same inputs: per-layer metrics."""
    import metrics as metric_defs
    import workloads
    from tracing import Tracer, summarize
    seeds = workloads.Seeds.derive(seed)
    size = (workloads.SMALL if small else workloads.FULL)[workload]
    run = Run()
    tracer = Tracer()
    info = {}
    refs = [reference_seconds() for _ in range(3)]
    if workload == "remote-mixed":
        half = seconds / 2.0
        plain = workloads.remote_mixed(seeds, size, half)
        started = time.perf_counter()
        unit = workloads.remote_mixed(seeds, size, half, tracer)
        trace_wall = time.perf_counter() - started
        overhead = (plain.ops / plain.wall_s) / (unit.ops / unit.wall_s) - 1
        latencies = plain.latencies_s
    else:
        fn = _attack_fn(workload)
        plain = fn(seeds, size)
        started = time.perf_counter()
        unit = fn(seeds, size, tracer)
        trace_wall = time.perf_counter() - started
        overhead = unit.wall_s / plain.wall_s - 1
        latencies = {}
        run.check(plain.digest == unit.digest,
                  f"{workload}: digest with tracing on {unit.digest} != "
                  f"off {plain.digest}")
        _check_digests(run, workload, seed, [unit.digest])
        info["digests"] = [unit.digest]
    refs.extend(reference_seconds() for _ in range(3))
    run.add(plain)
    run.add(unit)
    spans = tracer.spans()
    summary = summarize(tracer.names, spans)
    for thread, self_s in summary.pop("_threads").items():
        run.check(self_s <= trace_wall,
                  f"thread {thread}: self times sum to {self_s:.3f} s, more "
                  f"than the traced wall {trace_wall:.3f} s")
    if write:
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload}"), spans)
    values = metric_defs.per_layer_values(
        summary, unit.counts, latencies,
        failed_frac=run.failed / max(run.attempted, 1),
        overhead_frac=overhead, trace_wall_s=trace_wall,
        spans=len(spans["start"]), reference_s=statistics.median(refs))
    return run, values, info


def _emit(run: Run, values: dict, units: dict) -> int:
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def _describe(workload: str, info: dict) -> None:
    if "units" in info:
        print(f"{workload}: {info['units']} unit(s)")
    for index, digest in enumerate(info.get("digests", [])):
        print(f"  unit {index} digest {digest}")
    if "raw" in info:
        print("  unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in info["raw"].items()))
    if "background" in info:
        print(f"  background work: {info['background']}")
    latency = info.get("latency")
    if latency:
        for kind in ("get", "put"):
            print(f"  {kind} requests timed: {len(latency[kind])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", type=int, metavar="UNITS",
                        help="recompute the recorded digests of the first "
                             "UNITS attack units of the default and "
                             "held-out seeds into perfbench/golden.json")
    args = parser.parse_args(argv)
    _load_program()
    import metrics as metric_defs
    seconds = (args.seconds if args.seconds is not None
               else metric_defs.RUN_SECONDS)
    seed = args.seed if args.seed is not None else _golden()["default_seed"]
    if args.self_test:
        import selftest
        return selftest.main()
    if args.all:
        return _run_all(seed, seconds)
    if args.record_digests:
        return _record_digests(args.record_digests)
    if args.workload not in metric_defs.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(metric_defs.WORKLOADS)}")
    if args.trace:
        run, values, info = traced(args.workload, seed, seconds)
    else:
        run, values, info = measure(args.workload, seed, seconds)
    _describe(args.workload, info)
    return _emit(run, values, metric_defs.UNITS)


def _record_digests(count: int) -> int:
    import workloads
    golden = _golden()
    seeds = (golden["default_seed"], golden["held_out_seed"])
    golden["digests"] = {
        workload: {str(seed): [
            _attack_fn(workload)(workloads.Seeds.derive(seed, i),
                                 workloads.FULL[workload]).digest
            for i in range(count)] for seed in seeds}
        for workload in ("surf-attack", "range-attack")}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=2)
        handle.write("\n")
    return 0


def _run_all(seed: int, seconds: float) -> int:
    """Every workload, end-to-end then per-layer; one merged result."""
    import metrics as metric_defs
    total = Run()
    merged = {}
    units = {}
    for workload in metric_defs.WORKLOADS:
        for trace in (0, 1):
            fn = traced if trace else measure
            run, values, info = fn(workload, seed, seconds)
            _describe(workload, info)
            total.attempted += run.attempted
            total.failed += run.failed
            total.problems.extend(run.problems)
            for name, value in values.items():
                merged[f"{workload}/{name}"] = value
                units[f"{workload}/{name}"] = metric_defs.UNITS[name]
    return _emit(total, merged, units)


if __name__ == "__main__":
    sys.exit(main())
