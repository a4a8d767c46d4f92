"""Self-test of the benchmark, at small sizes (``run.py --self-test``).

Checks, for each workload:

* attacks: the digest is equal across two untraced runs of one seed, and
  equal with tracing on and off;
* every traced run: on each thread, the self times of the spans sum to no
  more than the traced wall, and no output check failed;
* attacks: the per-layer counts marked exact repeat across two traced
  runs;
* every metric is printed by name with its unit.

It also checks that ``BENCHMARK.json`` matches :mod:`metrics` and that a
digest that differs from the recorded one fails the run.
"""

from __future__ import annotations

import json
import os

import metrics
import run
import workloads

SEED = 3
SECONDS = 2.0


def _check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    _check(declared == metrics.benchmark_spec(),
           "BENCHMARK.json matches perfbench/metrics.py", failures)

    probe = run.Run()
    run._check_digests(probe, "surf-attack", run._golden()["default_seed"],
                       ["0" * 64])
    recorded = run._golden().get("digests", {}).get("surf-attack")
    _check(probe.failed == 1 or not recorded,
           "a digest that differs from the recorded one fails the run",
           failures)

    for name in metrics.WORKLOADS:
        size = workloads.SMALL[name]
        if name != "remote-mixed":
            fn = run._attack_fn(name)
            seeds = workloads.Seeds.derive(SEED)
            first, second = fn(seeds, size), fn(seeds, size)
            _check(first.digest == second.digest,
                   f"{name}: digest equal across two runs", failures)
        result, values, _ = run.traced(name, SEED, SECONDS, small=True,
                                       write=False)
        for problem in result.problems:
            print(f"     {problem}")
        _check(result.failed == 0,
               f"{name}: traced run passes its checks (outputs, attack "
               f"digest on == off, self times <= traced wall)", failures)
        _check(values["trace.spans"] > 0, f"{name}: spans recorded",
               failures)
        exact = [layer.name for layer in metrics.PER_LAYER
                 if name in layer.exact_on]
        if exact:
            _, again, _ = run.traced(name, SEED, SECONDS, small=True,
                                     write=False)
            differ = [m for m in exact if values[m] != again[m]]
            _check(not differ, f"{name}: {len(exact)} counts marked exact "
                   f"repeat across traced runs {differ or ''}", failures)
        plain, e2e, _ = run.measure(name, SEED, SECONDS, small=True)
        _check(plain.failed == 0 and all(v > 0 for v in e2e.values()),
               f"{name}: end-to-end run passes, no metric is 0", failures)
        for metric, value in {**e2e, **values}.items():
            print(f"     {name}/{metric} = {value:.6g} "
                  f"{metrics.UNITS[metric]}")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
