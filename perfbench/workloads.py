"""The three benchmark workloads.

Every input is generated here from one ``--seed`` (see :class:`Seeds`);
the program under test receives only the generated inputs.  A workload
runs in *units*: one unit sets up a fresh store (``setup_s``) and then
runs the measured phase.  Attack units are deterministic: unit ``i`` of a
seed always produces the same digest (``golden.json`` records them for two
seeds).  ``remote-mixed`` has two client threads and background
compaction, so it is checked by read-back instead.

Sizes live in :data:`FULL` and :data:`SMALL` (the self-test).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import DEFAULT_WAIT_US
from repro.common.errors import ReproError
from repro.core import range_attack as range_attack_module
from repro.core import template as template_module
from repro.core.learning import learn_cutoff
from repro.core.oracle import TimingOracle
from repro.core.range_attack import (
    RangeAttackConfig,
    RangeDescentAttack,
    TimingRangeOracle,
)
from repro.core.results import QueryCounter
from repro.core.surf_attack import SurfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.prefix_bloom import PrefixBloomFilterBuilder
from repro.filters.surf import SuffixScheme, SuRFBuilder, SurfVariant
from repro.server.aio import AsyncLoopbackTransport
from repro.system.responses import Status
from repro.workloads.datasets import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)

from tracing import (
    Patches,
    Tracer,
    instrument_builder,
    instrument_classes,
    instrument_client,
    instrument_store,
)

KEY_WIDTH = 5


@dataclass(frozen=True)
class Seeds:
    """Every random choice of a run, derived from the one ``--seed``."""

    dataset: int
    learning: int
    strategy: int
    zipf: int

    @classmethod
    def derive(cls, seed: int, unit: int = 0) -> "Seeds":
        """Seeds of ``unit`` within a run: each unit of a run attacks its
        own dataset, so one run averages over several attack paths."""
        def sub(label: str) -> int:
            digest = hashlib.sha256(
                f"perfbench/{seed}/{unit}/{label}".encode())
            return int.from_bytes(digest.digest()[:4], "big")
        return cls(sub("dataset"), sub("learning"), sub("strategy"),
                   sub("zipf"))


@dataclass(frozen=True)
class Sizes:
    keys: int
    #: surf-attack: FindFPK candidates and learning-phase samples.
    candidates: int = 0
    learning_samples: int = 0
    #: range-attack: queries the descent may issue before it stops.  A
    #: budget rather than a key count keeps the work per unit the same
    #: across datasets (the first key costs 2k-70k queries, by dataset).
    range_budget: int = 0
    #: range-attack: suffix spaces up to this size are extended by point
    #: probes; larger ones stay prefix-only disclosures.  Extension is
    #: surf-attack's path (cache-hot gets, ~30x cheaper than a timed range
    #: test) and would take a uniformly random share of the budget, so
    #: it is off here and the descent stays on the range path.
    range_extension: int = 1
    #: remote-mixed: closed-loop clients, keys per request, request mix.
    clients: int = 2
    batch: int = 32
    write_share: float = 0.2
    miss_share: float = 0.05
    zipf_s: float = 1.1
    #: remote-mixed: bytes per written value (the bulk-loaded values are
    #: 64 bytes); large enough that flushes and compactions cycle several
    #: times per run.
    value_size: int = 64


FULL = {
    "surf-attack": Sizes(keys=50_000, candidates=3_000,
                         learning_samples=5_000),
    "range-attack": Sizes(keys=50_000, range_budget=5_000,
                          learning_samples=2_000),
    "remote-mixed": Sizes(keys=20_000, value_size=256),
}
SMALL = {
    "surf-attack": Sizes(keys=5_000, candidates=2_000,
                         learning_samples=2_000),
    "range-attack": Sizes(keys=5_000, range_budget=1_500,
                          learning_samples=1_000),
    "remote-mixed": Sizes(keys=5_000),
}


@dataclass
class Unit:
    """Outcome of one set-up plus measured phase."""

    setup_s: float
    wall_s: float
    #: Store queries completed in the measured phase (attack queries, or
    #: keys read plus keys written).
    ops: int
    attempted: int
    failed: int
    digest: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@contextlib.contextmanager
def _span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


# ------------------------------------------------------------ public counts

def store_counts(env, bytes_before: int) -> Dict[str, float]:
    """Per-layer counts from the store's public stats surfaces."""
    db, cache, device = env.db.stats, env.cache.stats, env.device.stats
    point = positives = ranges = 0
    for table in env.db.version.all_tables():
        if table.filter is not None:
            stats = table.filter.stats
            point += stats.point_queries
            positives += stats.positives
            ranges += stats.range_queries
    return {
        "gets": db.gets,
        "memtable_hits": db.memtable_hits,
        "filter_checks": db.filter_checks,
        "filter_negatives": db.filter_negatives,
        "table_reads": db.table_reads,
        "flushes": db.flushes,
        "view_rebuild_segments": db.view_rebuild_segments,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "decoded_hits": cache.decoded_hits,
        "decoded_misses": cache.decoded_misses,
        "device_reads": device.reads,
        "device_bytes_written": device.bytes_written - bytes_before,
        "filter_point_queries": point,
        "filter_positives": positives,
        "filter_range_queries": ranges,
    }


def _filter_stats(env) -> List[List[int]]:
    out = []
    for table in env.db.version.all_tables():
        stats = table.filter.stats
        out.append([stats.point_queries, stats.positives,
                    stats.range_queries, stats.range_positives])
    return out


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -------------------------------------------------------------- surf-attack

def surf_attack(seeds: Seeds, size: Sizes,
                tracer: Optional[Tracer] = None) -> Unit:
    """The full SuRF-Real timing attack: learn, FindFPK, IdPrefix, extend."""
    patches = Patches()
    counters: Dict[str, int] = {}
    try:
        if tracer is not None:
            instrument_classes(tracer, patches, counters)
        started = time.perf_counter()
        with _span(tracer, "setup"):
            builder = SuRFBuilder(variant="real", suffix_bits=8)
            if tracer is not None:
                instrument_builder(tracer, patches, builder)
            env = build_environment(DatasetConfig(
                num_keys=size.keys, key_width=KEY_WIDTH, seed=seeds.dataset,
                filter_builder=builder))
        setup_s = time.perf_counter() - started
        bytes_before = env.device.stats.bytes_written
        counter = QueryCounter()
        strategy = SurfAttackStrategy(
            KEY_WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=seeds.strategy)
        if tracer is not None:
            instrument_store(tracer, patches, env)
            patches.wrap(tracer, strategy, "find_false_positives",
                         "core.find_fpk")
            patches.wrap(tracer, strategy, "identify_prefixes",
                         "core.id_prefix")
            patches.wrap(tracer, template_module, "extend_prefix",
                         "core.extend")
        started = time.perf_counter()
        with _span(tracer, "workload"):
            with _span(tracer, "core.learn"):
                learning = learn_cutoff(
                    env.service, ATTACKER_USER, KEY_WIDTH,
                    num_samples=size.learning_samples, seed=seeds.learning,
                    background=env.background, counter=counter)
            oracle = TimingOracle(env.service, ATTACKER_USER,
                                  cutoff_us=learning.cutoff_us, rounds=4,
                                  background=env.background,
                                  wait_us=DEFAULT_WAIT_US)
            oracle.counter = counter
            if tracer is not None:
                patches.wrap(tracer, oracle, "classify", "core.classify")
            result = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
                key_width=KEY_WIDTH, num_candidates=size.candidates)).run()
        wall_s = time.perf_counter() - started
    finally:
        patches.undo()

    stored = env.key_set
    wrong = [e.key for e in result.extracted if e.key not in stored]
    ops = sum(result.queries_by_stage.values())
    digest = _digest({
        "keys": [e.key.hex() for e in result.extracted],
        "queries_by_stage": result.queries_by_stage,
        "stage_durations_us": result.stage_durations_us,
        "sim_duration_us": result.sim_duration_us,
        "wasted_queries": result.wasted_queries,
        "cutoff_us": learning.cutoff_us,
        "clock_us": env.clock.now_us,
        "filter_stats": _filter_stats(env),
    })
    counts = store_counts(env, bytes_before)
    counts.update({
        "queries.learning": result.queries_by_stage.get("learning", 0),
        "queries.find_fpk": result.queries_by_stage.get("find_fpk", 0),
        "queries.id_prefix": result.queries_by_stage.get("id_prefix", 0),
        "queries.extend": result.queries_by_stage.get("extend", 0),
        "wasted_queries": result.wasted_queries,
        "extracted": len(result.extracted),
        "silent_bytes_written": counters.get("silent_bytes_written", 0),
    })
    env.db.close()
    problems = [f"extracted key {key.hex()} is not stored" for key in wrong]
    if env.db.leaked_pins:
        problems.append(f"{env.db.leaked_pins} leaked version pins")
    return Unit(setup_s=setup_s, wall_s=wall_s, ops=ops,
                attempted=ops + len(result.extracted) + 1,
                failed=len(problems), digest=digest, counts=counts,
                problems=problems)


# ------------------------------------------------------------- range-attack

def range_attack(seeds: Seeds, size: Sizes,
                 tracer: Optional[Tracer] = None) -> Unit:
    """Range-descent timing attack (``range_query_timed(limit=1)``)."""
    patches = Patches()
    counters: Dict[str, int] = {}
    try:
        if tracer is not None:
            instrument_classes(tracer, patches, counters)
        started = time.perf_counter()
        with _span(tracer, "setup"):
            builder = SuRFBuilder(variant="real", suffix_bits=8)
            if tracer is not None:
                instrument_builder(tracer, patches, builder)
            env = build_environment(DatasetConfig(
                num_keys=size.keys, key_width=KEY_WIDTH, seed=seeds.dataset,
                filter_builder=builder))
        setup_s = time.perf_counter() - started
        bytes_before = env.device.stats.bytes_written
        counter = QueryCounter()
        if tracer is not None:
            instrument_store(tracer, patches, env)
            patches.wrap(tracer, range_attack_module, "extend_prefix",
                         "core.extend")
        started = time.perf_counter()
        with _span(tracer, "workload"):
            with _span(tracer, "core.learn"):
                learning = learn_cutoff(
                    env.service, ATTACKER_USER, KEY_WIDTH,
                    num_samples=size.learning_samples, seed=seeds.learning,
                    background=env.background, counter=counter)
            oracle = TimingRangeOracle(env.service, ATTACKER_USER,
                                       cutoff_us=learning.cutoff_us,
                                       background=env.background)
            if tracer is not None:
                patches.wrap(tracer, oracle, "range_may_contain",
                             "core.classify")
                patches.wrap(tracer, oracle, "point_may_contain",
                             "core.classify")
            attack = RangeDescentAttack(oracle, RangeAttackConfig(
                key_width=KEY_WIDTH, max_queries=size.range_budget,
                max_extension_queries=size.range_extension,
                seed=seeds.strategy))
            with _span(tracer, "core.descent"):
                result = attack.run()
        wall_s = time.perf_counter() - started
    finally:
        patches.undo()

    stored = env.key_set
    wrong = [key for key in result.keys if key not in stored]
    learned = counter.by_stage.get("learning", 0)
    ops = learned + result.total_queries
    digest = _digest({
        "keys": [key.hex() for key in result.keys],
        "prefixes": [prefix.hex() for prefix in result.prefixes_found],
        "learning_queries": learned,
        "range_queries": result.range_queries,
        "point_queries": result.point_queries,
        "wasted_queries": result.wasted_queries,
        "exhausted_budget": result.exhausted_budget,
        "cutoff_us": learning.cutoff_us,
        "clock_us": env.clock.now_us,
        "filter_stats": _filter_stats(env),
    })
    counts = store_counts(env, bytes_before)
    counts.update({
        "queries.learning": learned,
        "descent.range_queries": result.range_queries,
        "descent.point_queries": result.point_queries,
        "wasted_queries": result.wasted_queries,
        "extracted": len(result.keys),
        "silent_bytes_written": counters.get("silent_bytes_written", 0),
    })
    env.db.close()
    problems = [f"extracted key {key.hex()} is not stored" for key in wrong]
    if env.db.leaked_pins:
        problems.append(f"{env.db.leaked_pins} leaked version pins")
    return Unit(setup_s=setup_s, wall_s=wall_s, ops=ops,
                attempted=ops + len(result.keys) + 1,
                failed=len(problems), digest=digest, counts=counts,
                problems=problems)


# ------------------------------------------------------------- remote-mixed

class _ClientScript:
    """One closed-loop client's deterministic request stream.

    Reads are ``batch`` keys drawn zipf(s) over the whole key space with
    ``miss_share`` absent keys; writes update zipf-ranked keys in this
    client's own half (ranks of its parity), so no other client writes
    them and every acknowledged value has one expected read-back.
    """

    BLOCK = 512

    def __init__(self, index: int, keys: List[bytes], misses: List[bytes],
                 size: Sizes, seed: int) -> None:
        self.index = index
        self.keys = keys
        self.misses = misses
        self.size = size
        self._rng = np.random.Generator(np.random.PCG64([seed, index]))
        n = len(keys)
        self._cdf_all = _zipf_cdf(n, size.zipf_s)
        self._cdf_own = _zipf_cdf((n - index + size.clients - 1)
                                  // size.clients, size.zipf_s)
        self._seq = 0

    def requests(self):
        size, rng = self.size, self._rng
        while True:
            kinds = rng.random(self.BLOCK) < size.write_share
            for is_write in kinds:
                if is_write:
                    ranks = np.searchsorted(self._cdf_own,
                                            rng.random(size.batch))
                    items = []
                    for rank in ranks:
                        self._seq += 1
                        key = self.keys[int(rank) * size.clients + self.index]
                        value = (b"c%d-%09d-" % (self.index, self._seq)
                                 ).ljust(size.value_size, b"v")
                        items.append((key, value))
                    yield True, items
                else:
                    ranks = np.searchsorted(self._cdf_all,
                                            rng.random(size.batch))
                    miss = rng.random(size.batch) < size.miss_share
                    picks = rng.integers(0, len(self.misses), size.batch)
                    yield False, [
                        self.misses[int(p)] if m else self.keys[int(r)]
                        for r, m, p in zip(ranks, miss, picks)]


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def _miss_keys(stored: set, count: int, seed: int) -> List[bytes]:
    rng = np.random.Generator(np.random.PCG64([seed, 99]))
    out: List[bytes] = []
    while len(out) < count:
        key = bytes(rng.integers(0, 256, KEY_WIDTH, dtype=np.uint8))
        if key not in stored:
            out.append(key)
    return out


@dataclass
class _ClientLog:
    reads: int = 0
    writes: int = 0
    keys_read: int = 0
    keys_written: int = 0
    failed: int = 0
    get_s: List[float] = field(default_factory=list)
    put_s: List[float] = field(default_factory=list)
    acked: Dict[bytes, bytes] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _run_client(client, script: _ClientScript, misses: set, deadline: float,
                log: _ClientLog) -> None:
    own = script.index
    clients = script.size.clients
    key_rank = {key: rank for rank, key in enumerate(script.keys)}
    clock = time.perf_counter
    for is_write, batch in script.requests():
        if clock() >= deadline:
            return
        started = clock()
        try:
            if is_write:
                stored = client.put_many(OWNER_USER, batch)
                log.put_s.append(clock() - started)
                log.writes += 1
                log.keys_written += len(batch)
                if stored != len(batch):
                    log.failed += 1
                    log.problems.append(f"put_many stored {stored} of "
                                        f"{len(batch)}")
                    continue
                log.acked.update(batch)
            else:
                responses = client.get_many(OWNER_USER, batch)
                log.get_s.append(clock() - started)
                log.reads += 1
                log.keys_read += len(batch)
                bad = 0
                for key, response in zip(batch, responses):
                    if key in misses:
                        bad += response.status is not Status.NOT_FOUND
                    elif response.status is not Status.OK:
                        bad += 1
                    elif key_rank[key] % clients == own and key in log.acked:
                        bad += response.value != log.acked[key]
                if bad or len(responses) != len(batch):
                    log.failed += 1
                    log.problems.append(f"read batch with {bad} wrong keys")
        except ReproError as exc:
            # Error frames and transport errors fail this request only.
            log.failed += 1
            log.problems.append(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # the client thread's boundary
            log.failed += 1
            log.problems.append(f"client stopped: {type(exc).__name__}: "
                                f"{exc}")
            return


def _mixed_setup(seeds: Seeds, size: Sizes, tracer: Optional[Tracer],
                 patches: Patches):
    with _span(tracer, "setup"):
        builder = PrefixBloomFilterBuilder(prefix_len=3)
        if tracer is not None:
            instrument_builder(tracer, patches, builder)
        env = build_environment(DatasetConfig(
            num_keys=size.keys, key_width=KEY_WIDTH, seed=seeds.dataset,
            filter_builder=builder, background_compaction=True))
        transport = AsyncLoopbackTransport(env.service, env.background)
        clients = [transport.connect() for _ in range(size.clients)]
    return env, transport, clients


def _mixed_teardown(env, transport, clients) -> None:
    for client in clients:
        client.close()
    transport.close()
    env.db.close()


def mixed_setups(seeds: Seeds, size: Sizes, count: int) -> List[float]:
    """Set up and tear down ``count`` stores; their set-up times."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        built = _mixed_setup(seeds, size, None, Patches())
        times.append(time.perf_counter() - started)
        _mixed_teardown(*built)
    return times


def remote_mixed(seeds: Seeds, size: Sizes, seconds: float,
                 tracer: Optional[Tracer] = None) -> Unit:
    """Closed-loop zipf reads and writes over the asyncio wire server."""
    patches = Patches()
    counters: Dict[str, int] = {}
    try:
        if tracer is not None:
            instrument_classes(tracer, patches, counters)
        started = time.perf_counter()
        env, transport, clients = _mixed_setup(seeds, size, tracer, patches)
        setup_s = time.perf_counter() - started
        bytes_before = env.device.stats.bytes_written
        stored = env.key_set
        ranked = list(env.keys)
        np.random.Generator(np.random.PCG64([seeds.zipf, 7])).shuffle(ranked)
        misses = _miss_keys(stored, 1024, seeds.zipf)
        scripts = [_ClientScript(i, ranked, misses, size, seeds.zipf)
                   for i in range(size.clients)]
        logs = [_ClientLog() for _ in clients]
        if tracer is not None:
            instrument_store(tracer, patches, env)
            for client in clients:
                instrument_client(tracer, patches, client)
        miss_set = set(misses)
        started = time.perf_counter()
        deadline = started + seconds
        with _span(tracer, "workload"):
            threads = [threading.Thread(
                target=_run_client, name=f"perfbench-client-{i}",
                args=(client, script, miss_set, deadline, log))
                for i, (client, script, log)
                in enumerate(zip(clients, scripts, logs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall_s = time.perf_counter() - started
        server_stats = clients[0].stats()
    finally:
        patches.undo()

    # Read-back: every acknowledged write, with its client's last value.
    attempted = failed = 0
    problems: List[str] = []
    for client, log in zip(clients, logs):
        attempted += log.reads + log.writes
        failed += log.failed
        problems.extend(log.problems[:5])
        keys = list(log.acked)
        for lo in range(0, len(keys), size.batch):
            chunk = keys[lo:lo + size.batch]
            responses = client.get_many(OWNER_USER, chunk)
            for key, response in zip(chunk, responses):
                attempted += 1
                if response.status is not Status.OK or \
                        response.value != log.acked[key]:
                    failed += 1
                    problems.append(f"read-back of {key.hex()} is stale")
    counts = store_counts(env, bytes_before)
    user_bytes = sum(log.keys_written for log in logs) * (
        KEY_WIDTH + size.value_size)
    counts.update({
        "compactions_run": server_stats.compactions_run,
        "background_cycles": server_stats.background_cycles,
        "silent_bytes_written": counters.get("silent_bytes_written", 0),
        "user_bytes_written": user_bytes,
    })
    _mixed_teardown(env, transport, clients)
    if env.db.leaked_pins:
        failed += 1
        problems.append(f"{env.db.leaked_pins} leaked version pins")
    ops = sum(log.keys_read + log.keys_written for log in logs)
    return Unit(setup_s=setup_s, wall_s=wall_s, ops=ops,
                attempted=max(attempted, 1), failed=failed, counts=counts,
                latencies_s={
                    "get": [t for log in logs for t in log.get_s],
                    "put": [t for log in logs for t in log.put_s],
                },
                problems=problems)
