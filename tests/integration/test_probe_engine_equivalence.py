"""Probe-engine equivalence: the batched filter path must be invisible.

The filter-probe engine (DESIGN.md section 10) is a wall-clock
optimization: a pure prepass computes a batch's filter verdicts through
vectorized/shared-prefix batch probes, and the scalar per-key loop
replays against the memo.  The attack's signal lives entirely in
*simulated* time, so everything observable — verdicts, per-query
latencies, extracted keys, per-stage query counts, per-filter stats,
DBStats, the final clock — must be exactly what the scalar probes give.

The full attacks (SuRF trie and LOUDS, PBF, idealized extension) are
checked against golden digests recorded while the engine could still be
switched off and both arms agreed (``tests/golden/probe_engine.json``).
The batch-vs-scalar tests need no record: both sides run today, on the
live tree and on a snapshot of it.
"""

import pytest
from golden import assert_golden

from repro.core import (
    AttackConfig,
    FineTimingOracle,
    IdealizedOracle,
    PbfAttackStrategy,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
    TimingOracle,
    learn_cutoff,
)
from repro.filters import PrefixBloomFilterBuilder, SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.system.service import KVService
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

WIDTH = 5


def build_surf_env(backend="trie", num_keys=4000):
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=WIDTH, seed=77,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8,
                                   backend=backend)))


def filter_stats(db):
    """Per-filter counter tuples in search-structure order."""
    return [(t.filter.stats.point_queries, t.filter.stats.positives)
            for level in db.version.levels for t in level
            if t.filter is not None]


def run_surf_attack(env, num_samples=1500, num_candidates=6000):
    learning = learn_cutoff(env.service, ATTACKER_USER, WIDTH,
                            num_samples=num_samples,
                            background=env.background)
    oracle = TimingOracle(env.service, ATTACKER_USER,
                          cutoff_us=learning.cutoff_us, rounds=3,
                          background=env.background, wait_us=100_000.0)
    strategy = SurfAttackStrategy(
        WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=78)
    result = PrefixSiphoningAttack(
        oracle, strategy,
        AttackConfig(key_width=WIDTH, num_candidates=num_candidates)).run()
    return learning, result


def attack_observables(result, env):
    """Everything the attack exposes, for the golden comparison."""
    return {"extracted": [e.key for e in result.extracted],
            "queries_by_stage": result.queries_by_stage,
            "sim_duration_us": result.sim_duration_us,
            "clock_us": env.clock.now_us,
            "filter_stats": filter_stats(env.db),
            "db_stats": env.db.stats.__dict__}


class TestSurfAttackEquivalence:
    @pytest.mark.parametrize("backend", ["trie", "louds"])
    def test_full_attack_identical_on_and_off(self, backend):
        env = build_surf_env(backend)
        learning, result = run_surf_attack(env)
        # Learning (cutoff and per-query latencies), disclosures,
        # accounting and simulated time; filter stats count only the
        # verdicts the replay consumed, never everything it computed.
        observed = attack_observables(result, env)
        observed["cutoff_us"] = learning.cutoff_us
        observed["samples"] = learning.samples
        assert_golden("probe_engine", f"surf_attack_{backend}", observed)


class TestPbfAttackEquivalence:
    def test_full_attack_identical_on_and_off(self):
        env = build_environment(DatasetConfig(
            num_keys=8000, key_width=4, seed=62,
            filter_builder=PrefixBloomFilterBuilder(prefix_len=3,
                                                    bits_per_key=18.0)))
        oracle = IdealizedOracle(env.service, ATTACKER_USER)
        strategy = PbfAttackStrategy(key_width=4, seed=63)
        scan = strategy.detect_prefix_length(oracle, min_len=2, max_len=3,
                                             samples_per_length=2000)
        result = PrefixSiphoningAttack(
            oracle, strategy,
            AttackConfig(key_width=4, num_candidates=15_000)).run()
        assert result.extracted  # the attack actually extracted keys
        observed = attack_observables(result, env)
        observed["detected"] = scan.detected
        assert_golden("probe_engine", "pbf_attack", observed)


@pytest.fixture(params=["db", "snapshot"])
def bind(request):
    """Bind an environment's reads to its live tree or to a snapshot."""
    snapshots = []

    def bind(env):
        if request.param == "db":
            return env.db
        snapshot = env.db.snapshot()
        snapshots.append(snapshot)
        return snapshot

    yield bind
    for snapshot in snapshots:
        snapshot.close()


class TestBatchPathEquivalence:
    def test_get_many_matches_scalar_gets(self, bind):
        env_batch = build_surf_env(num_keys=2500)
        env_scalar = build_surf_env(num_keys=2500)
        store_batch, store_scalar = bind(env_batch), bind(env_scalar)
        probes = []
        for i, stored in enumerate(env_batch.keys[::41]):
            probes.append(stored)
            probes.append(bytes([i % 251, 3 * i % 251, 9, 55, i % 17]))
        probes += probes[:25]  # duplicates must replay identically
        batched = KVService(store_batch).get_many_timed(ATTACKER_USER, probes)
        get_timed = KVService(store_scalar).get_timed
        scalar = [get_timed(ATTACKER_USER, key) for key in probes]
        assert [(r.status, t) for r, t in batched] \
            == [(r.status, t) for r, t in scalar]
        assert store_batch.clock.now_us == store_scalar.clock.now_us
        assert filter_stats(env_batch.db) == filter_stats(env_scalar.db)

    def test_filters_pass_many_matches_scalar_loop(self, bind):
        env_batch = build_surf_env(num_keys=2500)
        env_scalar = build_surf_env(num_keys=2500)
        store_batch, store_scalar = bind(env_batch), bind(env_scalar)
        probes = list(env_batch.keys[::29])
        probes += [bytes([i % 251, i % 13, 1, 2, 3]) for i in range(200)]
        probes += probes[:15]
        batched = store_batch.filters_pass_many(probes)
        scalar = [store_scalar.filters_pass(key) for key in probes]
        assert batched == scalar
        assert store_batch.clock.now_us == store_scalar.clock.now_us
        # Short-circuit accounting: later filters on a key's path are not
        # probed (nor recorded) once one passes — in both worlds.
        assert filter_stats(env_batch.db) == filter_stats(env_scalar.db)

    def test_fine_timing_batched_classify_matches_per_key_loop(self):
        env_batch = build_surf_env(num_keys=2500)
        env_loop = build_surf_env(num_keys=2500)
        keys = list(env_batch.keys[::37])
        keys += [bytes([i % 251, 7, i % 29, 4, 5]) for i in range(60)]

        oracle = FineTimingOracle(env_batch.service, ATTACKER_USER,
                                  cutoff_us=30.0, rounds=5)
        verdicts = oracle.classify(keys)

        # Reference: the per-key warm-then-average loop this replaced.
        rounds = 5
        reference = []
        ref_counter = 0
        for key in keys:
            ref_counter += rounds + 1
            timed = env_loop.service.get_many_timed(ATTACKER_USER,
                                                    [key] * (rounds + 1))
            total = sum(elapsed for _, elapsed in timed[1:])
            reference.append(total / rounds >= 30.0)

        assert verdicts == reference
        assert oracle.counter.total == ref_counter
        assert env_batch.clock.now_us == env_loop.clock.now_us
        assert filter_stats(env_batch.db) == filter_stats(env_loop.db)

    def test_extension_chunking_identical_on_and_off(self):
        # The buffered serial scan of extend_prefix must not change what
        # the idealized attack pays per prefix.
        env = build_surf_env(num_keys=4000)
        oracle = IdealizedOracle(env.service, ATTACKER_USER)
        strategy = SurfAttackStrategy(
            WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=81)
        result = PrefixSiphoningAttack(
            oracle, strategy,
            AttackConfig(key_width=WIDTH, num_candidates=8000)).run()
        observed = attack_observables(result, env)
        observed["queries_spent"] = [e.queries_spent
                                     for e in result.extracted]
        assert_golden("probe_engine", "extension_chunking", observed)
