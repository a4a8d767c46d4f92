"""Remote-attacker network model tests."""

import pytest

from repro.common.errors import ConfigError
from repro.system.network import (
    DATACENTER,
    LAN,
    LOCALHOST,
    WAN,
    NetworkModel,
    RemoteClient,
    remote_service,
)
from repro.workloads.datasets import ATTACKER_USER


class TestModel:
    def test_presets_ordered_by_noise(self):
        assert LOCALHOST.jitter_us <= LAN.jitter_us <= DATACENTER.jitter_us \
            <= WAN.jitter_us

    def test_invalid_model(self):
        with pytest.raises(ConfigError):
            NetworkModel(rtt_us=-1.0, jitter_us=0.0)


class TestRemoteClient:
    def test_localhost_transparent(self, surf_env):
        client = RemoteClient(surf_env.service, LOCALHOST)
        key = surf_env.keys[0]
        direct, direct_us = surf_env.service.get_timed(ATTACKER_USER, key)
        remote, remote_us = client.get_timed(ATTACKER_USER, key)
        assert remote.status == direct.status
        # zero RTT, zero jitter: only the server time shows
        assert remote_us > 0

    def test_rtt_added(self, surf_env):
        client = RemoteClient(surf_env.service, LAN)
        _, observed = client.get_timed(ATTACKER_USER, b"\x01" * 5)
        assert observed >= LAN.rtt_us

    def test_jitter_is_one_sided(self, surf_env):
        client = RemoteClient(surf_env.service, WAN)
        observations = [client.get_timed(ATTACKER_USER, b"\x02" * 5)[1]
                        for _ in range(50)]
        assert all(o >= WAN.rtt_us for o in observations)
        assert len(set(round(o, 3) for o in observations)) > 10  # noisy

    def test_responses_unchanged(self, surf_env):
        client = RemoteClient(surf_env.service, WAN)
        assert (client.get(ATTACKER_USER, surf_env.keys[0]).status
                == surf_env.service.get(ATTACKER_USER,
                                        surf_env.keys[0]).status)

    def test_client_noise_does_not_touch_server_clock(self, surf_env):
        # WAN jitter draws from the client's stream; the simulated server
        # time advances only by server work.
        client = RemoteClient(surf_env.service, WAN)
        before = surf_env.clock.now_us
        client.get_timed(ATTACKER_USER, b"\x03" * 5)
        server_elapsed = surf_env.clock.now_us - before
        assert server_elapsed < WAN.rtt_us  # RTT never hit the server clock


class TestAdapter:
    def test_adapter_surface(self, surf_env):
        adapted = remote_service(surf_env.service, LAN, seed=4)
        assert adapted.db is surf_env.db
        response, elapsed = adapted.get_timed(ATTACKER_USER, b"\x04" * 5)
        assert elapsed >= LAN.rtt_us
        assert adapted.get(ATTACKER_USER, b"\x04" * 5).status == response.status

    def test_prober_for_batch_matches_in_process(self, surf_env):
        # Suffix extension primes a probe plan and asks the service for a
        # plan-replaying getter; through the network model that must give
        # exactly the statuses the in-process service does.
        from repro.core import IdealizedOracle
        from repro.common.rng import make_rng
        rng = make_rng(8, "remote-prober")
        keys = surf_env.keys[:40] + [rng.random_bytes(5) for _ in range(200)]
        oracle = IdealizedOracle(remote_service(surf_env.service, LAN,
                                                seed=3), ATTACKER_USER)
        probe = oracle.prober_for(keys)
        try:
            remote = [probe(key) for key in keys]
        finally:
            oracle.release_plan()
        local = [surf_env.service.get(ATTACKER_USER, key).status
                 for key in keys]
        assert remote == local
        assert oracle.counter.total == len(keys)

    def test_timing_attack_survives_lan_noise(self, surf_env):
        # The paper's remote-attacker assumption: with LAN-grade jitter the
        # learning phase + 4-query averaging still separates the modes.
        from repro.core import learn_cutoff, TimingOracle
        from repro.common.rng import make_rng
        adapted = remote_service(surf_env.service, LAN, seed=5)
        learning = learn_cutoff(adapted, ATTACKER_USER, 5, num_samples=6000,
                                background=surf_env.background)
        oracle = TimingOracle(adapted, ATTACKER_USER,
                              cutoff_us=learning.cutoff_us,
                              background=surf_env.background)
        rng = make_rng(6, "lan-probe")
        probes = [rng.random_bytes(5) for _ in range(800)]
        verdicts = oracle.classify(probes)
        truth = [surf_env.db.filters_pass(p) for p in probes]
        agreement = sum(v == t for v, t in zip(verdicts, truth)) / len(probes)
        assert agreement > 0.97
