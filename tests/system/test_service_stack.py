"""The service stack as one request pipeline: golden scalar digests and
batch-vs-loop parity for every stage combination.

Each stack below (rate limiter, monitor, monitor over limiter, and the
online defense in every mode) is driven by one fixed script through the
scalar request surface; every observable — responses, per-call simulated
µs, the final clock, ServiceStats, stall counters, detector verdicts and
defense counters — is compared against ``tests/golden/service_stack.json``.
Those digests were recorded from the facade-per-layer implementation that
the pipeline replaced, under ``PYTHONHASHSEED`` 0 and 4242 (both equal).

The parity tests then hold the batch surface to the scalar loop: a
``get_many``, a ``get_many_timed`` or a ``getter`` closure over the same
guessing flood must leave exactly the state a loop of scalar calls does —
including the limiter stalls a flag raised mid-batch imposes.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.system.acl import Acl
from repro.system.defense import (
    DefendedService,
    DefensePolicy,
    build_defended_service,
)
from repro.system.detector import MonitoredService
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.workloads import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)

from golden import assert_golden

#: A limiter tight enough that a guessing flood stalls.
LIMIT = RateLimitPolicy(requests_per_second=2000.0, burst=32)
FLOOD = 1024

STACKS = {
    "rl": lambda svc: RateLimitedService(svc, LIMIT),
    "mon": lambda svc: MonitoredService(svc),
    "mon_rl": lambda svc: MonitoredService(RateLimitedService(svc, LIMIT)),
    "defended_observe": lambda svc: build_defended_service(svc,
                                                           mode="observe"),
    "defended_throttle": lambda svc: build_defended_service(svc,
                                                            mode="throttle"),
    "defended_noise": lambda svc: build_defended_service(svc, mode="noise"),
    "defended_noise_rl": lambda svc: build_defended_service(
        RateLimitedService(svc, LIMIT), policy=DefensePolicy(mode="noise")),
}


def _env():
    """A fresh 300-key served store (fresh: stage state and clock mutate)."""
    return build_environment(DatasetConfig(
        num_keys=300, key_width=4, seed=5,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))


def _flood_keys():
    """FindFPK-shaped traffic: random guesses that essentially all miss."""
    rng = make_rng(9, "defense-guesses")
    return [rng.random_bytes(4) for _ in range(FLOOD)]


def _layers(service):
    """The facades of a stack, outermost first (through ``.service``)."""
    out = []
    while isinstance(service, (RateLimitedService, MonitoredService,
                               DefendedService)):
        out.append(service)
        service = service.service
    return out


def _state(env, stack):
    """Every observable a stack leaves behind, besides its responses."""
    layers = _layers(stack)
    stats = env.service.stats
    return {
        "clock": env.clock.now_us,
        "service_stats": (stats.requests, stats.ok, stats.not_found,
                          stats.unauthorized),
        "stalls": [(layer.stalled_requests, layer.total_stall_us)
                   for layer in layers
                   if isinstance(layer, RateLimitedService)],
        "verdicts": [[astuple(layer.detector.verdict(user))
                      for user in (ATTACKER_USER, OWNER_USER)]
                     for layer in layers
                     if not isinstance(layer, RateLimitedService)],
        "defense": [astuple(layer.defense_snapshot()) for layer in layers
                    if isinstance(layer, DefendedService)],
    }


def _response(response):
    return (response.status.name, response.value)


def _scalar_script(name):
    """Drive one stack through the scalar surface; return its observables."""
    env = _env()
    stack = STACKS[name](env.service)
    responses, times = [], []
    for key in _flood_keys():
        response, elapsed = stack.get_timed(ATTACKER_USER, key)
        responses.append(_response(response))
        times.append(elapsed)
    for user in (ATTACKER_USER, OWNER_USER):
        responses.append(_response(stack.get(user, env.keys[7])))
        for low, high in ((env.keys[10], env.keys[12]),
                          (b"\x00\x00\x00\x00", b"\x00\x00\x00\x10")):
            out, elapsed = stack.range_query_timed(user, low, high, limit=2)
            responses.append(out)
            times.append(elapsed)
        responses.append(stack.range_query(user, b"\x40", b"\x80", limit=3))
    responses.append(_response(stack.put(OWNER_USER, b"st:one", b"v1")))
    response, elapsed = stack.put_timed(OWNER_USER, b"st:two", b"v2",
                                        Acl(OWNER_USER, public_read=True))
    responses.append(_response(response))
    times.append(elapsed)
    items = [(b"st:batch:%02d" % i, b"b%d" % i) for i in range(12)]
    responses.append([_response(r)
                      for r in stack.put_many(OWNER_USER, items[:6])])
    batch, elapsed = stack.put_many_timed(OWNER_USER, items[6:])
    responses.append([_response(r) for r in batch])
    times.append(elapsed)
    responses.append(_response(stack.get(ATTACKER_USER, b"st:two")))
    responses.append(_response(stack.delete(ATTACKER_USER, b"st:one")))
    responses.append(_response(stack.delete(OWNER_USER, b"st:one")))
    responses.append(_response(stack.delete(OWNER_USER, b"st:absent")))
    response, elapsed = stack.delete_timed(OWNER_USER, b"st:batch:03")
    responses.append(_response(response))
    times.append(elapsed)
    observed = _state(env, stack)
    observed["responses"] = responses
    observed["times"] = times
    return observed


@pytest.mark.parametrize("name", sorted(STACKS))
def test_scalar_script_matches_golden(name):
    assert_golden("service_stack", name, _scalar_script(name))


# ------------------------------------------------------------------ parity


def _flood(name, form):
    """One guessing flood through ``form``; its observables."""
    env = _env()
    stack = STACKS[name](env.service)
    keys = _flood_keys()
    clock = env.clock
    times = None
    if form == "get":
        responses, times = [], []
        for key in keys:
            start = clock.now_us
            responses.append(stack.get(ATTACKER_USER, key))
            times.append(clock.now_us - start)
    elif form == "getter":
        get_one = stack.getter(ATTACKER_USER)
        responses, times = [], []
        for key in keys:
            start = clock.now_us
            responses.append(get_one(key))
            times.append(clock.now_us - start)
    elif form == "get_many":
        responses = stack.get_many(ATTACKER_USER, keys)
    elif form == "get_timed":
        timed = [stack.get_timed(ATTACKER_USER, key) for key in keys]
        responses = [response for response, _ in timed]
        times = [elapsed for _, elapsed in timed]
    else:
        timed = stack.get_many_timed(ATTACKER_USER, keys)
        responses = [response for response, _ in timed]
        times = [elapsed for _, elapsed in timed]
    observed = _state(env, stack)
    observed["responses"] = [_response(r) for r in responses]
    if times is not None:
        observed["times"] = times
    return observed


@pytest.mark.parametrize("name", sorted(STACKS))
@pytest.mark.parametrize("form,reference", [
    ("get_many_timed", "get_timed"),
    ("get_many", "get"),
    ("getter", "get"),
])
def test_batch_equals_scalar_loop(name, form, reference):
    batch = _flood(name, form)
    loop = _flood(name, reference)
    loop = {key: loop[key] for key in batch}
    for key in sorted(batch):
        assert batch[key] == loop[key], f"{name}/{form}: {key} diverged"
