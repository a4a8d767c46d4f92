"""Request rate limiting — the paper's system-level mitigation (section 11).

"A system can rate limit user requests, thereby slowing down prefix
siphoning attacks.  This approach is viable only if the system is not
meant to handle a high rate of normal, benign requests."

The limiter is a token bucket per user over simulated time: a request
that exceeds the sustained rate stalls until a token accrues, which
inflates the *attack duration* without touching per-query timing — the
response-time side channel stays fully intact, only the attacker's
throughput collapses.  The mitigation bench quantifies exactly that:
unchanged keys-extracted, massively inflated simulated wall-clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigError
from repro.system.service import KVService, ServiceStage


@dataclass(frozen=True)
class RateLimitPolicy:
    """Token-bucket parameters."""

    requests_per_second: float
    burst: int = 32

    def __post_init__(self) -> None:
        if self.requests_per_second <= 0:
            raise ConfigError("rate must be positive")
        if self.burst < 1:
            raise ConfigError("burst must be at least 1")


class _Bucket:
    __slots__ = ("tokens", "last_us")

    def __init__(self, burst: int, now_us: float) -> None:
        self.tokens = float(burst)
        self.last_us = now_us


class RateLimitedService(ServiceStage):
    """A pipeline stage that stalls over-rate users.

    ``RateLimitedService(service, policy)`` is ``service`` with a token
    bucket per user as its outermost admission stage, so it drops into any
    experiment as the service.  Every request pays admission before its
    timing window — one token per key of a batch read and per record of a
    batch write, so no batch API is a rate-limit bypass.  Stalls advance
    the simulated clock but never show in a measured response time: the
    client is queued before dispatch, so the side channel stays intact
    while the attacker's throughput collapses.  The cost the mitigation
    imposes is *time*, not errors.
    """

    def __init__(self, service: KVService, policy: RateLimitPolicy) -> None:
        super().__init__(service)
        self.policy = policy
        self._buckets: Dict[int, _Bucket] = {}
        self._user_policies: Dict[int, RateLimitPolicy] = {}
        #: Serializes bucket mutation and the stall counters: admission is
        #: read-modify-write state, and concurrent callers (the threaded
        #: wire server, or any multi-threaded embedder) would otherwise
        #: race on token accounting and lose stall counts.
        self._lock = threading.Lock()
        self.total_stall_us = 0.0
        self.stalled_requests = 0

    # ------------------------------------------------------------- throttling

    def set_user_policy(self, user: int,
                        policy: Optional[RateLimitPolicy]) -> None:
        """Override (or, with ``None``, restore) one user's policy.

        The escalation hook for the online defense: a flagged user can be
        squeezed to a far lower sustained rate without touching anyone
        else's budget.  The user's bucket is reset so the new burst cap
        applies immediately rather than after their old allowance drains.
        """
        with self._lock:
            if policy is None:
                self._user_policies.pop(user, None)
            else:
                self._user_policies[user] = policy
            self._buckets.pop(user, None)

    def user_policy(self, user: int) -> RateLimitPolicy:
        """The policy currently governing ``user``."""
        with self._lock:
            return self._user_policies.get(user, self.policy)

    def admit(self, user: int) -> None:
        """Stage hook: take one token, stalling the clock until one accrues."""
        clock = self.db.clock
        with self._lock:
            policy = self._user_policies.get(user, self.policy)
            bucket = self._buckets.get(user)
            if bucket is None:
                bucket = _Bucket(policy.burst, clock.now_us)
                self._buckets[user] = bucket
            rate = policy.requests_per_second / 1e6  # tokens per us
            elapsed = clock.now_us - bucket.last_us
            bucket.tokens = min(float(policy.burst),
                                bucket.tokens + elapsed * rate)
            bucket.last_us = clock.now_us
            if bucket.tokens < 1.0:
                stall = (1.0 - bucket.tokens) / rate
                clock.charge(stall)
                self.total_stall_us += stall
                self.stalled_requests += 1
                bucket.tokens = 1.0
                bucket.last_us = clock.now_us
            bucket.tokens -= 1.0
