"""Online prefix-siphoning defense: detect, then respond, while serving.

:class:`~repro.system.detector.SiphoningDetector` only *scores*;
:class:`~repro.system.ratelimit.RateLimitedService` only *slows
everyone*.  This module closes the loop the paper's section 11 sketches:
a serving-path pipeline stage that feeds every request outcome to the detector
and, when a user's window trips it, responds — by escalation:

* ``observe`` — score and flag only (the audit-log posture).  Flags are
  visible through STATS; nothing about service behavior changes.
* ``throttle`` — squeeze the flagged user's token bucket to a penalty
  rate via :meth:`RateLimitedService.set_user_policy`.  The side channel
  stays intact but the attack's *duration* explodes; benign users keep
  their normal budget.
* ``noise`` — charge a seeded-random delay to every *negative* lookup
  the flagged user makes.  Prefix siphoning classifies keys by the
  timing gap between filter-negative and filter-positive misses; noise
  an order of magnitude above that gap drowns it, so the oracle's
  learned cutoff starts misclassifying.  Benign users (who mostly hit)
  are untouched.

Flags are sticky: a window that drains back below threshold after the
attacker slows down does not un-flag.  Verdicts are re-scored every
``check_every`` observations per user, not on every request — scoring
walks the whole window, observation is O(1).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.common.errors import ConfigError
from repro.system.detector import DetectorPolicy, SiphoningDetector
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import Status
from repro.system.service import KVService, ServiceStage

#: Escalation modes, in order of aggressiveness.
DEFENSE_MODES = ("observe", "throttle", "noise")


@dataclass(frozen=True)
class DefensePolicy:
    """Knobs for the online response."""

    #: One of :data:`DEFENSE_MODES`.
    mode: str = "observe"
    #: Observations between verdict re-scores per user.  Scoring walks
    #: the detector window; once per request would be quadratic.
    check_every: int = 64
    #: Token-bucket policy imposed on flagged users in ``throttle`` mode.
    penalty: RateLimitPolicy = field(
        default=RateLimitPolicy(requests_per_second=50.0, burst=4))
    #: Upper bound of the uniform per-lookup delay injected on flagged
    #: users' negative lookups in ``noise`` mode (simulated µs).  Sized
    #: to dwarf the filter-negative/positive timing gap (tens of µs).
    noise_max_us: float = 400.0
    #: Seed for the noise RNG — simulated time stays reproducible.
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.mode not in DEFENSE_MODES:
            raise ConfigError(
                f"defense mode must be one of {DEFENSE_MODES}, "
                f"got {self.mode!r}")
        if self.check_every < 1:
            raise ConfigError("check_every must be at least 1")
        if self.noise_max_us < 0:
            raise ConfigError("noise_max_us must be non-negative")


@dataclass(frozen=True)
class DefenseSnapshot:
    """Decision counters, as exposed through STATS."""

    flagged_users: int
    escalations: int
    noise_injections: int
    mode: str


def find_limiter(service: KVService) -> Optional[RateLimitedService]:
    """Outermost rate-limiting stage of ``service``'s pipeline, if any."""
    for stage in service.stages:
        if isinstance(stage, RateLimitedService):
            return stage
    return None


class DefendedService(ServiceStage):
    """A pipeline stage that fights back.

    Wraps any service pipeline (typically
    ``RateLimitedService(KVService)``); every request outcome — scalar or
    batch, read or write — feeds the detector through the ``observe``
    hook, and flagged users are punished per :class:`DefensePolicy`.  A
    flag raised mid-batch takes effect from the batch's next key, exactly
    as in a loop of scalar calls.  Thread-safe for the threaded wire
    server; single-threaded asyncio needs no extra care.

    Noise is charged to the simulated clock by the ``noise`` hook, right
    after the lookup's window, and is added to the lookup's measured
    time — exactly what a defending system's perturbed response time
    would look like to the attacker, and the clock delta a client sees
    includes it too.
    """

    def __init__(self, service: KVService,
                 policy: DefensePolicy = DefensePolicy(),
                 detector: Optional[SiphoningDetector] = None) -> None:
        self._limiter = find_limiter(service)
        if policy.mode == "throttle" and self._limiter is None:
            raise ConfigError(
                "throttle mode needs a RateLimitedService in the stack "
                "(see build_defended_service)")
        super().__init__(service)
        self.policy = policy
        self.detector = detector or SiphoningDetector()
        self._rng = random.Random(policy.seed)
        self._lock = threading.Lock()
        self._since_check: Dict[int, int] = {}
        self._flagged: Set[int] = set()
        self._escalations = 0
        self._noise_injections = 0

    # ------------------------------------------------------------- decisions

    def observe(self, user: int, key: bytes, status: Status) -> None:
        """Stage hook: feed the detector; flag (and maybe escalate)."""
        self.detector.observe(user, key, status)
        with self._lock:
            count = self._since_check.get(user, 0) + 1
            if count < self.policy.check_every or user in self._flagged:
                self._since_check[user] = count
                return
            self._since_check[user] = 0
        if not self.detector.verdict(user).flagged:
            return
        escalate = False
        with self._lock:
            if user not in self._flagged:
                self._flagged.add(user)
                escalate = (self.policy.mode == "throttle"
                            and self._limiter is not None)
                if escalate:
                    self._escalations += 1
        if escalate:
            self._limiter.set_user_policy(user, self.policy.penalty)

    def noise(self, user: int, status: Status) -> float:
        """Stage hook: charge (and return) noise for one lookup, maybe zero."""
        if self.policy.mode != "noise" or status is Status.OK:
            return 0.0
        with self._lock:
            if user not in self._flagged:
                return 0.0
            noise = self._rng.random() * self.policy.noise_max_us
            self._noise_injections += 1
        self.db.clock.charge(noise)
        return noise

    def flagged(self) -> Set[int]:
        """The sticky set of users the defense has flagged."""
        with self._lock:
            return set(self._flagged)

    def defense_snapshot(self) -> DefenseSnapshot:
        """Decision counters for STATS aggregation."""
        with self._lock:
            return DefenseSnapshot(
                flagged_users=len(self._flagged),
                escalations=self._escalations,
                noise_injections=self._noise_injections,
                mode=self.policy.mode,
            )


#: Permissive base limit inserted under throttle mode when the stack has
#: no limiter of its own: effectively unthrottled until escalation.
DEFAULT_BASE_LIMIT = RateLimitPolicy(requests_per_second=1e6, burst=4096)


def build_defended_service(service: KVService, mode: str = "observe",
                           policy: Optional[DefensePolicy] = None,
                           detector: Optional[SiphoningDetector] = None,
                           detector_policy: Optional[DetectorPolicy] = None,
                           base_limit: Optional[RateLimitPolicy] = None,
                           ) -> DefendedService:
    """Wrap ``service`` for online defense, completing the stack.

    ``throttle`` mode needs a per-user escalation lever; if the stack has
    no :class:`RateLimitedService`, one is inserted with ``base_limit``
    (default: permissive enough to be invisible to benign traffic).
    ``policy`` overrides ``mode`` when given.
    """
    policy = policy or DefensePolicy(mode=mode)
    if detector is None and detector_policy is not None:
        detector = SiphoningDetector(detector_policy)
    if policy.mode == "throttle" and find_limiter(service) is None:
        service = RateLimitedService(service,
                                     base_limit or DEFAULT_BASE_LIMIT)
    return DefendedService(service, policy=policy, detector=detector)
