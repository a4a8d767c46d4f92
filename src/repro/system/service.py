"""The high-level system of the threat model (paper section 4).

A :class:`KVService` fronts the LSM-tree like an object store or database
would: users issue requests through it (never touching the store
directly), and it checks the per-key ACL embedded in each value before
releasing data.  Crucially — and this is the property prefix siphoning
exploits — the service must *read the value to learn the ACL*, so the
key-value store performs the full filter-then-maybe-I/O dance for every
request, authorized or not, and the store's response time shows through in
the service's response time.

``distinguish_unauthorized`` controls whether clients can tell "no such
key" from "no permission".  Systems that distinguish (most REST APIs: 404
vs 403) enable full-key extraction; systems that do not still leak
prefixes.

The service is one request pipeline.  Its core (store, ACL check,
counters) sits under a tuple of :class:`ServiceStage` objects — the rate
limiter, the detector feed, the online defense — each implementing at
most three hooks (admit, observe, noise).  Every request method is
defined once, here, and the batch and ``_timed`` variants are derived from
the same hooks, so a batch read is the scalar loop by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ServiceError
from repro.lsm.db import LSMTree
from repro.lsm.read import ProbePlan
from repro.system.acl import Acl, pack_value, unpack_value
from repro.system.responses import Response, Status

#: Simulated cost of request parsing/dispatch in the service layer.
REQUEST_OVERHEAD_US = 1.0
#: Simulated cost of the ACL check on a value.
ACL_CHECK_US = 0.3


@dataclass
class ServiceStats:
    """Request counters by outcome.

    Increments go through :meth:`record` under a lock: ``+=`` on an
    attribute is a read-modify-write, and the threaded wire server (and
    any other concurrent caller) would otherwise lose counts.
    """

    requests: int = 0
    ok: int = 0
    not_found: int = 0
    unauthorized: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, outcome: str) -> None:
        """Atomically count one request with the given outcome field."""
        with self._lock:
            self.requests += 1
            setattr(self, outcome, getattr(self, outcome) + 1)


class KVService:
    """ACL-enforcing request pipeline over an :class:`LSMTree`.

    A bare service has no stages: it is the core alone, and each request
    method runs exactly the core's charges.  :class:`ServiceStage`
    subclasses stack hooks on top (see that class for the order).

    Every request method exists in one form.  ``X_timed`` is ``X`` with
    admission first and then a ``clock.measure()`` window around the
    core; ``X`` is ``X_timed`` without the time.  Admission stalls land
    before the window, so they never show in a measured time; noise is
    charged on the get path right after the key's window and added to its
    measured time.  ``get_many`` is the ``getter`` loop and
    ``get_many_timed`` the ``get_timed`` loop, so per key they admit,
    read, observe and add noise exactly as scalar calls do.
    """

    def __init__(self, db: LSMTree, distinguish_unauthorized: bool = True) -> None:
        self.db = db
        self.distinguish_unauthorized = distinguish_unauthorized
        self.stats = ServiceStats()
        self._bind(())

    def _bind(self, stages: Tuple["ServiceStage", ...]) -> None:
        """Install ``stages`` (outermost first) and their hooks in order."""
        #: The pipeline's stages, outermost first (empty for a bare service).
        self.stages = stages
        self._admits = tuple(stage.admit for stage in stages
                             if stage.admit is not None)
        self._observers = tuple(stage.observe for stage in reversed(stages)
                                if stage.observe is not None)
        self._noisers = tuple(stage.noise for stage in reversed(stages)
                              if stage.noise is not None)

    # ----------------------------------------------------------------- hooks

    def _admit(self, user: int, count: int = 1) -> None:
        """Admit ``count`` requests, outermost stage first."""
        for admit in self._admits:
            for _ in range(count):
                admit(user)

    def _observe(self, user: int, keys: Iterable[bytes],
                 status: Status) -> None:
        """Report one outcome per key, innermost stage first."""
        observers = self._observers
        if observers:
            for key in keys:
                for observe in observers:
                    observe(user, key, status)

    def _settle(self, user: int, key: bytes, status: Status) -> float:
        """Get path: observe the outcome, then charge (and return) noise."""
        self._observe(user, (key,), status)
        noise = 0.0
        for charge in self._noisers:
            noise += charge(user, status)
        return noise

    def _record_acl(self, user: int, acl: Optional[Acl]) -> Acl:
        """The ACL a write by ``user`` stores (``user``'s by default)."""
        record_acl = acl or Acl(owner=user)
        if not record_acl.allows_read(user) and record_acl.owner != user:
            raise ServiceError("cannot create an object its owner cannot read")
        return record_acl

    # ----------------------------------------------------------------- writes

    def put(self, user: int, key: bytes, payload: bytes,
            acl: Optional[Acl] = None) -> Response:
        """Store an object owned by ``user`` (or an explicit ACL)."""
        return self.put_timed(user, key, payload, acl)[0]

    def put_timed(self, user: int, key: bytes, payload: bytes,
                  acl: Optional[Acl] = None) -> Tuple[Response, float]:
        """``put`` plus the simulated response time the client observes."""
        self._admit(user)
        with self.db.clock.measure() as stopwatch:
            self.db.put(key, pack_value(self._record_acl(user, acl), payload))
        self._observe(user, (key,), Status.OK)
        return Response(Status.OK), stopwatch.elapsed_us

    def put_many(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                 acl: Optional[Acl] = None) -> List[Response]:
        """Batch store through the LSM's group-commit write path.

        All records share one ACL (``user``'s by default) and reach the
        store via :meth:`~repro.lsm.db.LSMTree.put_many` — one WAL append
        for the whole batch, state identical to a loop of :meth:`put`.
        """
        return self.put_many_timed(user, items, acl)[0]

    def put_many_timed(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                       acl: Optional[Acl] = None
                       ) -> Tuple[List[Response], float]:
        """``put_many`` plus the simulated elapsed time of the whole batch.

        Admission is paid once per record — group commit amortizes the
        store's WAL traffic, not the user's request budget — and each
        record's outcome is observed after the one commit.
        """
        items = list(items)
        self._admit(user, len(items))
        with self.db.clock.measure() as stopwatch:
            record_acl = self._record_acl(user, acl)
            self.db.put_many([(key, pack_value(record_acl, payload))
                              for key, payload in items])
        self._observe(user, (key for key, _ in items), Status.OK)
        return [Response(Status.OK)] * len(items), stopwatch.elapsed_us

    def delete(self, user: int, key: bytes) -> Response:
        """Delete an object; only its owner may.

        Like :meth:`get`, the ACL lives in the value, so the service must
        read it first — an unauthorized delete still walks the full
        filter-then-maybe-I/O read path and leaks the same timing.
        """
        return self.delete_timed(user, key)[0]

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """``delete`` plus the simulated response time."""
        self._admit(user)
        db = self.db
        with db.clock.measure() as stopwatch:
            db.charge_cost(REQUEST_OVERHEAD_US)
            stored = db.get(key)
            if stored is None:
                self.stats.record("not_found")
                response = Response(self._failure(Status.NOT_FOUND))
            else:
                db.charge_cost(ACL_CHECK_US)
                acl, _ = unpack_value(stored)
                if acl.owner != user:
                    self.stats.record("unauthorized")
                    response = Response(self._failure(Status.UNAUTHORIZED))
                else:
                    db.delete(key)
                    self.stats.record("ok")
                    response = Response(Status.OK)
        self._observe(user, (key,), response.status)
        return response, stopwatch.elapsed_us

    # ------------------------------------------------------------------ reads

    def get(self, user: int, key: bytes) -> Response:
        """Read an object, enforcing its ACL.

        The failure statuses follow the threat model: NOT_FOUND vs
        UNAUTHORIZED when the system distinguishes them, a single FAILED
        otherwise.
        """
        return self.get_timed(user, key)[0]

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """``get`` plus the simulated response time the client observes."""
        self._admit(user)
        db = self.db
        with db.clock.measure() as stopwatch:
            db.charge_cost(REQUEST_OVERHEAD_US)
            stored = db.get(key)
            if stored is None:
                self.stats.record("not_found")
                response = Response(self._failure(Status.NOT_FOUND))
            else:
                db.charge_cost(ACL_CHECK_US)
                acl, payload = unpack_value(stored)
                if not acl.allows_read(user):
                    self.stats.record("unauthorized")
                    response = Response(self._failure(Status.UNAUTHORIZED))
                else:
                    self.stats.record("ok")
                    response = Response(Status.OK, payload)
        return response, (stopwatch.elapsed_us
                          + self._settle(user, key, response.status))

    def getter(self, user: int, plan: Optional[ProbePlan] = None
               ) -> Callable[[bytes], Response]:
        """Fast-path request closure for batch callers.

        Returns a ``key -> Response`` callable observationally equivalent
        to :meth:`get` (same charges, same stats, same RNG draws, same
        stage hooks) with the per-request attribute lookups hoisted.  This
        is the single point :meth:`get_many` and the attack oracles'
        probe fast path build on.  A bare service returns the core
        closure itself.  ``plan`` is an optional
        :class:`~repro.lsm.read.ProbePlan` from the store's batched-probe
        prepass; it changes wall-clock only, never the simulated trace.
        """
        get_one = self._core_getter(user, plan)
        if not self.stages:
            return get_one
        admit = self._admit
        settle = self._settle

        def staged_get(key: bytes) -> Response:
            admit(user)
            response = get_one(key)
            settle(user, key, response.status)
            return response

        return staged_get

    def _core_getter(self, user: int, plan: Optional[ProbePlan]
                     ) -> Callable[[bytes], Response]:
        """The core of :meth:`getter`: charges, read, ACL check, stats."""
        db = self.db
        db_get = db.getter(plan)
        record = self.stats.record
        charge = db.charge_cost
        not_found_status = self._failure(Status.NOT_FOUND)
        unauthorized_status = self._failure(Status.UNAUTHORIZED)

        def get_one(key: bytes) -> Response:
            charge(REQUEST_OVERHEAD_US)
            stored = db_get(key)
            if stored is None:
                record("not_found")
                return Response(not_found_status)
            charge(ACL_CHECK_US)
            acl, payload = unpack_value(stored)
            if not acl.allows_read(user):
                record("unauthorized")
                return Response(unauthorized_status)
            record("ok")
            return Response(Status.OK, payload)

        return get_one

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Batch read: ``[self.get(user, k) for k in keys]``, amortized."""
        keys = list(keys)
        plan = self.db.probe_plan(keys)
        try:
            get_one = self.getter(user, plan)
            return [get_one(key) for key in keys]
        finally:
            if plan is not None:
                plan.release()

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Batch ``get_timed``: per-key (response, simulated elapsed us).

        The per-key times and every stage effect are identical to what a
        loop of :meth:`get_timed` calls would observe; only the wall-clock
        cost of issuing 10^5-10^6 attack queries drops.  The batched
        filter-probe prepass runs before the first request is dispatched
        — it is pure, so the per-key charges and RNG draws are untouched.
        """
        keys = list(keys)
        plan = self.db.probe_plan(keys)
        try:
            clock = self.db.clock
            out: List[Tuple[Response, float]] = []
            append = out.append
            if not self.stages:
                get_one = self.getter(user, plan)
                for key in keys:
                    start = clock.now_us
                    response = get_one(key)
                    append((response, clock.now_us - start))
                return out
            get_one = self._core_getter(user, plan)
            admit = self._admit
            settle = self._settle
            for key in keys:
                admit(user)
                start = clock.now_us
                response = get_one(key)
                append((response, clock.now_us - start
                        + settle(user, key, response.status)))
            return out
        finally:
            if plan is not None:
                plan.release()

    def range_query(self, user: int, low: bytes, high: bytes,
                    limit: Optional[int] = None):
        """Range read returning only the entries ``user`` may see.

        Stages observe one outcome per range, keyed by ``low``: OK when
        anything came back, NOT_FOUND when the range looked empty.
        """
        return self.range_query_timed(user, low, high, limit=limit)[0]

    def range_query_timed(self, user: int, low: bytes, high: bytes,
                          limit: Optional[int] = None):
        """``range_query`` plus the client-observed response time.

        Range responses only list entries the user may read, but the
        *response time* still reflects the store's range-filter decisions
        and I/O — the side channel the range-descent attack exploits.
        """
        self._admit(user)
        db = self.db
        out = []
        with db.clock.measure() as stopwatch:
            for key, stored in db.range_query(low, high, limit=None):
                acl, payload = unpack_value(stored)
                db.charge_cost(ACL_CHECK_US)
                if acl.allows_read(user):
                    out.append((key, payload))
                    if limit is not None and len(out) >= limit:
                        break
        self._observe(user, (low,),
                      Status.OK if out else Status.NOT_FOUND)
        return out, stopwatch.elapsed_us

    def _failure(self, status: Status) -> Status:
        return status if self.distinguish_unauthorized else Status.FAILED


class ServiceStage(KVService):
    """One stage of a request pipeline, and the pipeline it tops.

    ``ServiceStage(service)`` is a new pipeline: ``service``'s stages with
    this object as the new outermost one, over the same core (``db``,
    ``distinguish_unauthorized`` and :class:`ServiceStats`).  ``service``
    itself is left untouched and keeps serving without this stage.

    A subclass keeps its own state and overrides at most these hooks
    (``None`` means the stage has no such hook):

    * ``admit(user)`` — runs before a request's timing window, once per
      request (once per record of a batch write), outermost stage first.
      Whatever it charges to the clock is never part of a measured time.
    * ``observe(user, key, status)`` — runs after each key's outcome,
      innermost stage first.  Ranges report ``low``; writes report each
      record.
    * ``noise(user, status) -> float`` — get path only, after the
      observations: charges extra simulated µs to the clock and returns
      them, and they are added to the key's measured time.
    """

    admit: Optional[Callable[[int], None]] = None
    observe: Optional[Callable[[int, bytes, Status], None]] = None
    noise: Optional[Callable[[int, Status], float]] = None

    def __init__(self, service: KVService) -> None:
        self.service = service
        self.db = service.db
        self.distinguish_unauthorized = service.distinguish_unauthorized
        self.stats = service.stats
        self._bind((self,) + service.stages)
