"""The read kernel: one point- and range-read path over a read context.

The ``get`` path is the attack surface: it searches top-down (memtable,
L0 newest-first, then one table per deeper level) and consults each
table's in-memory filter before reading any data block, so a key rejected
by every filter is answered without I/O — the timing signal prefix
siphoning exploits.  Range reads probe each overlapping table's range
filter the same way, then merge the survivors.

:class:`ReadKernel` implements every read surface exactly once.  It runs
against a *read context* that the binding class supplies:

* ``options``, ``stats`` (a ``DBStats``), ``clock``, ``cache`` and
  ``_cost_rng`` — where charges, counters and block reads go;
* ``_memtable`` — the memtable hook: ``get(key)`` returns the entry (value
  or tombstone) or None, ``items_from(low)`` yields sorted
  ``(key, entry)`` pairs.  Re-read on every call, because a live flush
  swaps the memtable out;
* ``_acquire_version()`` / ``_release_version(version)`` — the version
  hook: pin the version a read walks, and unpin it afterwards;
* ``version`` — the current version, read without a pin by the
  charge-free ground-truth probes (``filters_pass``);
* ``_check_open()`` — raise :class:`~repro.common.errors.DBClosedError`
  once the context is closed.

:class:`~repro.lsm.db.LSMTree` binds the live context: its current
memtable, and a fresh version pin per read (per plan for a batch).
:class:`~repro.lsm.snapshot.SnapshotView` binds a frozen one: a dict
memtable and its fixed pinned version, whose release is a no-op.

Two fallbacks remain, each chosen from observable state and never from an
option: a batch with no filter to probe gets no :class:`ProbePlan` (the
scalar probes run), and a version with no sorted view — empty, or holding
a table that cannot be mapped — is read through the classic k-way merge.
Both choices are invisible in simulated time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lsm.iterator import DBIterator, merge_entries
from repro.lsm.sorted_view import ensure_view
from repro.lsm.sstable import SSTable
from repro.lsm.version import Version


class ProbePlan:
    """Memoized pure filter verdicts for one batch of point queries.

    Built by the :meth:`ReadKernel.probe_plan` prepass, which batches the
    probes per filter (vectorized Bloom hashing, shared-prefix LOUDS
    traversal) *without* touching stats, clock, or RNG.  The replay —
    the ordinary per-key search loop — then substitutes a dictionary
    lookup for each scalar ``may_contain`` call and records stats only
    for verdicts it actually consumes, so simulated time, verdicts and
    every counter are bit-identical to the scalar probes.  A missing
    entry (``None``) means "compute scalar", never "False".

    The plan **pins** the version it was computed against: concurrent
    flushes and background compactions install new versions without
    disturbing the batch, and the pinned version's tables cannot retire
    under it.  Batch drivers call :meth:`release` (idempotent) when the
    batch is done; un-released plans are reclaimed at ``db.close()`` and
    counted as leaks.
    """

    __slots__ = ("_verdicts", "candidates", "version", "_release")

    def __init__(self, version: Version,
                 release: Callable[[Version], None]) -> None:
        self._verdicts: Dict[int, Dict[bytes, bool]] = {}
        #: key -> tuple of candidate SSTables, memoized by the prepass so
        #: the replay need not repeat the version walk.  Valid for the
        #: batch only: the pinned version cannot change under the batch.
        self.candidates: Dict[bytes, tuple] = {}
        #: the pinned version the prepass walked.
        self.version = version
        self._release: Optional[Callable[[Version], None]] = release

    def release(self) -> None:
        """Unpin the plan's version (idempotent)."""
        release, self._release = self._release, None
        if release is not None:
            release(self.version)

    def add(self, filt, keys: List[bytes], verdicts: List[bool]) -> None:
        """Memoize ``filt``'s pure verdicts for ``keys``."""
        table = self._verdicts.setdefault(id(filt), {})
        for key, verdict in zip(keys, verdicts):
            table[key] = verdict

    def lookup(self, filt, key: bytes) -> Optional[bool]:
        """Memoized verdict, or None when the prepass did not cover it."""
        table = self._verdicts.get(id(filt))
        if table is None:
            return None
        return table.get(key)


def _bounded(iterator, high: bytes):
    """Cut a sorted (key, entry) stream at the first key past ``high``."""
    for key, entry in iterator:
        if key > high:
            return
        yield key, entry


class ReadKernel:
    """Every read surface of the store, over the binding class's context."""

    def charge_cost(self, base_us: float) -> None:
        """Charge an in-memory cost with the cost model's relative jitter.

        Used for every charge on the query path so the fast (memory-only)
        response mode has realistic spread (see ``CostModel.jitter``).
        """
        jitter = self.options.costs.jitter
        if jitter:
            base_us *= max(0.1, self._cost_rng.gauss(1.0, jitter))
        self.clock.charge(base_us)

    # ----------------------------------------------------------- point reads

    def get(self, key: bytes) -> Optional[bytes]:
        """Point query; returns the value or None.

        Charges the simulated clock for every step, making the response
        time (via ``clock.measure()``) the attacker-visible signal.
        """
        self._check_open()
        costs = self.options.costs
        stats = self.stats
        stats.gets += 1
        self.charge_cost(costs.get_base_cost_us + costs.memtable_lookup_cost_us)
        entry = self._memtable.get(key)
        if entry is not None:
            stats.memtable_hits += 1
            return entry.value
        version = self._acquire_version()
        try:
            for table in version.candidates_for_key(key):
                if table.filter is not None:
                    stats.filter_checks += 1
                    self.charge_cost(costs.filter_query_cost_us)
                    if not table.filter.may_contain(key):
                        stats.filter_negatives += 1
                        continue
                stats.table_reads += 1
                entry = table.reader.get(key, self.cache, costs)
                if entry is not None:
                    return entry.value
            return None
        finally:
            self._release_version(version)

    def get_timed(self, key: bytes) -> Tuple[Optional[bytes], float]:
        """``get`` plus its simulated response time in microseconds."""
        with self.clock.measure() as stopwatch:
            value = self.get(key)
        return value, stopwatch.elapsed_us

    def probe_plan(self, keys: Iterable[bytes],
                   include_memtable_hits: bool = False
                   ) -> Optional[ProbePlan]:
        """Pure batched-probe prepass for a batch of point queries.

        Collects, per filter on the batch's search paths, the unique keys
        the scalar loop could probe it with, and computes their verdicts
        through each filter's batch probe (:meth:`Filter.probe_many` —
        vectorized Bloom hashing, shared-prefix LOUDS traversal).  Touches
        no stats, clock, or RNG: the verdicts are memoized for the replay
        to consume in the scalar path's own order.  Keys currently in the
        memtable are skipped (their gets never reach a filter) unless
        ``include_memtable_hits`` — :meth:`filters_pass_many` probes
        filters regardless of the memtable.

        Returns None when no filter on the batch's paths needs probing.
        """
        self._check_open()
        version = self._acquire_version()
        memtable_get = self._memtable.get
        candidates_for_key = version.candidates_for_key
        groups: Dict[int, Tuple[object, List[bytes]]] = {}
        key_candidates: Dict[bytes, tuple] = {}
        seen = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if not include_memtable_hits and memtable_get(key) is not None:
                continue
            tables = tuple(candidates_for_key(key))
            key_candidates[key] = tables
            for table in tables:
                filt = table.filter
                if filt is None:
                    continue
                entry = groups.get(id(filt))
                if entry is None:
                    groups[id(filt)] = entry = (filt, [])
                entry[1].append(key)
        if not groups:
            self._release_version(version)
            return None
        plan = ProbePlan(version, self._release_version)
        plan.candidates = key_candidates
        for filt, filt_keys in groups.values():
            plan.add(filt, filt_keys, filt.probe_many(filt_keys))
        return plan

    def getter(self, plan: Optional[ProbePlan] = None):
        """Fast-path point-read closure for batch callers.

        Returns a ``key -> Optional[bytes]`` callable observationally
        equivalent to :meth:`get` — same simulated charges drawn from the
        same RNG streams, same stats — with the per-call attribute lookups
        hoisted out of the loop.  The attack loops issue 10^5-10^6 gets per
        experiment; this is where that Python overhead is amortized.

        With a :class:`ProbePlan`, a covered key walks the plan's memoized
        candidate tables and takes its filter verdicts from the memo; the
        consumed verdicts are recorded into the filter's stats exactly as
        ``may_contain`` would have.  A key the plan did not cover (a
        memtable hit at prepass time that a flush has since moved into a
        table) pins the current version, as the no-plan path does.
        """
        self._check_open()
        costs = self.options.costs
        stats = self.stats
        cache = self.cache
        acquire = self._acquire_version
        release = self._release_version
        base_cost = costs.get_base_cost_us + costs.memtable_lookup_cost_us
        filter_cost = costs.filter_query_cost_us
        jitter = costs.jitter
        gauss = self._cost_rng.gauss
        clock_charge = self.clock.charge
        plan_lookup = plan.lookup if plan is not None else None
        plan_candidates = (plan.candidates.get if plan is not None
                           else lambda _key: None)

        def get_one(key: bytes) -> Optional[bytes]:
            stats.gets += 1
            if jitter:
                clock_charge(base_cost * max(0.1, gauss(1.0, jitter)))
            else:
                clock_charge(base_cost)
            # The memtable is re-read per call: flushes swap it out.
            entry = self._memtable.get(key)
            if entry is not None:
                stats.memtable_hits += 1
                return entry.value
            pinned = None
            tables = plan_candidates(key)
            if tables is None:
                pinned = acquire()
                tables = pinned.candidates_for_key(key)
            try:
                for table in tables:
                    filt = table.filter
                    if filt is not None:
                        stats.filter_checks += 1
                        if jitter:
                            clock_charge(
                                filter_cost * max(0.1, gauss(1.0, jitter)))
                        else:
                            clock_charge(filter_cost)
                        if plan_lookup is not None:
                            passed = plan_lookup(filt, key)
                            if passed is None:
                                passed = filt.may_contain(key)
                            else:
                                filt.stats.record_point(passed)
                        else:
                            passed = filt.may_contain(key)
                        if not passed:
                            stats.filter_negatives += 1
                            continue
                    stats.table_reads += 1
                    entry = table.reader.get(key, cache, costs)
                    if entry is not None:
                        return entry.value
                return None
            finally:
                if pinned is not None:
                    release(pinned)

        return get_one

    def get_many(self, keys: Iterable[bytes]) -> List[Optional[bytes]]:
        """Batch point query: ``[self.get(k) for k in keys]``, amortized.

        Identical simulated-time behaviour to the equivalent ``get`` loop
        (the batch API only removes real-world Python overhead; the
        probe-plan prepass is pure and the replay preserves every charge,
        draw, and counter).
        """
        keys = list(keys)
        plan = self.probe_plan(keys)
        try:
            get_one = self.getter(plan)
            return [get_one(key) for key in keys]
        finally:
            if plan is not None:
                plan.release()

    def get_many_timed(self, keys: Iterable[bytes]
                       ) -> List[Tuple[Optional[bytes], float]]:
        """Batch ``get_timed``: per-key (value, simulated elapsed us)."""
        keys = list(keys)
        plan = self.probe_plan(keys)
        try:
            get_one = self.getter(plan)
            clock = self.clock
            out: List[Tuple[Optional[bytes], float]] = []
            append = out.append
            for key in keys:
                start = clock.now_us
                value = get_one(key)
                append((value, clock.now_us - start))
            return out
        finally:
            if plan is not None:
                plan.release()

    # ----------------------------------------------------------- range reads

    def _plan_range_sources(self, version: Version, low: bytes,
                            high: Optional[bytes],
                            bound: Optional[bytes] = None) -> List[SSTable]:
        """Charged filter-probe prepass of a range read, in merge order.

        Walks ``version``'s overlapping tables level by level, consults
        each range-capable filter (charging the probe cost and counting
        stats), and returns the tables the read must actually merge.
        Shared by the sorted-view and classic merges, so the probe side
        channel cannot depend on which one runs.  ``high=None``
        (open-ended cursor) skips the probes and selects tables by
        ``bound`` instead.
        """
        costs = self.options.costs
        stats = self.stats
        if bound is None:
            bound = high
        probe = high is not None
        active: List[SSTable] = []
        append = active.append
        table_reads = 0
        overlapping = version.overlapping
        for level in range(self.options.max_levels):
            for table in overlapping(level, low, bound):
                if probe:
                    filt = table.range_filter
                    if filt is not None:
                        stats.filter_checks += 1
                        self.charge_cost(costs.filter_query_cost_us)
                        if not filt.may_contain_range(low, high):
                            stats.filter_negatives += 1
                            continue
                table_reads += 1
                append(table)
        stats.table_reads += table_reads
        return active

    def _merged(self, version: Version, active: List[SSTable], low: bytes,
                high: Optional[bytes]):
        """Merged ``(key, entry)`` stream of the memtable and ``active``.

        Runs over the version's sorted view, built lazily on first use
        (charge-free — key maps decode straight off the tables' mapped
        regions).  A version without a view — empty, or holding a table
        that cannot be mapped — takes the classic k-way merge.  Both read
        the same blocks in the same order.  ``high=None`` leaves the
        stream unbounded (cursors apply their own bound).
        """
        memtable = self._memtable.items_from(low)
        view = ensure_view(version, self.options.build_threads, self.stats)
        if view is not None:
            self.stats.sorted_view_seeks += 1
            return view.walk(active, memtable, low, high, self.cache)
        sources = [memtable]
        sources.extend(table.reader.iterate_from(low, self.cache)
                       for table in active)
        if high is not None:
            sources = [_bounded(source, high) for source in sources]
        return merge_entries(sources)

    def range_query(self, low: bytes, high: bytes,
                    limit: Optional[int] = None) -> List[Tuple[bytes, bytes]]:
        """All pairs with ``low <= key <= high`` (inclusive), in key order.

        Uses each table's range filter (when available) to skip tables
        whose filter proves the intersection empty — the optimization that
        motivated range filters (section 2.2) — then merges the survivors
        (see :meth:`_merged`).  The consumption loop hoists the per-step
        charge exactly as :meth:`charge_cost` computes it.
        """
        self._check_open()
        if low > high:
            return []
        costs = self.options.costs
        # Scans read blocks lazily across the merge loop, so the version
        # stays pinned for the whole query.
        version = self._acquire_version()
        try:
            self.stats.range_queries += 1
            self.charge_cost(costs.range_seek_cost_us)
            active = self._plan_range_sources(version, low, high)
            merged = self._merged(version, active, low, high)
            next_cost = costs.range_next_cost_us
            jitter = costs.jitter
            gauss = self._cost_rng.gauss
            clock_charge = self.clock.charge
            out: List[Tuple[bytes, bytes]] = []
            append = out.append
            for key, entry in merged:
                if jitter:
                    clock_charge(next_cost * max(0.1, gauss(1.0, jitter)))
                else:
                    clock_charge(next_cost)
                if entry.is_tombstone:
                    continue
                append((key, entry.value))
                if limit is not None and len(out) >= limit:
                    break
            return out
        finally:
            self._release_version(version)

    def scan(self, low: bytes, high: Optional[bytes] = None,
             limit: Optional[int] = None) -> List[Tuple[bytes, bytes]]:
        """Prefix-anchored scan: everything from ``low`` through its prefix.

        ``high=None`` does **not** mean "skip filter pruning": a sound
        range filter can never prune a truly open-ended scan (any
        overlapping table's ``max_key`` is a stored key >= ``low``, so
        the filter must pass), but it *can* prune the prefix range the
        caller almost always means.  So an omitted bound derives the
        inclusive bound ``low + 0xff * 64`` — every key extending ``low``
        — and the filters are consulted as usual.  For a genuinely
        unbounded cursor use :meth:`iterator`.
        """
        if high is None:
            high = low + b"\xff" * 64
        return self.range_query(low, high, limit=limit)

    def iterator(self, low: bytes = b"", high: Optional[bytes] = None):
        """Forward cursor over ``[low, high]`` (RocksDB-iterator analogue).

        Uses range filters to skip tables whose filters prove the bound
        range empty (only when ``high`` is given — an open-ended cursor
        has no range to test; see :meth:`scan` for the prefix-bounded
        alternative).  Each step charges the range-iteration cost.  The
        cursor holds its version until it is exhausted or closed.
        """
        self._check_open()
        costs = self.options.costs
        self.charge_cost(costs.range_seek_cost_us)
        effective_high = high if high is not None else b"\xff" * 64
        version = self._acquire_version()
        try:
            active = self._plan_range_sources(version, low, high,
                                              bound=effective_high)
            merged = self._merged(version, active, low, None)
        except BaseException:
            self._release_version(version)
            raise
        return DBIterator(
            merged, high=high,
            on_step=lambda: self.charge_cost(costs.range_next_cost_us),
            on_close=lambda: self._release_version(version))

    # ------------------------------------------------------- attack-side APIs

    def filters_pass(self, key: bytes) -> bool:
        """Ground-truth filter decision for ``key`` across the search path.

        This is the "internal debugging counter" oracle of section 10.2.2:
        True iff a ``get`` for ``key`` would read at least one table (some
        filter passes, or some candidate table has no filter).  Charges no
        simulated time and performs no I/O.
        """
        self._check_open()
        for table in self.version.candidates_for_key(key):
            if table.filter is None or table.filter.may_contain(key):
                return True
        return False

    def filters_pass_many(self, keys: Iterable[bytes]) -> List[bool]:
        """Batch :meth:`filters_pass`: one batched probe per filter.

        Exactly ``[self.filters_pass(k) for k in keys]`` — same verdicts,
        same short-circuit filter-stats accounting (a key's later filters
        are not probed, and not recorded, once one passes).  Unlike the
        get path this ignores the memtable, so a plan covers every key.
        """
        self._check_open()
        keys = list(keys)
        plan = self.probe_plan(keys, include_memtable_hits=True)
        if plan is None:
            return [self.filters_pass(key) for key in keys]
        try:
            lookup = plan.lookup
            candidates = plan.candidates
            out: List[bool] = []
            append = out.append
            for key in keys:
                passed_any = False
                for table in candidates[key]:
                    filt = table.filter
                    if filt is None:
                        passed_any = True
                        break
                    passed = lookup(filt, key)
                    if passed is None:
                        passed = filt.may_contain(key)
                    else:
                        filt.stats.record_point(passed)
                    if passed:
                        passed_any = True
                        break
                append(passed_any)
            return out
        finally:
            plan.release()

    def range_filters_pass(self, low: bytes, high: bytes) -> bool:
        """Ground-truth range-filter decision for ``[low, high]``.

        The range-query analogue of :meth:`filters_pass`: True iff a
        ``range_query(low, high)`` would read at least one table.  Used by
        the idealized range-descent attack (the range-query attack the
        paper's section 11 anticipates).
        """
        self._check_open()
        if low > high:
            return False
        version = self.version
        for level in range(self.options.max_levels):
            for table in version.overlapping(level, low, high):
                filt = table.range_filter
                if filt is None or filt.may_contain_range(low, high):
                    return True
        return False
