"""Point-in-time snapshot views over the MVCC version set.

A :class:`SnapshotView` is the reader's half of DESIGN.md section 12: the
read kernel (:mod:`repro.lsm.read`) bound to a pinned context.  It pins
the tree's current version, freezes the memtable, and serves every read
surface of :class:`~repro.lsm.db.LSMTree` over **its own** simulated
clock, RNG streams, page cache and stats.  Two consequences:

* Concurrent writes, flushes and background compactions cannot change
  what the snapshot observes — the pinned version's tables cannot move,
  retire, or unmap under it (each table's mapped region is additionally
  pinned for the snapshot's lifetime).
* Queries against the snapshot cannot perturb the live store's
  determinism channels (clock charges, cost/device RNG draws, cache LRU
  state), and vice versa.  Snapshot ``k`` of a store seeded ``s`` draws
  from ``make_rng(s, "snapshot-k")`` streams, so two runs that take the
  same snapshot of identically-built stores observe **bit-identical**
  simulated time — the property the attack-equivalence suite asserts
  while a writer and background compaction churn the live tree.

The view carries the read surface :class:`~repro.system.service.KVService`
and the attack oracles consume, so ``KVService(db=tree.snapshot())`` runs
the full attack machinery against a frozen store with no further changes.
Range reads share the pinned version's sorted view with the live tree for
free, so the range side channel is identically frozen; writes still
require the live tree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import DBClosedError
from repro.common.rng import make_rng
from repro.lsm.memtable import Entry
from repro.lsm.read import ReadKernel
from repro.lsm.version import Version
from repro.storage.clock import SimClock
from repro.storage.page_cache import PageCache


class FrozenMemTable:
    """The memtable as it was at snapshot time (tombstones included).

    Serves the read kernel's memtable hook: ``get`` is the frozen dict's
    own lookup (no wrapper call on the point-read hot path), and
    ``items_from`` sorts lazily on the first range read.
    """

    __slots__ = ("get", "_entries", "_sorted")

    def __init__(self, items: Iterable[Tuple[bytes, Entry]]) -> None:
        self._entries = dict(items)
        self.get = self._entries.get
        self._sorted: Optional[List[Tuple[bytes, Entry]]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def items_from(self, low: bytes) -> Iterator[Tuple[bytes, Entry]]:
        """Entries with key >= ``low`` in key order.

        ``(low,)`` compares below ``(low, entry)``, so ``bisect_left``
        lands on the first key >= low.
        """
        items = self._sorted
        if items is None:
            items = self._sorted = sorted(self._entries.items())
        return iter(items[bisect_left(items, (low,)):])


class SnapshotView(ReadKernel):
    """A consistent, self-timed, read-only view of one LSM-tree version."""

    def __init__(self, db, snapshot_id: int) -> None:
        from repro.lsm.db import DBStats
        self._db = db
        self.id = snapshot_id
        self.options = db.options
        self.versions = db.versions
        self.version = db.versions.pin()
        self._memtable = FrozenMemTable(db._memtable.items())
        self.clock = SimClock()
        self.clock.advance_to(db.clock.now_us)
        rng = make_rng(db.options.seed, f"snapshot-{snapshot_id}")
        self._cost_rng = rng.spawn("costs")
        self._device = db.device.reader_view(self.clock, rng.spawn("device"))
        self.cache = PageCache(self._device, db.options.page_cache_bytes,
                               decoded_capacity=db.options.decoded_cache_entries)
        self.stats = DBStats()
        # Pin every table's mapping: a region doomed by a later retire or
        # by db.close() must not unmap while this snapshot can read it.
        self._regions = []
        for table in self.version.all_tables():
            region = table.reader.region
            if region is not None and not region.closed:
                region.pin()
                self._regions.append(region)
        self._closed = False

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the version pin and every region pin (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for region in self._regions:
            region.unpin()
        self._regions = []
        # A snapshot left open across db.close() was already counted as a
        # leak and force-released there; only unpin while the db lives.
        if not self._db._closed:
            self.versions.unpin(self.version)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("operation on closed SnapshotView")
        if self._db._closed:
            raise DBClosedError("snapshot outlived its closed LSMTree")

    # ------------------------------------------------------ read-kernel hooks

    def _acquire_version(self) -> Version:
        """The snapshot's version, pinned once for its whole lifetime."""
        return self.version

    def _release_version(self, version: Version) -> None:
        """No-op: the pin is released by :meth:`close`."""

    # ------------------------------------------------------------------ intro

    def describe(self) -> dict:
        """Summary of the frozen state (reports, debugging)."""
        return {
            "snapshot": self.id,
            "levels": self.version.describe(),
            "memtable_entries": len(self._memtable),
            "total_tables": self.version.total_tables(),
        }
