"""In-memory span tracer and the wrappers that attach it to each layer.

Spans are recorded around calls into the public functions of the
``repro`` layers, from the benchmark's side: instance attributes are
replaced on objects the benchmark holds, and a few class attributes are
replaced for the duration of one traced run and restored afterwards.
The program under test is not modified.

Each span records its name, start and end (``perf_counter_ns``), its
parent span and a request id shared by every span of one request.  Spans
live in per-thread ``array`` buffers (no lock on the hot path) and are
written out once, when the run ends.

The wrappers only read the wall clock.  They never charge a ``SimClock``
and never draw from a simulation RNG, so a traced run produces the same
simulated outputs as an untraced one; the benchmark checks this by
comparing digests.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span ids are global: ``thread_slot << SLOT_SHIFT | index_in_thread``.
SLOT_SHIFT = 40
NO_PARENT = -1


class _Buffer:
    """One thread's spans, as parallel arrays."""

    __slots__ = ("slot", "start", "end", "name", "parent", "req", "stack",
                 "next_req")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.req = array("q")
        #: Open spans of this thread: (global id, request id).
        self.stack: List[Tuple[int, int]] = []
        self.next_req = 0


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        #: Client requests in flight, keyed by wire payload, so the server
        #: side can join the client's request (see :func:`instrument_client`).
        self.inflight: Dict[bytes, Tuple[int, int]] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def open(self, nid: int, parent: Optional[Tuple[int, int]] = None
             ) -> _Buffer:
        """Start a span; ``parent`` = (span id, request id) overrides the
        thread's own stack (used to join a request across threads)."""
        buf = self._buffer()
        if parent is None:
            if buf.stack:
                parent = buf.stack[-1]
            else:
                parent = (NO_PARENT, (buf.slot << SLOT_SHIFT) | buf.next_req)
                buf.next_req += 1
        sid = (buf.slot << SLOT_SHIFT) | len(buf.start)
        buf.start.append(time.perf_counter_ns())
        buf.end.append(0)
        buf.name.append(nid)
        buf.parent.append(parent[0])
        buf.req.append(parent[1])
        buf.stack.append((sid, parent[1]))
        return buf

    @staticmethod
    def close(buf: _Buffer) -> None:
        sid, _ = buf.stack.pop()
        buf.end[sid & ((1 << SLOT_SHIFT) - 1)] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        buf = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(buf)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        The body of :meth:`open`/:meth:`close`, inlined: this wrapper sits
        on paths called ~10^5-10^6 times per run.
        """
        nid = self.name_id(name)
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            index = len(buf.start)
            if stack:
                parent, req = stack[-1]
            else:
                parent = NO_PARENT
                req = (buf.slot << SLOT_SHIFT) | buf.next_req
                buf.next_req += 1
            stack.append(((buf.slot << SLOT_SHIFT) | index, req))
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.req.append(req)
            buf.end.append(0)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()

        return traced

    # -------------------------------------------------------------- export

    def spans(self) -> Dict[str, np.ndarray]:
        """All closed spans as global arrays (parents re-indexed)."""
        offsets: Dict[int, int] = {}
        total = 0
        for buf in self._buffers:
            offsets[buf.slot] = total
            total += len(buf.start)
        start = np.empty(total, dtype=np.int64)
        end = np.empty(total, dtype=np.int64)
        name = np.empty(total, dtype=np.int32)
        parent = np.empty(total, dtype=np.int64)
        req = np.empty(total, dtype=np.int64)
        thread = np.empty(total, dtype=np.int32)
        mask = (1 << SLOT_SHIFT) - 1
        slot_base = np.array([offsets[buf.slot] for buf in self._buffers],
                             dtype=np.int64)
        for buf in self._buffers:
            lo = offsets[buf.slot]
            hi = lo + len(buf.start)
            start[lo:hi] = np.frombuffer(buf.start, dtype=np.int64)
            end[lo:hi] = np.frombuffer(buf.end, dtype=np.int64)
            name[lo:hi] = np.frombuffer(buf.name, dtype=np.uint16)
            raw = np.frombuffer(buf.parent, dtype=np.int64)
            has_parent = raw >= 0
            glob = np.full(len(raw), NO_PARENT, dtype=np.int64)
            glob[has_parent] = (slot_base[raw[has_parent] >> SLOT_SHIFT]
                                + (raw[has_parent] & mask))
            parent[lo:hi] = glob
            req[lo:hi] = np.frombuffer(buf.req, dtype=np.int64)
            thread[lo:hi] = buf.slot
        closed = end >= start
        if not closed.all():
            raise RuntimeError("trace exported with spans still open")
        return {"start": start, "end": end, "name": name, "parent": parent,
                "req": req, "thread": thread}

    def write(self, path: str, spans: Dict[str, np.ndarray]) -> None:
        """Write the spans (``.npz``) and the name table (``.json``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path + ".npz", **spans)
        with open(path + ".names.json", "w") as out:
            json.dump(self.names, out)


# ------------------------------------------------------------------ analysis

def summarize(names: List[str], spans: Dict[str, np.ndarray]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, wall_s, self_s and per-call durations.

    ``wall`` and ``calls`` count only outermost spans of a name (a span
    nested under another span of the same name is part of it); ``self`` is
    a span's duration minus the part of it its child spans cover, summed
    over every span of the name.
    """
    start, end = spans["start"], spans["end"]
    name, parent = spans["name"], spans["parent"]
    n = len(start)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    kids = np.flatnonzero(has_parent)
    pidx = parent[kids]
    # A child's share of its parent, clipped to the parent's interval: a
    # child on another thread (the server side of a wire request) is not
    # nested in it by construction.
    covered = (np.minimum(end[kids], end[pidx])
               - np.maximum(start[kids], start[pidx])).clip(min=0)
    child_time = np.bincount(pidx, weights=covered.astype(np.float64),
                             minlength=n)
    self_time = (dur - child_time).clip(min=0)
    # Outermost-of-its-name flag: walk ancestors until the root.
    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        idx = np.flatnonzero(live)
        nested[idx] |= name[anc[idx]] == name[idx]
        anc[idx] = parent[anc[idx]]
    out: Dict[str, Dict[str, float]] = {}
    for nid, label in enumerate(names):
        sel = name == nid
        outer = sel & ~nested
        out[label] = {
            "calls": int(outer.sum()),
            "wall_s": float(dur[outer].sum() / 1e9),
            "self_s": float(self_time[sel].sum() / 1e9),
            "durations_s": dur[outer] / 1e9,
        }
    out["_threads"] = {
        int(t): float(self_time[spans["thread"] == t].sum() / 1e9)
        for t in np.unique(spans["thread"])
    }
    return out


# ----------------------------------------------------------------- patching

class Patches:
    """Attribute replacements undone in reverse order on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str) -> None:
        self.replace(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def instrument_classes(tracer: Tracer, patches: Patches,
                       counters: Dict[str, int]) -> None:
    """Class-level wrappers: layers whose objects the benchmark never holds
    (SSTable readers, filters, compactors, sorted views, silent devices)."""
    from repro.filters.base import Filter, RangeFilter
    from repro.lsm.compaction import Compactor
    from repro.lsm.sorted_view import SortedView
    from repro.lsm.sstable import SSTableReader
    from repro.server.tcp import RequestExecutor
    from repro.storage.device import DeviceView

    patches.wrap(tracer, SSTableReader, "get", "lsm.sstable_get")
    patches.wrap(tracer, Filter, "probe_many", "filters.probe_many")
    patches.wrap(tracer, RangeFilter, "probe_range_many", "filters.probe_many")
    patches.wrap(tracer, RangeFilter, "may_contain_range",
                 "filters.may_contain_range")
    patches.wrap(tracer, Compactor, "maybe_compact", "lsm.compaction")
    for attr in ("build", "evolve"):
        method = vars(SortedView)[attr]
        if isinstance(method, classmethod):
            traced = tracer.wrap("lsm.sorted_view.build", method.__func__)
            patches.replace(SortedView, attr, classmethod(traced))
        else:
            patches.wrap(tracer, SortedView, attr, "lsm.sorted_view.build")

    # Background compaction writes through a silent device view whose
    # stats are private; count its bytes at the view's write boundary.
    def counting(fn):
        @functools.wraps(fn)
        def counted(self, path, data):
            fn(self, path, data)
            counters["silent_bytes_written"] += len(data)
        return counted

    counters.setdefault("silent_bytes_written", 0)
    for attr in ("create_file", "append"):
        patches.replace(DeviceView, attr, counting(getattr(DeviceView, attr)))

    # Server side of a wire request: joined to the client's request span
    # through the payload the client registered (unique among in-flight
    # requests: each closed-loop client has one, tagged with its user).
    execute = RequestExecutor.execute
    nid = tracer.name_id("server.execute")
    inflight = tracer.inflight

    @functools.wraps(execute)
    def traced_execute(self, opcode, payload, request_id):
        buf = tracer.open(nid, inflight.get(bytes(payload)))
        try:
            return execute(self, opcode, payload, request_id)
        finally:
            tracer.close(buf)

    patches.replace(RequestExecutor, "execute", traced_execute)


def instrument_store(tracer: Tracer, patches: Patches, env) -> None:
    """Instance wrappers on one environment's service, store and cache."""
    service, db, cache = env.service, env.db, env.cache

    def closure_factory(owner, attr: str, name: str) -> None:
        make = getattr(owner, attr)

        @functools.wraps(make)
        def factory(*args, **kwargs):
            return tracer.wrap(name, make(*args, **kwargs))

        patches.replace(owner, attr, factory)

    # Order matters: the service's getter calls ``db.getter`` at build
    # time, so both factories are replaced before any reader exists.
    closure_factory(db, "getter", "lsm.get")
    closure_factory(service, "getter", "system.get")
    for attr in ("get", "get_timed"):
        patches.wrap(tracer, db, attr, "lsm.get")
        patches.wrap(tracer, service, attr, "system.get")
    for attr in ("get_many", "get_many_timed"):
        patches.wrap(tracer, service, attr, "system.get_many")
    for attr in ("range_query", "range_query_timed"):
        patches.wrap(tracer, service, attr, "system.range")
    for attr in ("put_many", "put_many_timed"):
        patches.wrap(tracer, service, attr, "system.put_many")
    patches.wrap(tracer, db, "probe_plan", "lsm.probe_plan")
    patches.wrap(tracer, db, "range_query", "lsm.range_query")
    patches.wrap(tracer, db, "put_many", "lsm.put_many")
    patches.wrap(tracer, db, "flush", "lsm.flush")
    for attr in ("read", "read_block", "read_decoded", "read_decoded_many"):
        patches.wrap(tracer, cache, attr, "storage.page_cache.read")
    patches.wrap(tracer, env.background, "run_for",
                 "storage.background.run_for")


def instrument_builder(tracer: Tracer, patches: Patches, builder) -> None:
    """Filter builds (bulk load, flushes and compactions share the builder)."""
    for attr in ("build", "build_batch"):
        patches.wrap(tracer, builder, attr, "filters.build")


def instrument_client(tracer: Tracer, patches: Patches, client) -> None:
    """Client side of each wire request, registered for the server join."""
    connection = client.connection
    request = connection.request
    nid = tracer.name_id("server.request")
    inflight = tracer.inflight

    @functools.wraps(request)
    def traced_request(opcode, payload=b"", order=None):
        buf = tracer.open(nid)
        key = bytes(payload)
        inflight[key] = buf.stack[-1]
        try:
            return request(opcode, payload, order)
        finally:
            inflight.pop(key, None)
            tracer.close(buf)

    patches.replace(connection, "request", traced_request)
