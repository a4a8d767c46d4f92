"""Threaded TCP server fronting a :class:`~repro.system.service.KVService`.

Architecture (DESIGN.md section 7):

* an **acceptor** thread pushes accepted connections onto a bounded queue;
* a fixed pool of **worker** threads each own one connection at a time,
  reading frames, dispatching, and writing responses until the peer hangs
  up (bounded concurrency: connections beyond the pool wait in the queue
  and the kernel accept backlog);
* every service call happens under one **service lock** — the simulated
  store has a single :class:`~repro.storage.clock.SimClock`, so exactly one
  request may advance simulated time at a time.  Concurrency is therefore
  a *wall-clock/transport* phenomenon (framing, socket I/O, client-side
  work overlap), and each request's server-reported simulated response
  time is exactly what the serial in-process call would have measured;
* frames flagged ``FLAG_ORDERED`` additionally pass an :class:`OrderedGate`
  that admits them in per-stream sequence order, pinning the *execution
  order* of a concurrent client's batches to the order the client chose —
  the mechanism behind the parallel attack driver's serial-identical
  simulated timeline.

Shutdown is graceful by default: stop accepting, let in-flight requests
finish and their responses flush, then close.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import (
    ConfigError,
    CorruptionError,
    OrderTimeoutError,
    ProtocolError,
    ReproError,
    StorageError,
    TransientIOError,
    VersionMismatchError,
)
from repro.server import protocol
from repro.server.protocol import ErrorCode, Frame, Opcode
from repro.storage.background import BackgroundLoad
from repro.system.defense import DefendedService
from repro.system.ratelimit import RateLimitedService


@dataclass(frozen=True)
class ServerConfig:
    """Server knobs."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Listen backlog handed to the kernel.
    backlog: int = 16
    #: Worker threads == maximum concurrently served connections.
    workers: int = 8
    #: Seconds an ordered frame may wait for its turn before erroring.
    order_timeout_s: float = 10.0
    #: Seconds ``stop(graceful=True)`` waits for in-flight requests.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("server needs at least one worker")
        if self.backlog < 1:
            raise ConfigError("backlog must be at least 1")
        if self.order_timeout_s <= 0 or self.drain_timeout_s <= 0:
            raise ConfigError("timeouts must be positive")


class OrderedGate:
    """Admits ordered frames in per-stream (nonce) sequence order.

    Streams number their frames 0, 1, 2, ... contiguously; a frame whose
    turn has not come blocks until its predecessors complete.  Stream state
    is bounded: least-recently-used streams are forgotten past a cap (a
    forgotten stream's next frame would block and time out — acceptable
    for the short-lived streams the attack driver creates).  Recency is
    refreshed on every ``admit``/``complete``, so a busy long-lived stream
    survives arbitrary churn from one-shot streams.
    """

    DEFAULT_MAX_STREAMS = 64

    def __init__(self, timeout_s: float,
                 max_streams: int = DEFAULT_MAX_STREAMS) -> None:
        if max_streams < 1:
            raise ConfigError("gate needs room for at least one stream")
        self._timeout_s = timeout_s
        self._max_streams = max_streams
        self._cond = threading.Condition()
        # nonce -> next admissible seq, in least-recently-touched order
        # (dicts preserve insertion order; _touch re-inserts at the end).
        self._next: dict = {}

    def _touch(self, nonce: int) -> None:
        """Refresh ``nonce``'s recency, evicting the LRU stream if full."""
        if nonce in self._next:
            self._next[nonce] = self._next.pop(nonce)
        elif len(self._next) >= self._max_streams:
            self._next.pop(next(iter(self._next)))

    def admit(self, nonce: int, seq: int) -> None:
        """Block until ``seq`` is the stream's turn."""
        deadline = time.monotonic() + self._timeout_s
        with self._cond:
            self._touch(nonce)
            while self._next.setdefault(nonce, 0) != seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OrderTimeoutError(
                        f"ordered frame seq={seq} timed out waiting for "
                        f"seq={self._next.get(nonce)} of stream {nonce:#x}"
                    )
                self._cond.wait(remaining)

    def complete(self, nonce: int) -> None:
        """Mark the admitted frame done, releasing its successor."""
        with self._cond:
            self._touch(nonce)
            self._next[nonce] = self._next.get(nonce, 0) + 1
            self._cond.notify_all()


def collect_stats(service, background: Optional[BackgroundLoad] = None
                  ) -> protocol.StatsSnapshot:
    """Aggregate a STATS snapshot over a service pipeline.

    The request counters are the pipeline core's; the stall counters are
    summed over its rate-limiting stages and the decision counters over
    its defense stages.  Shared by the threaded and asyncio servers.
    """
    stats = getattr(service, "stats", None)
    stages = getattr(service, "stages", ())
    limiters = [stage for stage in stages
                if isinstance(stage, RateLimitedService)]
    defenses = [stage.defense_snapshot() for stage in stages
                if isinstance(stage, DefendedService)]
    eviction = background.eviction_wait_us() if background is not None else 0.0
    db = getattr(service, "db", None)
    compactor = (getattr(db, "_bg_compactor", None)
                 or getattr(db, "_compactor", None))
    background_thread = getattr(db, "_background", None)
    dbstats = getattr(db, "stats", None)
    return protocol.StatsSnapshot(
        sim_now_us=service.db.clock.now_us,
        requests=stats.requests if stats else 0,
        ok=stats.ok if stats else 0,
        not_found=stats.not_found if stats else 0,
        unauthorized=stats.unauthorized if stats else 0,
        eviction_wait_us=eviction,
        stalled_requests=sum(stage.stalled_requests for stage in limiters),
        total_stall_us=sum(stage.total_stall_us for stage in limiters),
        flagged_users=sum(defense.flagged_users for defense in defenses),
        throttle_escalations=sum(defense.escalations
                                 for defense in defenses),
        noise_injections=sum(defense.noise_injections
                             for defense in defenses),
        compactions_run=compactor.compactions_run if compactor else 0,
        background_cycles=(background_thread.cycles
                           if background_thread is not None else 0),
        range_queries=dbstats.range_queries if dbstats else 0,
        sorted_view_seeks=dbstats.sorted_view_seeks if dbstats else 0,
        view_rebuild_segments=(dbstats.view_rebuild_segments
                               if dbstats else 0),
    )


def _response_frame(opcode: int, request_id: int, payload: bytes) -> Frame:
    return Frame(opcode=opcode, request_id=request_id, payload=payload,
                 flags=protocol.FLAG_RESPONSE)


def error_frame(request_id: int, code: int, message: str) -> Frame:
    """An ERROR response frame (shared by both server cores)."""
    return Frame(opcode=Opcode.ERROR, request_id=request_id,
                 payload=protocol.encode_error(code, message),
                 flags=protocol.FLAG_RESPONSE)


def map_dispatch_error(request_id: int, exc: ReproError) -> Frame:
    """Typed library error -> ERROR frame, one mapping for both servers.

    Order timeouts dispatch on the :class:`OrderTimeoutError` *type* — a
    decode error whose message merely mentions "timed out" stays a plain
    PROTOCOL error.
    """
    if isinstance(exc, OrderTimeoutError):
        return error_frame(request_id, ErrorCode.ORDER_TIMEOUT, str(exc))
    if isinstance(exc, ProtocolError):
        return error_frame(request_id, ErrorCode.PROTOCOL, str(exc))
    if isinstance(exc, TransientIOError):
        # Retryable: tell the client to reissue; nothing is wrong with
        # the store or the connection.
        return error_frame(request_id, ErrorCode.TRANSIENT, str(exc))
    if isinstance(exc, (CorruptionError, StorageError)):
        # Graceful degradation: a request that hit untrustworthy bytes
        # fails with a typed error, but the connection (and every key
        # that does not route through the bad data) keeps working.
        return error_frame(request_id, ErrorCode.CORRUPTION, str(exc))
    return error_frame(request_id, ErrorCode.INTERNAL, str(exc))


class RequestExecutor:
    """Opcode execution shared by the threaded and asyncio servers.

    Owns the service/background pair and the *admission point*: every
    service call happens under ``service_guard`` — a real lock for the
    threaded server (many workers, one SimClock), a no-op for the asyncio
    server (the single-threaded event loop already serializes, and
    :meth:`execute` never yields mid-request).
    """

    def __init__(self, service,
                 background: Optional[BackgroundLoad] = None,
                 service_guard=None) -> None:
        self.service = service
        self.background = background
        self.service_guard = (service_guard if service_guard is not None
                              else contextlib.nullcontext())

    def execute(self, opcode: int, payload: bytes, request_id: int) -> Frame:
        """Run one decoded request against the service, building the reply."""
        if opcode == Opcode.PING:
            return _response_frame(Opcode.PING, request_id, payload)
        if opcode == Opcode.GET:
            user, key = protocol.decode_get_request(payload)
            with self.service_guard:
                response, sim_us = self.service.get_timed(user, key)
            return _response_frame(Opcode.GET, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.GET_MANY:
            user, keys = protocol.decode_get_many_request(payload)
            with self.service_guard:
                results = self.service.get_many_timed(user, keys)
            return _response_frame(Opcode.GET_MANY, request_id,
                                   protocol.encode_get_many_response(results))
        if opcode == Opcode.PUT:
            user, key, value, flags = protocol.decode_put_request(payload)
            acl = self._put_acl(user, flags)
            with self.service_guard:
                response, sim_us = self.service.put_timed(user, key, value,
                                                          acl)
            return _response_frame(Opcode.PUT, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.PUT_MANY:
            user, items, flags = protocol.decode_put_many_request(payload)
            acl = self._put_acl(user, flags)
            with self.service_guard:
                responses, sim_us = self.service.put_many_timed(user, items,
                                                                acl)
            return _response_frame(
                Opcode.PUT_MANY, request_id,
                protocol.encode_put_many_response(len(responses), sim_us))
        if opcode == Opcode.DELETE:
            user, key = protocol.decode_delete_request(payload)
            with self.service_guard:
                response, sim_us = self.service.delete_timed(user, key)
            return _response_frame(Opcode.DELETE, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.STATS:
            return _response_frame(
                Opcode.STATS, request_id,
                protocol.encode_stats_response(
                    collect_stats(self.service, self.background)))
        if opcode == Opcode.WAIT:
            duration_us = protocol.decode_wait_request(payload)
            if self.background is None:
                return error_frame(
                    request_id, ErrorCode.UNSUPPORTED,
                    "server has no background load attached")
            with self.service_guard:
                self.background.run_for(duration_us)
                now = self.service.db.clock.now_us
            return _response_frame(Opcode.WAIT, request_id,
                                   protocol.encode_wait_response(now))
        return error_frame(request_id, ErrorCode.UNSUPPORTED,
                           f"opcode {opcode} is not servable")

    @staticmethod
    def _put_acl(user: int, flags: int):
        from repro.system.acl import Acl
        return Acl(owner=user,
                   public_read=bool(flags & protocol.PUT_FLAG_PUBLIC_READ))


def _read_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF mid-message."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Frame:
    """Read one complete frame from a stream socket.

    Raises ``EOFError`` on a clean close between frames and
    :class:`ProtocolError` (or a subclass) on anything malformed.
    """
    header = _read_exact(sock, protocol.HEADER_BYTES)
    frame, length = protocol.decode_header(header)
    payload = _read_exact(sock, length) if length else b""
    return Frame(opcode=frame.opcode, request_id=frame.request_id,
                 payload=payload, flags=frame.flags)


class KVWireServer:
    """Serves the wire protocol over TCP (or any attached stream socket).

    ``service`` is anything with the :class:`KVService` surface
    (``get_timed`` / ``get_many_timed`` / ``db``) — a bare service, a
    :class:`~repro.system.ratelimit.RateLimitedService`, or a test double.
    ``background`` enables the WAIT opcode (cache-churn simulation
    control); without it WAIT answers UNSUPPORTED.
    """

    def __init__(self, service, config: Optional[ServerConfig] = None,
                 background: Optional[BackgroundLoad] = None) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.background = background
        self._service_lock = threading.Lock()
        self._executor = RequestExecutor(service, background,
                                         service_guard=self._service_lock)
        self._gate = OrderedGate(self.config.order_timeout_s)
        self._listener: Optional[socket.socket] = None
        self._threads: list = []
        self._connections: "queue.Queue" = queue.Queue()
        self._open_socks: set = set()
        self._open_lock = threading.Lock()
        self._closing = threading.Event()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._started = False

    # --------------------------------------------------------------- lifecycle

    def start(self, listen: bool = True) -> None:
        """Spawn the worker pool (and, by default, the TCP acceptor)."""
        if self._started:
            raise ConfigError("server already started")
        self._started = True
        if listen:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(self.config.backlog)
            self._listener = listener
            acceptor = threading.Thread(target=self._accept_loop,
                                        name="kv-acceptor", daemon=True)
            acceptor.start()
            self._threads.append(acceptor)
        for i in range(self.config.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"kv-worker-{i}", daemon=True)
            worker.start()
            self._threads.append(worker)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise ConfigError("server is not listening")
        return self._listener.getsockname()[:2]

    def attach(self, sock: socket.socket) -> None:
        """Serve an already-connected stream socket (loopback transport)."""
        if self._closing.is_set():
            sock.close()
            return
        self._connections.put(sock)

    def stop(self, graceful: bool = True) -> None:
        """Shut down: optionally drain in-flight requests first."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if graceful:
            deadline = time.monotonic() + self.config.drain_timeout_s
            with self._inflight_cond:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cond.wait(remaining)
        # Unblock workers parked in recv() or on the connection queue.
        with self._open_lock:
            open_now = list(self._open_socks)
        for sock in open_now:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for _ in range(self.config.workers):
            self._connections.put(None)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)

    def __enter__(self) -> "KVWireServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------- loops

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.attach(sock)

    def _worker_loop(self) -> None:
        while True:
            sock = self._connections.get()
            if sock is None:
                return
            try:
                self._serve_connection(sock)
            finally:
                with self._open_lock:
                    self._open_socks.discard(sock)
                try:
                    sock.close()
                except OSError:
                    pass

    def _serve_connection(self, sock: socket.socket) -> None:
        with self._open_lock:
            self._open_socks.add(sock)
        while not self._closing.is_set():
            try:
                frame = read_frame(sock)
            except EOFError:
                return
            except VersionMismatchError as exc:
                self._send_error(sock, 0, ErrorCode.VERSION, str(exc))
                return
            except (ProtocolError, OSError) as exc:
                self._send_error(sock, 0, ErrorCode.PROTOCOL, str(exc))
                return
            with self._inflight_cond:
                if self._closing.is_set():
                    # Lost the race with stop(): refuse rather than start
                    # work the drain will not wait for.
                    self._inflight_cond.notify_all()
                    self._send_error(sock, frame.request_id,
                                     ErrorCode.SHUTTING_DOWN,
                                     "server is shutting down")
                    return
                self._inflight += 1
            try:
                # The response write counts as in-flight too: a graceful
                # stop() must not close the socket between dispatch and
                # the reply reaching the wire.
                response = self._dispatch(frame)
                try:
                    sock.sendall(protocol.encode_frame(response))
                except OSError:
                    return
            finally:
                with self._inflight_cond:
                    self._inflight -= 1
                    self._inflight_cond.notify_all()

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self, frame: Frame) -> Frame:
        try:
            return self._dispatch_inner(frame)
        except ReproError as exc:
            return map_dispatch_error(frame.request_id, exc)

    def _dispatch_inner(self, frame: Frame) -> Frame:
        payload = frame.payload
        token = None
        if frame.flags & protocol.FLAG_ORDERED:
            token, payload = protocol.split_order(payload)
        if token is not None:
            self._gate.admit(token.nonce, token.seq)
        try:
            out = self._executor.execute(frame.opcode, payload,
                                         frame.request_id)
        finally:
            if token is not None:
                self._gate.complete(token.nonce)
        return out

    # ----------------------------------------------------------------- helpers

    def _send_error(self, sock: socket.socket, request_id: int, code: int,
                    message: str) -> None:
        try:
            sock.sendall(protocol.encode_frame(
                error_frame(request_id, code, message)))
        except OSError:
            pass
