"""The asyncio listener: pipelining, batching, backpressure, shutdown.

One :class:`ServeListener` owns one listening socket and any number of
connections.  Each connection runs two coroutines:

- a **reader pump** that pulls frames off the socket into a bounded
  queue.  When the queue is full the pump stops reading — that is the
  whole backpressure mechanism: an unread socket fills the kernel
  buffer, TCP closes the window, and the client's writes stall until
  the server catches up.  Nothing is dropped and no memory grows.
- a **dispatch loop** that takes whatever frames have accumulated
  (up to ``max_batch``) and serves them as *one* unit: all the checks
  in the batch go down in a single ``check_many`` call, so a pipelined
  client pays one premise snapshot and one meter charge per batch
  rather than per request.  A serial client (one request in flight)
  degenerates naturally to batches of one — same code path, no mode
  switch.

The backend is called directly on the listener's event loop, and that
loop is the only thread of control that touches it: a batch is decoded,
checked and answered between two awaits, so nothing else observes
the backend mid-batch ("Concurrency model" in ``docs/serve.md``).

A batch that routes onto a crashed cluster node raises
:class:`~repro.core.errors.NodeUnavailableError` out of ``check_many``.
The listener answers every check in that batch with RETRY and triggers
the backend's failure sweep, so the client's single retry lands on the
repaired ring.  RETRY is the *crash* story only: a **planned** departure
(``AuthCluster.drain``) never surfaces here, because a DRAINING node
keeps its ring points and keeps serving until its warm state has been
streamed to the inheriting successors — the ring flips shard owners in
one final leave, and every post-flip lookup resolves to a live,
already-warm node (see ``docs/serve.md`` and ``docs/cluster.md``).

Graceful shutdown closes the listening socket first (new connects are
refused), then asks each connection to stop reading, serve what it has
already accepted, and close.  Nothing accepted is abandoned.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Set, Tuple

from repro.core.errors import NodeUnavailableError, SnowflakeError
from repro.obs.registry import SIZE_BUCKETS, default_registry
from repro.obs.trace import default_tracer
from repro.serve.protocol import (
    CHALLENGE,
    DENIED,
    ERROR,
    HEADER,
    MAX_FRAME,
    OK,
    PONG,
    PROOF_OK,
    RETRY,
    STATS_OK,
    Command,
    DecodeCache,
    Reply,
    WireError,
    decision_reply,
    encode_reply,
    read_frame,
)

_STATUS_COUNTERS = {
    OK: "grants",
    DENIED: "denials",
    CHALLENGE: "challenges",
    RETRY: "retries",
    ERROR: "errors",
}


class ServeListener:
    """One listening socket serving one shared :class:`AuthBackend`."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "listener",
        max_batch: int = 64,
        inflight_window: int = 64,
        max_frame: int = MAX_FRAME,
        metrics=None,
        tracer=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if inflight_window < 1:
            raise ValueError("inflight_window must be at least 1")
        self.backend = backend
        self.host = host
        self.port = port
        self.name = name
        self.max_batch = max_batch
        self.inflight_window = inflight_window
        self.max_frame = max_frame
        self.closing = False
        # A listener inherits the backend's registry/tracer so serve
        # spans and guard spans land in one place; explicit injection
        # wins, and a bare backend falls back to the process globals.
        if metrics is None:
            metrics = getattr(backend, "metrics", None)
        self.metrics = default_registry(metrics)
        self.decode_cache = DecodeCache()
        self.decode_cache.metrics = self.metrics
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        self.tracer = default_tracer(tracer)
        self._started_at: Optional[float] = None
        self.stats = {
            "connections": 0,
            "frames": 0,
            "batches": 0,
            "batched_requests": 0,
            "coalesced": 0,
            "grants": 0,
            "denials": 0,
            "challenges": 0,
            "retries": 0,
            "errors": 0,
            "proofs": 0,
            "pings": 0,
            "stats_requests": 0,
            "paused": 0,
            "repairs": 0,
            "decode_hits": 0,
            "decode_misses": 0,
        }
        self.metrics.register_source("serve.%s" % name, self.stats)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["_Connection"] = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns ``(host, port)`` with the real port
        filled in when 0 was requested (benchmarks bind ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        self._started_at = self.metrics.timebase.now()
        return self.host, self.port

    def uptime_s(self) -> float:
        """Seconds since :meth:`start` bound the socket (0.0 before)."""
        if self._started_at is None:
            return 0.0
        return self.metrics.timebase.now() - self._started_at

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    async def _handle(self, reader, writer) -> None:
        if self.closing:
            writer.close()
            return
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        self.stats["connections"] += 1
        try:
            await connection.run()
        finally:
            self._connections.discard(connection)

    async def shutdown(self) -> None:
        """Refuse new connections, drain accepted work, close sockets."""
        self.closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in list(self._connections):
            await connection.drain_and_close()

    def repair(self) -> None:
        """A batch routed onto a corpse: run the backend's failure sweep
        so the dead node's shards reassign before the client retries."""
        sweep = getattr(self.backend, "sweep_failures", None)
        if callable(sweep):
            sweep()
            self.stats["repairs"] += 1
            self.metrics.inc("serve.repairs")

    def _count(self, reply: Reply) -> Reply:
        counter = _STATUS_COUNTERS.get(reply.status)
        if counter is not None:
            self.stats[counter] += 1
        self.metrics.inc("serve.replies.%s" % reply.status)
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ServeListener(%s @ %s:%d)" % (self.name, self.host, self.port)


class _Connection:
    """One accepted socket: a reader pump feeding a dispatch loop
    through a bounded queue (the in-flight window)."""

    def __init__(self, listener: ServeListener, reader, writer):
        self.listener = listener
        self.reader = reader
        self.writer = writer
        self.queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=listener.inflight_window
        )
        self.draining = False
        self._eof = False
        self._wire_error: Optional[WireError] = None
        self._pump_task: Optional["asyncio.Task"] = None
        self._done = asyncio.Event()

    async def run(self) -> None:
        self._pump_task = asyncio.ensure_future(self._pump())
        try:
            await self._dispatch_loop()
        finally:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                self.listener.metrics.inc("serve.conn.close_errors")
            self._done.set()

    async def drain_and_close(self) -> None:
        """Stop reading, serve everything already accepted, close."""
        self.draining = True
        if self._pump_task is not None:
            self._pump_task.cancel()
        self._nudge()
        await self._done.wait()

    # -- reader pump -------------------------------------------------------

    async def _pump(self) -> None:
        """Socket → queue.  ``queue.put`` blocking on a full queue is the
        backpressure: while we are parked here, nobody reads the socket,
        and TCP stalls the client."""
        try:
            while True:
                frame = await read_frame(self.reader, self.listener.max_frame)
                if frame is None:
                    break
                if self.queue.full():
                    self.listener.stats["paused"] += 1
                await self.queue.put(
                    (frame, self.listener.metrics.timebase.now())
                )
        except WireError as exc:
            self.listener.metrics.inc("serve.conn.wire_errors")
            self._wire_error = exc
        except (ConnectionError, OSError):
            # Peer vanished; the dispatch loop drains what arrived.
            self.listener.metrics.inc("serve.conn.read_errors")
        finally:
            self._eof = True
            self._nudge()

    def _nudge(self) -> None:
        """Wake a dispatch loop blocked on an empty queue.  A full queue
        needs no sentinel — ``get`` cannot be blocked on it."""
        try:
            self.queue.put_nowait(None)
        except asyncio.QueueFull:
            pass

    # -- dispatch loop -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            if self.queue.empty() and (self._eof or self.draining):
                break
            entry = await self.queue.get()
            batch: List[Tuple[bytes, float]] = (
                [] if entry is None else [entry]
            )
            while len(batch) < self.listener.max_batch:
                try:
                    extra = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is not None:
                    batch.append(extra)
            if batch:
                served = await self._serve(batch)
                if not served:
                    break
        if self._wire_error is not None:
            await self._write_replies(
                [Reply(ERROR, 0, message=str(self._wire_error))]
            )

    async def _serve(self, entries: List[Tuple[bytes, float]]) -> bool:
        """Serve one coalesced batch; returns False when the peer is
        gone and the connection should wind down."""
        listener = self.listener
        stats = listener.stats
        metrics = listener.metrics
        tracer = listener.tracer
        now = metrics.timebase.now()
        stats["batches"] += 1
        stats["frames"] += len(entries)
        metrics.observe("serve.batch_size", len(entries),
                        buckets=SIZE_BUCKETS)
        replies: List[Optional[Reply]] = [None] * len(entries)
        checks = []  # (slot, request_id, GuardRequest, span)
        spans = {}   # slot -> the request's serve-layer span
        # One generation read per batch: every cached decode this batch
        # serves is vouched for by the trust state as of *now*.  (Hits
        # are transparent anyway — the pipeline re-verifies — but the
        # stamp means a revocation also strands the stale bytes.)
        cache = listener.decode_cache
        generation = getattr(listener.backend, "invalidation_generation", 0)
        hits, misses = cache.hits, cache.misses
        for slot, (payload, arrived_at) in enumerate(entries):
            metrics.observe("serve.queue_wait_ms",
                            (now - arrived_at) * 1000.0)
            try:
                command = cache.decode(payload, generation)
            except WireError as exc:
                metrics.inc("serve.protocol.wire_errors")
                replies[slot] = listener._count(
                    Reply(ERROR, 0, message=str(exc))
                )
                continue
            if command.op == "ping":
                stats["pings"] += 1
                replies[slot] = Reply(
                    PONG, command.request_id,
                    uptime=listener.uptime_s(),
                    inflight=self.queue.qsize(),
                    window=listener.inflight_window,
                )
            elif command.op == "stats":
                stats["stats_requests"] += 1
                replies[slot] = Reply(STATS_OK, command.request_id,
                                      data=metrics.snapshot())
            elif command.op == "proof":
                replies[slot] = self._submit_proof(command)
            else:
                # The serve span is the request's root unless the frame
                # already carries a trace id (a RETRY resend does): then
                # both attempts become spans of that one trace.
                span = tracer.start_span("serve.request",
                                         trace=command.body.trace,
                                         activate=False)
                if command.body.trace is None:
                    command.body.trace = span.trace_id
                spans[slot] = span
                checks.append(
                    (slot, command.request_id, command.body, span)
                )
        if cache.hits != hits:
            stats["decode_hits"] += cache.hits - hits
            metrics.inc("serve.decode.hits", cache.hits - hits)
        if cache.misses != misses:
            stats["decode_misses"] += cache.misses - misses
            metrics.inc("serve.decode.misses", cache.misses - misses)
        if checks:
            self._serve_checks(checks, replies)
        for slot, span in spans.items():
            reply = replies[slot]
            if reply is not None:
                span.annotate("status", reply.status)
                if reply.status == RETRY:
                    span.annotate("retry", True)
                elif reply.status == OK:
                    span.annotate("via", reply.via)
                    span.annotate("stage", reply.stage)
            # Finish before the write so a STATS probe sent after the
            # reply lands sees these spans' histograms already updated.
            tracer.finish(span)
        return await self._write_replies(
            [reply for reply in replies if reply is not None]
        )

    def _serve_checks(self, checks, replies) -> None:
        """The tentpole hot path: every check in the batch rides one
        ``check_many`` call — one premise snapshot, one meter charge."""
        listener = self.listener
        stats = listener.stats
        requests = [request for (_, _, request, _) in checks]
        stats["batched_requests"] += len(requests)
        if len(requests) > 1:
            stats["coalesced"] += len(requests)
        try:
            decisions = listener.backend.check_many(requests)
        except NodeUnavailableError as exc:
            listener.repair()
            for slot, request_id, _, _ in checks:
                replies[slot] = listener._count(
                    Reply(RETRY, request_id, message=str(exc))
                )
            return
        except (SnowflakeError, ValueError) as exc:
            # A whole-batch refusal (e.g. a routing error the cluster
            # raises before dispatch): every check learns the reason.
            for slot, request_id, _, _ in checks:
                replies[slot] = listener._count(
                    Reply(DENIED, request_id, message=str(exc))
                )
            return
        for (slot, request_id, _, _), decision in zip(checks, decisions):
            replies[slot] = listener._count(
                decision_reply(request_id, decision)
            )

    def _submit_proof(self, command: Command) -> Reply:
        listener = self.listener
        try:
            listener.backend.submit_proof(command.body)
        except NodeUnavailableError as exc:
            listener.repair()
            return listener._count(
                Reply(RETRY, command.request_id, message=str(exc))
            )
        except (SnowflakeError, ValueError) as exc:
            return listener._count(
                Reply(DENIED, command.request_id, message=str(exc))
            )
        listener.stats["proofs"] += 1
        return Reply(PROOF_OK, command.request_id)

    async def _write_replies(self, replies: List[Reply]) -> bool:
        """Write a batch's replies as one buffer, one drain."""
        if not replies:
            return True
        # max_frame bounds what we *accept*; our own replies are framed
        # against the protocol ceiling.  One growing buffer, one write,
        # one drain for the whole batch — header and body appended
        # directly, no per-reply frame concatenation.
        buffer = bytearray()
        for reply in replies:
            body = encode_reply(reply)
            if len(body) > MAX_FRAME:
                raise WireError(
                    "reply frame of %d bytes exceeds the %d-byte "
                    "ceiling" % (len(body), MAX_FRAME)
                )
            buffer += HEADER.pack(len(body))
            buffer += body
        try:
            self.writer.write(bytes(buffer))
            await self.writer.drain()
        except (ConnectionError, OSError):
            self.listener.metrics.inc("serve.conn.write_errors")
            return False
        return True
