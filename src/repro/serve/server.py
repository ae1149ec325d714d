"""The asyncio listener: pipelining, batching, backpressure, shutdown.

One :class:`ServeListener` owns one listening socket and any number of
connections.  Each connection is one :class:`asyncio.Protocol`, and the
whole serving path runs inside its ``data_received``: the bytes of one
recv go through a :class:`~repro.serve.protocol.FrameBuffer`, and the
complete frames — at most ``max_batch`` of them — are decoded, checked
in a single ``check_many`` call, encoded and written before the callback
returns.  A pipelined client therefore pays one premise snapshot per
*recv* rather than per request; a serial client (one
request in flight) degenerates naturally to batches of one — same code
path, no mode switch, one loop wake-up.  With frames left over, the
connection stops reading and takes its next slice on the next loop turn
(``call_soon``), so a deep pipeline holds the loop for one batch at a
time while other connections wait.

Backpressure is the transport's own.  A peer that does not read its
replies fills the kernel buffer, then the transport's write buffer;
``pause_writing`` stops the connection serving and reading, the unread
socket closes the TCP window, and the peer's writes stall until it
reads again.  Nothing is dropped and no memory grows.

The backend is called directly on the listener's event loop, and that
loop is the only thread of control that touches it: a batch is decoded,
checked and answered inside one callback, so nothing else observes the
backend mid-batch ("Concurrency model" in ``docs/serve.md``).

A backend that cannot decide a batch right now raises
:class:`~repro.core.errors.NodeUnavailableError` out of ``check_many``
(or ``submit_proof``).  The listener answers every check in that batch
with RETRY and decides nothing, and the client resends once with the
same trace id ("Graceful shutdown and crash retry" in
``docs/serve.md``).  A single :class:`~repro.guard.Guard` never raises
it, so over the default backend RETRY never appears on the wire.

Graceful shutdown closes the listening socket first (new connects are
refused), then lets each connection serve the complete frames it has
already buffered and close.  Nothing accepted is abandoned.
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
    FrameBuffer,
    Reply,
    WireError,
    decision_reply,
    encode_reply,
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
        max_frame: int = MAX_FRAME,
        metrics=None,
        tracer=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.backend = backend
        self.host = host
        self.port = port
        self.name = name
        self.max_batch = max_batch
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
            "pings": 0,
            "stats_requests": 0,
            "paused": 0,
            "decode_hits": 0,
            "decode_misses": 0,
        }
        self.metrics.register_source("serve.%s" % name, self.stats)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["_Connection"] = set()
        self._drained: Optional["asyncio.Future"] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns ``(host, port)`` with the real port
        filled in when 0 was requested (benchmarks bind ephemeral)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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

    async def shutdown(self) -> None:
        """Refuse new connections, serve what is buffered, close sockets."""
        self.closing = True
        if self._server is not None:
            self._server.close()
        if self._connections:
            if self._drained is None:
                self._drained = asyncio.get_running_loop().create_future()
            for connection in list(self._connections):
                connection.finish()
            await self._drained
        if self._server is not None:
            await self._server.wait_closed()

    def _forget(self, connection: "_Connection") -> None:
        self._connections.discard(connection)
        if self._drained is not None and not self._connections:
            self._drained.set_result(None)
            self._drained = None

    def _count(self, reply: Reply) -> Reply:
        counter = _STATUS_COUNTERS.get(reply.status)
        if counter is not None:
            self.stats[counter] += 1
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ServeListener(%s @ %s:%d)" % (self.name, self.host, self.port)


class _Connection(asyncio.Protocol):
    """One accepted socket, served from its own ``data_received``."""

    def __init__(self, listener: ServeListener):
        self.listener = listener
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = FrameBuffer(listener.max_frame)
        #: Complete frames not yet served (empty whenever the socket is
        #: being read, so it holds at most one recv's worth).
        self._frames: List[bytes] = []
        #: EOF, a framing error or shutdown: serve ``_frames``, then close.
        self._ending = False
        self._wire_error: Optional[WireError] = None
        self._write_paused = False
        self._turn: Optional[asyncio.Handle] = None

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        listener = self.listener
        if listener.closing:
            transport.close()
            return
        listener._connections.add(self)
        listener.stats["connections"] += 1

    def data_received(self, data: bytes) -> None:
        # Reading is paused while frames are left over or a turn is
        # scheduled, so every recv finds neither: serve in place.
        self._buffer.feed(data)
        try:
            self._frames.extend(self._buffer.frames())
        except WireError as exc:
            # Unframeable from here on; what came before is still owed
            # an answer.
            self._fail(exc)
        self._serve_slice()

    def eof_received(self) -> bool:
        if self._buffer.pending():
            self._fail(WireError("connection closed inside a frame"))
        self.finish()
        return True  # keep the write side open: we close once served

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop serving it, and stop
        # reading it so TCP pushes back on its writes.
        self._write_paused = True
        self.listener.stats["paused"] += 1
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._kick()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            # Peer vanished (reset, broken pipe); nobody is left to answer.
            self.listener.metrics.inc("serve.conn.aborted")
        self.listener._forget(self)

    # -- serving -------------------------------------------------------------

    def finish(self) -> None:
        """Serve the complete frames already buffered, then close."""
        self._ending = True
        self._kick()

    def _fail(self, exc: WireError) -> None:
        self.listener.metrics.inc("serve.conn.wire_errors")
        self._wire_error = exc
        self._ending = True

    def _kick(self) -> None:
        """Re-enter the serving path from outside a recv — unless its
        next turn is already scheduled."""
        if self._turn is None:
            self._serve_slice()

    def _serve_slice(self) -> None:
        """Serve at most ``max_batch`` buffered frames, then decide what
        the connection waits for next: the peer reading (``resume_writing``
        re-enters here), its own next loop turn (frames remain — the other
        connections go first), the close, or more bytes."""
        self._turn = None
        transport = self.transport
        if transport.is_closing():
            return
        frames = self._frames
        if frames and not self._write_paused:
            max_batch = self.listener.max_batch
            batch = frames[:max_batch]
            del frames[:max_batch]
            self._serve(batch)
        if self._write_paused:
            return
        if frames:
            transport.pause_reading()
            self._turn = asyncio.get_running_loop().call_soon(
                self._serve_slice
            )
        elif self._ending:
            if self._wire_error is not None:
                self._write_replies(
                    [Reply(ERROR, 0, message=str(self._wire_error))]
                )
            transport.close()  # flushes what is still buffered
        else:
            transport.resume_reading()

    def _serve(self, payloads: List[bytes]) -> None:
        """Decode, check and answer one batch."""
        listener = self.listener
        stats = listener.stats
        metrics = listener.metrics
        tracer = listener.tracer
        stats["batches"] += 1
        stats["frames"] += len(payloads)
        metrics.observe("serve.batch_size", len(payloads),
                        buckets=SIZE_BUCKETS)
        replies: List[Optional[Reply]] = [None] * len(payloads)
        checks = []  # (slot, request_id, GuardRequest, span)
        cache = listener.decode_cache
        hits, misses = cache.hits, cache.misses
        for slot, payload in enumerate(payloads):
            try:
                command = cache.decode(payload)
            except WireError as exc:
                metrics.inc("serve.protocol.wire_errors")
                replies[slot] = listener._count(
                    Reply(ERROR, 0, message=str(exc))
                )
                continue
            if command.op == "ping":
                stats["pings"] += 1
                replies[slot] = Reply(PONG, command.request_id,
                                      uptime=listener.uptime_s())
            elif command.op == "stats":
                stats["stats_requests"] += 1
                replies[slot] = Reply(STATS_OK, command.request_id,
                                      data=metrics.snapshot())
            elif command.op == "proof":
                replies[slot] = self._submit_proof(command)
            else:
                # Every check has a trace id before its span opens: the
                # frame's own (a RETRY resend carries it, so both
                # attempts share one trace and one sampling decision)
                # or one minted here, which the guard and the audit
                # record inherit whether or not the trace is kept.
                if command.body.trace is None:
                    command.body.trace = tracer.mint_trace_id()
                span = tracer.start_span("serve.request",
                                         trace=command.body.trace,
                                         activate=False)
                checks.append(
                    (slot, command.request_id, command.body, span)
                )
        stats["decode_hits"] += cache.hits - hits
        stats["decode_misses"] += cache.misses - misses
        if checks:
            self._serve_checks(checks, replies)
        for slot, _, _, span in checks:
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
        self._write_replies([reply for reply in replies if reply is not None])

    def _serve_checks(self, checks, replies) -> None:
        """The tentpole hot path: every check in the batch rides one
        ``check_many`` call — one premise snapshot per guard it reaches."""
        listener = self.listener
        stats = listener.stats
        requests = [request for (_, _, request, _) in checks]
        stats["batched_requests"] += len(requests)
        if len(requests) > 1:
            stats["coalesced"] += len(requests)
        try:
            decisions = listener.backend.check_many(requests)
        except NodeUnavailableError as exc:
            for slot, request_id, _, _ in checks:
                replies[slot] = listener._count(
                    Reply(RETRY, request_id, message=str(exc))
                )
            return
        except (SnowflakeError, ValueError) as exc:
            # A whole-batch refusal: every check learns the reason.
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
            return listener._count(
                Reply(RETRY, command.request_id, message=str(exc))
            )
        except (SnowflakeError, ValueError) as exc:
            return listener._count(
                Reply(DENIED, command.request_id, message=str(exc))
            )
        return Reply(PROOF_OK, command.request_id)

    def _write_replies(self, replies: List[Reply]) -> None:
        """Write a batch's replies as one buffer, one ``write``."""
        # max_frame bounds what we *accept*; our own replies are framed
        # against the protocol ceiling.  Header and body are appended
        # directly, no per-reply frame concatenation.
        buffer = bytearray()
        for reply in replies:
            body = encode_reply(reply)
            if len(body) > MAX_FRAME:
                # One unframeable reply (a huge stats snapshot) costs
                # its own request an ERROR, not the batch its answers.
                self.listener.metrics.inc("serve.replies.oversize")
                body = encode_reply(self.listener._count(Reply(
                    ERROR, reply.request_id,
                    message="reply of %d bytes exceeds the %d-byte "
                    "frame ceiling" % (len(body), MAX_FRAME),
                )))
            buffer += HEADER.pack(len(body))
            buffer += body
        if buffer:
            self.transport.write(buffer)
