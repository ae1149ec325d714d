"""A pipelining wire client with single-shot crash retry.

The client exists for the benchmarks and tests, but it is a faithful
model of what any consumer of this protocol must do:

- **Pipelining.** Requests carry client-assigned ids, so a client can
  keep many in flight and match replies as they arrive.  The client is
  an :class:`asyncio.Protocol` like the server's connections: its
  ``data_received`` resolves a future per id, and ``check_pipelined``
  fans a whole workload through without waiting request-by-request.
  Server-side, those in-flight frames are what coalesce into
  ``check_many`` batches — pipelining is the *client's* half of the
  batching optimisation.
- **Crash retry.** A RETRY reply means the backend could not decide
  the request and decided nothing.  The client resends the stored
  frame for that id exactly once; a second RETRY for the same id
  resolves as the failure it is (a blip is worth one resend, not a
  loop).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Set

from repro.guard.request import GuardRequest
from repro.obs.registry import default_registry
from repro.obs.trace import new_trace_id
from repro.serve.protocol import (
    MAX_FRAME,
    RETRY,
    FrameBuffer,
    Reply,
    WireError,
    decode_reply,
    encode_check,
    encode_frame,
    encode_ping,
    encode_stats,
    encode_submit_proof,
)


class ServeClient(asyncio.Protocol):
    """One connection to a :class:`~repro.serve.server.ServeListener`."""

    def __init__(
        self,
        max_frame: int = MAX_FRAME,
        rng=None,
        metrics=None,
        trace_sample: int = 1,
    ):
        if trace_sample < 1:
            raise ValueError("trace_sample must be at least 1")
        self.max_frame = max_frame
        self.rng = rng  # trace-id entropy; None uses the default RNG
        self.metrics = default_registry(metrics)
        #: Mint a trace id for 1 in N requests that arrive without one.
        #: Untraced requests carry no ``(trace ...)`` field at all.  The
        #: server still traces them at its own sample rate; the ids just
        #: will not be client-known.
        self.trace_sample = trace_sample
        self._trace_births = 0
        #: Frames staged since the last flush.  ``_dispatch`` only
        #: queues bytes here; ``_flush`` joins and writes them as one
        #: buffer, so a pipelined window costs one socket send instead
        #: of one per request (and lands on the server as one read,
        #: which is what its batcher coalesces).
        self._outbox: List[bytes] = []
        #: Replies that matched no pending request (e.g. the server's
        #: id-0 report of an unparseable frame) — kept for inspection.
        self.orphans: List[Reply] = []
        #: The socket; raw frames may be written to it directly.
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = FrameBuffer(max_frame)
        self._next_id = 1
        self._futures: Dict[int, "asyncio.Future"] = {}
        self._sent_frames: Dict[int, bytes] = {}
        self._retried: Set[int] = set()
        #: Pending while the transport's write buffer is over its high
        #: water mark; ``_flush`` waits on it.
        self._writable: Optional["asyncio.Future"] = None
        self._closed: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )

    @classmethod
    async def connect(cls, host: str, port: int, **options) -> "ServeClient":
        """Open a connection; ``options`` are the constructor's."""
        _, client = await asyncio.get_running_loop().create_connection(
            lambda: cls(**options), host, port
        )
        return client

    async def close(self) -> None:
        self.transport.close()
        await self._closed

    # -- sending -----------------------------------------------------------

    def _ensure_trace(self, request: GuardRequest) -> None:
        """Mint a trace id for ``request`` unless the caller set one.

        Minted *before* framing, so the id rides inside the stored
        frame bytes and a crash-retry resend carries the same trace.
        With ``trace_sample=N`` only every Nth untraced request gets an
        id (``None`` for the rest — the server traces those on its own
        terms); caller-set traces always ride."""
        if request.trace is None:
            if self.trace_sample > 1:
                self._trace_births += 1
                if (self._trace_births - 1) % self.trace_sample:
                    return
            request.trace = new_trace_id(self.rng)

    def _dispatch(self, encoder, retryable: bool) -> "asyncio.Future":
        """Assign an id, frame and queue one command; the returned future
        resolves when its reply arrives (no write here — callers batch
        flushes)."""
        request_id = self._next_id
        self._next_id += 1
        framed = encode_frame(encoder(request_id), self.max_frame)
        if retryable:
            self._sent_frames[request_id] = framed
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        self._outbox.append(framed)
        return future

    async def _flush(self) -> None:
        """Write everything staged since the last flush as one buffer,
        then wait while the transport is over its high water mark: the
        client half of write coalescing."""
        if self._outbox:
            payload = (
                self._outbox[0]
                if len(self._outbox) == 1
                else b"".join(self._outbox)
            )
            del self._outbox[:]
            self.transport.write(payload)
        if self._writable is not None:
            await self._writable

    async def check(self, request: GuardRequest) -> Reply:
        """One request, one reply — the serial (unpipelined) shape."""
        self._ensure_trace(request)
        future = self._dispatch(
            lambda rid: encode_check(rid, request), retryable=True
        )
        await self._flush()
        return await future

    async def check_pipelined(
        self, requests: List[GuardRequest]
    ) -> List[Reply]:
        """Send every request before waiting for any reply.  The frames
        reach the server back-to-back in one recv, which is what lets it
        coalesce them into ``check_many`` batches."""
        futures = []
        for request in requests:
            self._ensure_trace(request)
            futures.append(self._dispatch(
                lambda rid, request=request: encode_check(rid, request),
                retryable=True,
            ))
        await self._flush()
        return list(await asyncio.gather(*futures))

    async def submit_proof(self, proof_wire: bytes) -> Reply:
        future = self._dispatch(
            lambda rid: encode_submit_proof(rid, proof_wire), retryable=True
        )
        await self._flush()
        return await future

    async def ping(self) -> Reply:
        future = self._dispatch(encode_ping, retryable=False)
        await self._flush()
        return await future

    async def stats_snapshot(self) -> Reply:
        """Ask the listener for its metrics snapshot (``reply.data``)."""
        future = self._dispatch(encode_stats, retryable=False)
        await self._flush()
        return await future

    # -- receiving ---------------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        # A pipelined window's replies arrive as one coalesced buffer;
        # this resolves them all on a single loop wakeup.
        self._buffer.feed(data)
        try:
            for payload in self._buffer.frames():
                self._resolve(decode_reply(payload))
        except WireError as exc:
            self.metrics.inc("serve.client.receive_errors")
            self._fail_pending(exc)
            self.transport.close()

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if writable is not None and not writable.done():
            writable.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            self.metrics.inc("serve.client.receive_errors")
        self._fail_pending(exc or WireError("connection closed"))
        self.resume_writing()
        self._closed.set_result(None)

    def _resolve(self, reply: Reply) -> None:
        request_id = reply.request_id
        if (
            reply.status == RETRY
            and request_id in self._sent_frames
            and request_id not in self._retried
        ):
            # The backend decided nothing; resend this frame once.
            self._retried.add(request_id)
            self.metrics.inc("serve.client.retries")
            self.transport.write(self._sent_frames[request_id])
            return
        future = self._futures.pop(request_id, None)
        self._sent_frames.pop(request_id, None)
        self._retried.discard(request_id)
        if future is None:
            self.orphans.append(reply)
            return
        if not future.done():
            future.set_result(reply)

    def _fail_pending(self, exc: Exception) -> None:
        pending = list(self._futures.values())
        self._futures.clear()
        self._sent_frames.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)
