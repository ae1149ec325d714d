"""Properties of the framing seam and of one connection on a real socket.

``FrameBuffer`` is the only framing path (client and listener alike):
whatever the chunking, it yields exactly the payloads that were framed,
and on arbitrary bytes it raises ``WireError`` or nothing.  The second
half drives a real ``ServeListener`` over loopback with raw sockets —
no ``ServeClient`` — because its subjects are what a well-behaved client
never does: announce an oversize frame, hang up inside one, pipeline
without reading, or be still talking when the listener shuts down.

Peer and listener share one event loop, so "a loop turn" below is
exact: every ``await`` in a scenario gives the listener whole turns.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.guard import default_backend
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import Prover
from repro.serve import ServeListener
from repro.serve.protocol import (
    HEADER,
    FrameBuffer,
    WireError,
    decode_reply,
    encode_frame,
    encode_ping,
    read_frame,
)
from repro.sim import SimClock

# -- FrameBuffer -----------------------------------------------------------


def _chunks(draw, stream: bytes):
    """``stream`` cut at drawn offsets (empty chunks included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    edges = [0] + cuts + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_chunking_yields_exactly_the_payloads(data):
    payloads = data.draw(st.lists(st.binary(max_size=96), max_size=8))
    stream = b"".join(encode_frame(payload) for payload in payloads)
    buffer = FrameBuffer()
    framed = []
    for chunk in _chunks(data.draw, stream):
        buffer.feed(chunk)
        # Stopping early (the listener takes ``max_batch`` at a time)
        # must lose nothing either.
        take = data.draw(st.integers(0, 3))
        for payload in buffer.frames():
            framed.append(payload)
            take -= 1
            if not take:
                break
    framed.extend(buffer.frames())
    assert framed == payloads
    assert buffer.pending() == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arbitrary_bytes_only_ever_raise_wire_error(data):
    stream = data.draw(st.binary(max_size=256))
    buffer = FrameBuffer(max_frame=data.draw(st.integers(0, 300)))
    framed = 0
    try:
        for chunk in _chunks(data.draw, stream):
            buffer.feed(chunk)
            for payload in buffer.frames():
                assert len(payload) <= buffer.max_frame
                framed += len(payload) + HEADER.size
    except WireError:
        return
    # No announcement was over the ceiling: every byte is accounted for.
    assert framed + buffer.pending() == len(stream)


# -- one connection, over loopback -------------------------------------------


def _listener(**options) -> ServeListener:
    backend = default_backend(
        TrustEnvironment(clock=SimClock()), check_charge=None,
        prover=Prover(),
    )
    return ServeListener(backend, metrics=MetricsRegistry(), **options)


async def _write_in_chunks(writer, chunks) -> None:
    for chunk in chunks:
        writer.write(chunk)
        await asyncio.sleep(0)


async def _replies_until_close(reader):
    replies = []
    while True:
        payload = await read_frame(reader)
        if payload is None:
            return replies
        replies.append(decode_reply(payload))


def _assert_answered_then_refused(replies, good: int, listener) -> None:
    """``good`` pongs in request order, then one id-0 ERROR, then the
    close that ended the read."""
    assert [reply.status for reply in replies] == ["pong"] * good + ["error"]
    assert [reply.request_id for reply in replies[:good]] == list(
        range(1, good + 1)
    )
    assert replies[-1].request_id == 0
    assert listener.stats["pings"] == good
    assert listener.metrics.counter("serve.conn.wire_errors") == 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oversize_header_answers_what_came_before_then_closes(data):
    good = data.draw(st.integers(0, 9))
    # The stream ends with the announcement: bytes sent *after* it would
    # meet a closed socket, and the reset that earns can overtake the
    # replies (TCP's rule, not the listener's).
    stream = b"".join(
        encode_frame(encode_ping(index + 1)) for index in range(good)
    ) + HEADER.pack(data.draw(st.integers(65, (1 << 32) - 1)))
    chunks = _chunks(data.draw, stream)

    async def scenario():
        listener = _listener(max_frame=64, max_batch=4)
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        await _write_in_chunks(writer, chunks)
        replies = await _replies_until_close(reader)
        writer.close()
        await listener.shutdown()
        return replies, listener

    replies, listener = asyncio.run(scenario())
    _assert_answered_then_refused(replies, good, listener)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_eof_inside_a_frame_is_answered_then_closed(data):
    good = data.draw(st.integers(0, 9))
    last = encode_frame(encode_ping(99))
    stream = b"".join(
        encode_frame(encode_ping(index + 1)) for index in range(good)
    ) + last[:data.draw(st.integers(1, len(last) - 1))]
    chunks = _chunks(data.draw, stream)

    async def scenario():
        listener = _listener(max_batch=4)
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        await _write_in_chunks(writer, chunks)
        writer.write_eof()
        replies = await _replies_until_close(reader)
        writer.close()
        await listener.shutdown()
        return replies, listener

    replies, listener = asyncio.run(scenario())
    _assert_answered_then_refused(replies, good, listener)


def test_clean_eof_answers_everything_and_reports_nothing():
    async def scenario():
        listener = _listener(max_batch=4)
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(
            encode_frame(encode_ping(index + 1)) for index in range(10)
        ))
        writer.write_eof()
        replies = await _replies_until_close(reader)
        writer.close()
        await listener.shutdown()
        return replies, listener

    replies, listener = asyncio.run(scenario())
    assert [reply.request_id for reply in replies] == list(range(1, 11))
    assert listener.metrics.counter("serve.conn.wire_errors") == 0


def test_a_peer_that_does_not_read_stops_being_read():
    # Replies must outgrow every buffer between the listener and the
    # peer's application (kernel send and receive buffers, the peer's
    # stream reader), so each request draws a large one: an id the codec
    # cannot read is quoted back in the ERROR.  The index inside it is
    # what makes the order checkable.
    max_batch = 2
    total = 50 * max_batch
    padding = b"x" * (1 << 17)
    frames = [
        encode_frame(b"(4:ping%d:n%04d-%s)" % (len(padding) + 6, index,
                                              padding))
        for index in range(total)
    ]

    async def scenario():
        listener = _listener(max_batch=max_batch)
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(frames))  # pipelined; nothing is read yet
        for _ in range(10_000):
            if listener.stats["paused"]:
                break
            await asyncio.sleep(0.001)
        paused_at = listener.stats["frames"]
        await asyncio.sleep(0.05)
        still_at = listener.stats["frames"]
        # Now the peer reads, and the listener picks up where it stopped.
        replies = [
            decode_reply(await read_frame(reader)) for _ in range(total)
        ]
        writer.close()
        await listener.shutdown()
        return replies, paused_at, still_at, listener.stats

    replies, paused_at, still_at, stats = asyncio.run(scenario())
    assert stats["paused"] >= 1
    # Paused means paused: with the peer silent, no further frame was
    # served, and most of the pipeline had not even been read.
    assert paused_at == still_at < total
    assert stats["frames"] == total
    for index, reply in enumerate(replies):
        assert reply.status == "error" and reply.request_id == 0
        assert "n%04d-" % index in reply.message


def test_a_deep_pipeline_yields_the_loop_between_slices():
    max_batch = 4
    total = 50 * max_batch

    async def scenario():
        listener = _listener(max_batch=max_batch)
        host, port = await listener.start()
        deep_reader, deep_writer = await asyncio.open_connection(host, port)
        reader, writer = await asyncio.open_connection(host, port)
        deep_writer.write(b"".join(
            encode_frame(encode_ping(index + 1)) for index in range(total)
        ))
        writer.write(encode_frame(encode_ping(7)))
        reply = decode_reply(await read_frame(reader))
        served_by_then = listener.stats["frames"]
        deep = [
            decode_reply(await read_frame(deep_reader)) for _ in range(total)
        ]
        for each in (writer, deep_writer):
            each.close()
        await listener.shutdown()
        return reply, served_by_then, deep, listener.stats

    reply, served_by_then, deep, stats = asyncio.run(scenario())
    assert reply.status == "pong" and reply.request_id == 7
    # One slice per loop turn: the single request was answered while
    # the deep pipeline still had frames waiting.
    assert served_by_then < total + 1
    assert [each.request_id for each in deep] == list(range(1, total + 1))
    assert stats["batches"] >= 50 + 1


def test_shutdown_answers_the_complete_frames_still_buffered():
    max_batch = 4
    total = 20 * max_batch

    async def scenario():
        listener = _listener(max_batch=max_batch)
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        # The last frame is cut short: never accepted, never answered.
        writer.write(b"".join(
            encode_frame(encode_ping(index + 1)) for index in range(total)
        ) + encode_frame(encode_ping(total + 1))[:-1])
        first = decode_reply(await read_frame(reader))
        served_by_then = listener.stats["frames"]
        await listener.shutdown()
        rest = await _replies_until_close(reader)
        writer.close()
        return [first] + rest, served_by_then, listener.stats

    replies, served_by_then, stats = asyncio.run(scenario())
    assert served_by_then < total  # shutdown found frames still buffered
    assert [reply.status for reply in replies] == ["pong"] * total
    assert [reply.request_id for reply in replies] == list(
        range(1, total + 1)
    )
    assert stats["frames"] == total


def _refused_then_served(hostile: bytes):
    """Send ``hostile``, then a ping: the codec must refuse the frame as
    a counted ERROR, not let a decode exception take the connection down
    unanswered, and the ping must still be served."""

    async def scenario():
        listener = _listener()
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(hostile))
        refused = decode_reply(await read_frame(reader))
        writer.write(encode_frame(encode_ping(2)))
        after = decode_reply(await read_frame(reader))
        writer.close()
        await listener.shutdown()
        return refused, after, listener

    refused, after, listener = asyncio.run(scenario())
    assert (refused.status, refused.request_id) == ("error", 0)
    assert listener.metrics.counter("serve.protocol.wire_errors") == 1
    assert (after.status, after.request_id) == ("pong", 2)
    return refused


def test_a_hostile_key_is_answered_and_the_connection_serves_on():
    # A channel key whose ``(n)`` field carries no value.
    refused = _refused_then_served(
        b"(5:check1:1(7:request(7:logical3:web)(10:credential(7:channel"
        b"(10:public-key(3:rsa(1:e3:\x01\x00\x01)(1:n)))))))"
    )
    assert "public key" in refused.message


def test_an_id_beyond_int_digits_is_answered_and_the_connection_serves_on():
    # More digits than ``int()`` converts: once a ``ValueError`` out of
    # the decode cache's sliced path.
    digits = b"1" * 4400
    refused = _refused_then_served(
        b"(5:check%d:%s(7:request(7:logical3:web)))" % (len(digits), digits)
    )
    assert "request id" in refused.message


def test_one_oversize_reply_costs_its_own_request_only(monkeypatch):
    # A reply past the frame ceiling (here: any stats snapshot, with the
    # ceiling lowered) is answered with a counted ERROR under its own
    # id; its batch-mates' replies are delivered and the connection
    # keeps serving.
    monkeypatch.setattr("repro.serve.server.MAX_FRAME", 256)

    async def scenario():
        listener = _listener()
        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            encode_frame(encode_ping(1))
            + encode_frame(b"(5:stats1:2)")
            + encode_frame(encode_ping(3))
        )
        batch = [decode_reply(await read_frame(reader)) for _ in range(3)]
        writer.write(encode_frame(encode_ping(4)))
        after = decode_reply(await read_frame(reader))
        writer.close()
        await listener.shutdown()
        return batch, after, listener

    batch, after, listener = asyncio.run(scenario())
    assert [(r.status, r.request_id) for r in batch] == [
        ("pong", 1), ("error", 2), ("pong", 3),
    ]
    assert "exceeds" in batch[1].message
    assert (after.status, after.request_id) == ("pong", 4)
    assert listener.stats["batches"] == 2 and listener.stats["errors"] == 1
    assert listener.metrics.counter("serve.replies.oversize") == 1
