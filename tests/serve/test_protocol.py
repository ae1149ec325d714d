"""The wire codec: framing, request/reply round trips, error mapping."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
    NodeUnavailableError,
)
from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.crypto.hashes import HashValue
from repro.guard import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.serve.protocol import (
    CACHED_BYTES_CEILING,
    CHALLENGE,
    DENIED,
    ERROR,
    OK,
    PONG,
    PROOF_OK,
    RETRY,
    STATS_OK,
    DecodeCache,
    FrameBuffer,
    Reply,
    WireError,
    decode_command,
    decode_reply,
    encode_check,
    encode_frame,
    encode_ping,
    encode_reply,
    encode_stats,
    encode_submit_proof,
    guard_request_from_sexp,
    guard_request_to_sexp,
    value_from_sexp,
    value_to_sexp,
)
from repro.sexp import sexp, to_canonical, to_transport
from repro.tags import Tag, parse_tag

LOGICAL = sexp(["web", ["method", "GET"], ["path", "/doc"]])


def _round_trip(request):
    return guard_request_from_sexp(guard_request_to_sexp(request))


class TestFraming:
    def test_single_byte_dribble_reassembles(self):
        frames = [b"alpha", b"", b"a much longer frame body here"]
        wire = b"".join(encode_frame(frame) for frame in frames)
        buffer = FrameBuffer()
        seen = []
        for index in range(len(wire)):
            buffer.feed(wire[index:index + 1])
            seen.extend(buffer.frames())
        assert seen == frames
        assert buffer.pending() == 0

    def test_batched_feed_yields_all_frames(self):
        wire = encode_frame(b"one") + encode_frame(b"two")
        buffer = FrameBuffer()
        buffer.feed(wire)
        assert list(buffer.frames()) == [b"one", b"two"]

    def test_ten_thousand_dribbled_frames_reassemble_in_linear_time(self):
        # The offset-based consumer must not re-copy the whole buffer
        # per frame (the old ``del buf[:n]`` decoder was quadratic in
        # the worst case).  10k frames, fed one byte at a time and then
        # again as one slab, must both yield byte-identical payloads —
        # and do it fast enough that quadratic behavior would stick out.
        frames = [
            b"payload-%06d-%s" % (index, b"x" * (index % 23))
            for index in range(10_000)
        ]
        wire = b"".join(encode_frame(frame) for frame in frames)

        started = time.perf_counter()
        buffer = FrameBuffer()
        dribbled = []
        view = memoryview(wire)
        for index in range(len(wire)):
            buffer.feed(view[index:index + 1])
            dribbled.extend(buffer.frames())
        elapsed = time.perf_counter() - started
        assert dribbled == frames
        assert buffer.pending() == 0
        assert elapsed < 5.0, "dribbled reassembly took %.2fs" % elapsed

        slab = FrameBuffer()
        slab.feed(wire)
        assert list(slab.frames()) == frames
        assert slab.pending() == 0

    def test_oversize_announcement_is_a_wire_error(self):
        buffer = FrameBuffer(max_frame=16)
        buffer.feed(encode_frame(b"x" * 17))
        with pytest.raises(WireError):
            list(buffer.frames())

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(WireError):
            encode_frame(b"x" * 17, max_frame=16)


class TestGuardRequestCodec:
    def test_channel_credential_round_trips(self, alice_kp):
        request = GuardRequest(
            LOGICAL,
            issuer=KeyPrincipal(alice_kp.public),
            min_tag=parse_tag("(tag (web))"),
            credential=ChannelCredential(KeyPrincipal(alice_kp.public)),
            transport="rmi",
        )
        decoded = _round_trip(request)
        assert to_canonical(decoded.logical) == to_canonical(LOGICAL)
        assert decoded.issuer == request.issuer
        assert decoded.credential.speaker == request.credential.speaker
        assert decoded.min_tag.to_sexp() == request.min_tag.to_sexp()
        assert decoded.transport == "rmi"

    def test_session_credential_round_trips(self):
        credential = SessionCredential(
            "mac-17", b"\x01\x02tagbytes", b"the message",
            proof_wire=b"{cHJvb2Y=}",
        )
        decoded = _round_trip(
            GuardRequest(LOGICAL, credential=credential, transport="http")
        )
        assert decoded.credential.session_id == "mac-17"
        assert decoded.credential.tag == credential.tag
        assert decoded.credential.message == credential.message
        assert decoded.credential.proof_wire == credential.proof_wire

    def test_proof_credential_round_trips(self):
        subject = HashPrincipal(HashValue.of_bytes(b"the message"))
        wire = to_transport(sexp(["proof", "stub"]))
        decoded = _round_trip(
            GuardRequest(
                LOGICAL,
                credential=ProofCredential(subject, wire=wire),
                transport="http",
            )
        )
        assert decoded.credential.expected_subject == subject
        assert decoded.credential.wire == wire

    def test_credential_free_request_round_trips(self):
        decoded = _round_trip(GuardRequest(LOGICAL, transport="smtp"))
        assert decoded.credential is None
        assert decoded.issuer is None

    def test_malformed_request_is_a_wire_error(self):
        with pytest.raises(WireError):
            guard_request_from_sexp(sexp(["not-a-request"]))
        with pytest.raises(WireError):
            guard_request_from_sexp(sexp(["request", ["transport", "x"]]))


class TestCommandCodec:
    def test_check_round_trips(self):
        payload = encode_check(41, GuardRequest(LOGICAL, transport="http"))
        command = decode_command(payload)
        assert command.op == "check"
        assert command.request_id == 41
        assert to_canonical(command.body.logical) == to_canonical(LOGICAL)

    def test_proof_and_ping_round_trip(self):
        proof = decode_command(encode_submit_proof(7, b"proof-bytes"))
        assert (proof.op, proof.request_id, proof.body) == (
            "proof", 7, b"proof-bytes",
        )
        ping = decode_command(encode_ping(9))
        assert (ping.op, ping.request_id) == ("ping", 9)

    def test_garbage_is_a_wire_error(self):
        with pytest.raises(WireError):
            decode_command(b"not an sexp at all")
        with pytest.raises(WireError):
            decode_command(to_canonical(sexp(["frobnicate", "3"])))


#: ``<len>:<id>`` headers bare ``int()`` reads as 7 (or -7) but the
#: canonical parser, or a digits-only id, does not.
MALFORMED_ID_HEADERS = [b"+1:7", b"0_1:7", b"2:-7", b"2: 7"]


class TestDecodeCache:
    @pytest.mark.parametrize("header", MALFORMED_ID_HEADERS)
    def test_warm_cache_rejects_what_the_full_parser_rejects(self, header):
        """The sliced hit path may not be laxer than ``decode_command``:
        a malformed length prefix or id fails closed even when the
        request bytes behind it are already cached."""
        request = GuardRequest(LOGICAL, transport="http")
        cache = DecodeCache()
        cache.decode(encode_check(7, request))
        cache.decode(encode_check(8, request))
        assert cache.hits == 1
        frame = b"(5:check%s%s)" % (
            header, to_canonical(guard_request_to_sexp(request))
        )
        with pytest.raises(WireError):
            cache.decode(frame)
        assert cache.hits == 1
        with pytest.raises(WireError):
            decode_command(frame)

    def test_oversize_requests_decode_uncached(self):
        """Neither layer may key on a peer-sized blob: 1 024 distinct
        ``(logical <1 MiB atom>)`` frames used to pin a gigabyte."""
        cache = DecodeCache()
        for index in range(8):
            blob = b"%04d" % index + b"x" * CACHED_BYTES_CEILING
            command = cache.decode(
                encode_check(index, GuardRequest(sexp(["web", blob])))
            )
            assert command.body.logical.items[1].value == blob
        retained = sum(map(len, cache._entries)) + sum(map(len, cache._fields))
        assert retained < CACHED_BYTES_CEILING
        # The small fields of those same frames are still shared.
        assert len(cache._fields) == 1

    def test_equal_fields_decode_to_shared_objects(self, alice_kp):
        """Two sessions asking one path of one issuer get the same
        ``logical`` and ``issuer`` objects, not equal copies."""
        issuer = KeyPrincipal(alice_kp.public)
        message = to_canonical(LOGICAL)
        cache = DecodeCache()
        first, second = (
            cache.decode(encode_check(index, GuardRequest(
                LOGICAL,
                issuer=issuer,
                credential=SessionCredential(
                    "session-%d" % index, b"tag", message
                ),
                transport="http",
            ))).body
            for index in (1, 2)
        )
        assert cache.hits == 0 and cache.misses == 2
        assert first is not second
        assert first.logical is second.logical
        assert first.issuer is second.issuer
        assert first.credential.session_id != second.credential.session_id

    @pytest.mark.parametrize("header", MALFORMED_ID_HEADERS)
    def test_learned_ok_reply_path_is_as_strict(self, header):
        granted = encode_reply(Reply(OK, 7, via="session", stage="cache"))
        assert decode_reply(granted).request_id == 7   # teaches the tail
        assert granted.startswith(b"(2:ok1:7")
        with pytest.raises(WireError):
            decode_reply(b"(2:ok" + header + granted[len(b"(2:ok1:7"):])


class TestReplyCodec:
    @pytest.mark.parametrize(
        "reply",
        [
            Reply(OK, 1, via="session", stage="prover"),
            Reply(PROOF_OK, 2),
            Reply(PONG, 3),
            Reply(DENIED, 4, message="no acceptable proof"),
            Reply(RETRY, 5, message="node crashed"),
            Reply(ERROR, 0, message="unparseable frame"),
        ],
    )
    def test_round_trips(self, reply):
        decoded = decode_reply(encode_reply(reply))
        assert decoded.status == reply.status
        assert decoded.request_id == reply.request_id
        assert decoded.via == reply.via
        assert decoded.stage == reply.stage
        assert decoded.message == reply.message

    def test_challenge_round_trips(self, server_kp):
        issuer = KeyPrincipal(server_kp.public)
        reply = Reply(CHALLENGE, 6, issuer=issuer, tag=Tag.all())
        decoded = decode_reply(encode_reply(reply))
        assert decoded.issuer == issuer
        assert decoded.tag.to_sexp() == Tag.all().to_sexp()

    def test_raise_for_status_maps_to_backend_exceptions(self, server_kp):
        issuer = KeyPrincipal(server_kp.public)
        assert Reply(OK, 1, via="v", stage="s").raise_for_status()
        with pytest.raises(NeedAuthorizationError) as need:
            Reply(CHALLENGE, 2, issuer=issuer,
                  tag=Tag.all()).raise_for_status()
        assert need.value.issuer == issuer
        with pytest.raises(AuthorizationError):
            Reply(DENIED, 3, message="nope").raise_for_status()
        with pytest.raises(NodeUnavailableError):
            Reply(RETRY, 4, message="crashed").raise_for_status()
        with pytest.raises(WireError):
            Reply(ERROR, 0, message="junk").raise_for_status()


#: Replies a broken or hostile server can send.  Each once escaped
#: ``decode_reply`` as something other than ``WireError`` (and the map
#: key decoded silently to ``{None: None}``).
HOSTILE_REPLIES = {
    "ok-via-not-an-atom": b"(2:ok1:1(3:via(1:x))(5:stage1:y))",
    "denied-message-not-an-atom": b"(6:denied1:1(1:x))",
    "denied-message-not-utf8": b"(6:denied1:11:\xff)",
    "ok-via-not-utf8": b"(2:ok1:1(3:via1:\xff)(5:stage1:y))",
    "stats-int-not-an-atom": b"(8:stats-ok1:1(3:int(1:a)))",
    "pong-uptime-not-an-atom": b"(4:pong1:1(6:uptime(1:a)))",
    "stats-map-key-not-an-atom": b"(8:stats-ok1:1(3:map((1:a)(3:nil))))",
    "stats-map-key-not-utf8": b"(8:stats-ok1:1(3:map(1:\xff(3:nil))))",
    "id-beyond-int-digits": b"(2:ok4400:" + b"1" * 4400 + b")",
    "stats-value-nested-too-deep": (
        b"(8:stats-ok1:1" + b"(3:vec" * 5000 + b")" * 5001
    ),
}


class TestHostileReplies:
    @pytest.mark.parametrize(
        "payload", list(HOSTILE_REPLIES.values()), ids=list(HOSTILE_REPLIES)
    )
    def test_is_a_wire_error(self, payload):
        with pytest.raises(WireError):
            decode_reply(payload)

    def test_an_id_beyond_int_digits_is_a_wire_error_in_a_command(self):
        """The request id header is shared with the command decoder: a
        check frame whose id ``int()`` refuses fails closed on both the
        full parser and the decode cache's sliced path."""
        digits = b"1" * 4400
        frame = b"(5:check%d:%s%s)" % (
            len(digits), digits,
            to_canonical(guard_request_to_sexp(
                GuardRequest(LOGICAL, transport="http")
            )),
        )
        with pytest.raises(WireError):
            decode_command(frame)
        with pytest.raises(WireError):
            DecodeCache().decode(frame)


class TestTraceField:
    def test_trace_id_rides_the_request_frame(self):
        request = GuardRequest(
            LOGICAL, transport="http", trace="deadbeef00000001"
        )
        assert _round_trip(request).trace == "deadbeef00000001"

    def test_absent_trace_decodes_to_none(self):
        decoded = _round_trip(GuardRequest(LOGICAL, transport="http"))
        assert decoded.trace is None


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            "text with spaces",
            [1, "two", None],
            {"a": 1, "b": {"c": [True, 2.5]}, "empty": []},
        ],
    )
    def test_round_trips(self, value):
        assert value_from_sexp(value_to_sexp(value)) == value

    def test_snapshot_sized_tree_round_trips(self):
        snapshot = {
            "uptime_s": 1.25,
            "counters": {"serve.replies.ok": 4, "guard.stage.prover": 2},
            "histograms": {
                "serve.batch_size": {
                    "count": 4,
                    "p50": 1.0,
                    "buckets": [["+inf", 4]],
                }
            },
            "sources": {"serve.l0": {"grants": 4}},
        }
        assert value_from_sexp(value_to_sexp(snapshot)) == snapshot

    def test_untagged_value_is_a_wire_error(self):
        with pytest.raises(WireError):
            value_from_sexp(sexp(["wat", "x"]))


class TestStatsCodec:
    def test_stats_command_round_trips(self):
        command = decode_command(encode_stats(9))
        assert command.op == "stats"
        assert command.request_id == 9

    def test_stats_reply_carries_the_snapshot(self):
        data = {"counters": {"serve.grants": 3}, "uptime_s": 1.25}
        decoded = decode_reply(encode_reply(Reply(STATS_OK, 9, data=data)))
        assert decoded.status == STATS_OK
        assert decoded.request_id == 9
        assert decoded.data == data


class TestPongVitalsCodec:
    def test_pong_round_trips_uptime_and_ignores_other_fields(self):
        reply = Reply(PONG, 3, uptime=1.5)
        decoded = decode_reply(encode_reply(reply))
        assert decoded.uptime == pytest.approx(1.5)
        # A peer that still sends the retired occupancy field is heard.
        decoded = decode_reply(b"(4:pong1:3(6:uptime3:1.5)(8:inflight1:22:32))")
        assert decoded.status == PONG and decoded.request_id == 3
        assert decoded.uptime == pytest.approx(1.5)

    def test_bare_pong_still_decodes(self):
        decoded = decode_reply(encode_reply(Reply(PONG, 4)))
        assert decoded.uptime is None
