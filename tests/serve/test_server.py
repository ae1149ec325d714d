"""The listener itself: batching, shutdown, crash retry.

Coalescing needs no timing: ``check_pipelined`` writes its whole window
as one buffer, and client and listener share one event loop, so the
connection's ``data_received`` finds every frame of the window in one
recv and serves them as ``max_batch`` slices, one per loop turn.
(Backpressure, framing errors and interleaving are exercised with raw
sockets in ``test_connection_properties.py``.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.guard import (
    GuardRequest,
    ProofCredential,
    SessionCredential,
    default_backend,
)
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import Prover
from repro.serve import ServeClient, ServeFleet, ServeListener
from repro.serve.protocol import (
    CHALLENGE,
    DENIED,
    encode_check,
    encode_frame,
    encode_ping,
    read_frame,
    decode_reply,
)
from repro.sexp import parse_canonical, sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag
from tests.serve.faults import CrashingBackend


class HookedBackend:
    """Delegate everything, but run ``hook`` the first time
    ``check_many`` is called — on the event loop, in the middle of the
    listener's first batch — and keep what it returned."""

    def __init__(self, backend, hook):
        self._backend = backend
        self._hook = hook
        self.hook_result = None
        self.batch_sizes = []

    def check_many(self, requests):
        if not self.batch_sizes:
            self.hook_result = self._hook()
        self.batch_sizes.append(len(requests))
        return self._backend.check_many(requests)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def _guard_world(server_kp, rng, sessions=4):
    backend = default_backend(
        TrustEnvironment(clock=SimClock()), check_charge=None,
        prover=Prover(),
    )
    issuer = KeyPrincipal(server_kp.public)
    minted = []
    for _ in range(sessions):
        mac_id, mac_key = backend.mint_session(rng)
        backend.digest_delegation(
            SignedCertificateStep(
                Certificate.issue(
                    server_kp, MacPrincipal(mac_key.fingerprint()),
                    Tag.all(), rng=rng,
                )
            )
        )
        minted.append((mac_id, mac_key))
    return backend, issuer, minted


def _request(issuer, minted, index):
    mac_id, mac_key = minted[index % len(minted)]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


class TestServing:
    def test_serial_requests_grant_and_pong(self, server_kp, rng):
        backend, issuer, minted = _guard_world(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            for index in range(4):
                reply = await client.check(_request(issuer, minted, index))
                assert reply.granted
                assert reply.via == "session"
            assert (await client.ping()).status == "pong"
            await client.close()
            await listener.shutdown()
            return listener.stats

        stats = asyncio.run(scenario())
        assert stats["grants"] == 4
        assert stats["pings"] == 1
        # Serial traffic: every batch is a batch of one.
        assert stats["batches"] >= stats["batched_requests"]

    def test_pipelined_requests_coalesce_into_batches(self, server_kp, rng):
        backend, issuer, minted = _guard_world(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            replies = await client.check_pipelined(
                [_request(issuer, minted, index) for index in range(8)]
            )
            await client.close()
            await listener.shutdown()
            return replies, listener.stats

        replies, stats = asyncio.run(scenario())
        assert all(reply.granted for reply in replies)
        # The window arrived as one buffer, so one recv framed all of
        # it and the pipeline coalesced.
        assert stats["batches"] < stats["batched_requests"] == 8
        assert stats["coalesced"] > 0

    def test_graceful_shutdown_drains_accepted_work(self, server_kp, rng):
        backend, issuer, minted = _guard_world(server_kp, rng)

        async def scenario():
            # The shutdown is requested from inside the first batch of
            # two, with the other four frames accepted but unserved.
            hooked = HookedBackend(
                backend, lambda: asyncio.ensure_future(fleet.shutdown())
            )
            fleet = ServeFleet(hooked, max_batch=2)
            [(host, port)] = await fleet.start()
            client = await ServeClient.connect(host, port)
            replies = await client.check_pipelined(
                [_request(issuer, minted, index) for index in range(6)]
            )
            await hooked.hook_result
            with pytest.raises((ConnectionError, OSError)):
                await ServeClient.connect(host, port)
            await client.close()
            return replies, hooked.batch_sizes

        replies, batch_sizes = asyncio.run(scenario())
        # Everything accepted before the shutdown was served...
        assert batch_sizes == [2, 2, 2]
        assert len(replies) == 6
        assert all(reply.granted for reply in replies)
        # ...and the listening socket is genuinely gone (the raises above).


class TestCrashRetry:
    def test_client_retries_once_and_is_granted(self, server_kp, rng):
        guard, issuer, minted = _guard_world(server_kp, rng)
        backend = CrashingBackend(guard)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            # The connection is live and serving...
            first = await client.check(_request(issuer, minted, 0))
            assert first.granted
            # ...when the backend fails the next batch it is handed.
            backend.crashes = 1
            reply = await client.check(_request(issuer, minted, 0))
            await client.close()
            await listener.shutdown()
            retries = client.metrics.counter("serve.client.retries")
            return reply, retries, listener.stats

        reply, client_retries, listener_stats = asyncio.run(scenario())
        # The wire saw RETRY, the client resent exactly once, and the
        # resend was granted.  The crashed attempt decided nothing.
        assert reply.granted
        assert client_retries == 1
        assert listener_stats["retries"] == 1
        assert listener_stats["grants"] == 2
        assert guard.metrics.histogram("guard.batch_size").total == 2


class TestWireErrors:
    def test_malformed_command_gets_an_id_zero_error(self, server_kp, rng):
        backend, issuer, minted = _guard_world(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(b"this is not an s-expression"))
            writer.write(encode_frame(encode_ping(5)))
            await writer.drain()
            replies = [
                decode_reply(await read_frame(reader)) for _ in range(2)
            ]
            writer.close()
            await writer.wait_closed()
            await listener.shutdown()
            return replies, listener.stats

        (error, pong), stats = asyncio.run(scenario())
        # The bad frame is answered (id 0: its id was unreadable) and
        # the connection keeps serving the good frame behind it.
        assert error.status == "error"
        assert error.request_id == 0
        assert pong.status == "pong"
        assert stats["errors"] == 1

    def test_a_malformed_certificate_is_denied_alone(self, server_kp, rng):
        """A presented proof whose certificate carries ``(signature (x))``
        — a list where the signature atom belongs — is DENIED on its
        own: the checks pipelined beside it are answered and the
        connection keeps serving."""
        backend, issuer, minted = _guard_world(server_kp, rng)
        logical = sexp(["web", ["method", "GET"], ["path", "/malformed"]])
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        cert = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
        wire = SignedCertificateStep(cert).canonical()
        signature = b"(9:signature%d:%s)" % (
            len(cert.signature), cert.signature
        )
        assert wire.count(signature) == 1
        malformed = GuardRequest(
            logical, issuer=issuer, transport="http",
            credential=ProofCredential(subject, wire=to_transport(
                parse_canonical(
                    wire.replace(signature, b"(9:signature(1:x))")
                )
            )),
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            replies = await asyncio.wait_for(client.check_pipelined([
                _request(issuer, minted, 0), malformed,
                _request(issuer, minted, 1),
            ]), timeout=10)
            pong = await asyncio.wait_for(client.ping(), timeout=10)
            await client.close()
            await listener.shutdown()
            return replies, pong

        (first, refused, second), pong = asyncio.run(scenario())
        assert first.granted and second.granted
        assert refused.status == DENIED
        assert "signature" in refused.message
        assert pong.status == "pong"

    def test_oversize_frame_errors_and_closes(self, server_kp, rng):
        backend, issuer, minted = _guard_world(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend, max_frame=64)
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            # Announce a frame far beyond the ceiling: unframeable, so
            # the server reports once and hangs up.
            writer.write(encode_frame(b"x" * 1000))
            await writer.drain()
            reply = decode_reply(await read_frame(reader))
            trailing = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            await listener.shutdown()
            return reply, trailing

        reply, trailing = asyncio.run(scenario())
        assert reply.status == "error"
        assert reply.request_id == 0
        assert trailing is None  # server closed after reporting


class TestRevocationOnTheWire:
    def test_revoked_speaker_replaying_identical_bytes_is_denied(
        self, server_kp, bob_kp, rng
    ):
        # The decode cache serves a question it has seen before without
        # re-parsing — but a cached *decode* must never become a cached
        # *decision*.  Two sessions hang off one group certificate.
        # Grant, revoke that certificate — nothing else runs before the
        # next frame — then (a) replay the first session's exact frame
        # bytes and (b) send the second session's frame for the same
        # path.  Both questions are memo hits; neither grant may stand.
        guard, issuer, _ = _guard_world(server_kp, rng, sessions=0)
        group = Certificate.issue(
            server_kp, KeyPrincipal(bob_kp.public), Tag.all(), rng=rng
        )
        guard.digest_delegation(SignedCertificateStep(group))
        minted = []
        for _ in range(2):
            mac_id, mac_key = guard.mint_session(rng)
            guard.digest_delegation(SignedCertificateStep(Certificate.issue(
                bob_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
                rng=rng,
            )))
            minted.append((mac_id, mac_key))

        def frame(request_id, session, path):
            request = _request(issuer, [minted[session]], path)
            return encode_frame(encode_check(request_id, request))

        async def scenario():
            listener = ServeListener(guard, metrics=MetricsRegistry())
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            async def send(payload):
                writer.write(payload)
                await writer.drain()
                return decode_reply(await read_frame(reader))
            def fields():
                return tuple(
                    listener.metrics.counter("serve.decode.field_" + name)
                    for name in ("hits", "misses")
                )

            first = await send(frame(7, 0, 0))
            # An identical replay while still authorized is granted.
            warm = await send(frame(7, 0, 0))
            # The other session's chain works too, on a new question.
            other = await send(frame(8, 1, 1))
            before = fields()
            guard.revoke_serial(group.serial)
            second = await send(frame(7, 0, 0))
            sibling = await send(frame(9, 1, 0))
            after = fields()
            writer.close()
            await writer.wait_closed()
            stats = listener.stats.copy()
            await listener.shutdown()
            return first, warm, other, second, sibling, stats, before, after

        first, warm, other, second, sibling, stats, before, after = (
            asyncio.run(scenario())
        )
        assert first.granted and warm.granted and other.granted
        # With their only chain revoked the speakers are back to square
        # one: the server challenges for a fresh proof, not a grant.
        assert second.status == CHALLENGE
        assert sibling.status == CHALLENGE
        assert stats["grants"] == 3 and stats["challenges"] == 2
        # Two questions, path 0 and path 1, each walked once: path 0's
        # transport, logical and issuer parsed; path 1's logical parsed
        # and the other two found in the field memo.  Every later frame
        # hit its question, the post-revoke ones included, and read its
        # credential by length prefix: no field was walked after the
        # revocation.
        assert stats["decode_hits"] == 3 and stats["decode_misses"] == 2
        assert before == (2, 4)
        assert after == before

    def test_sessions_share_decoded_fields_down_to_the_audit_log(
        self, server_kp, rng
    ):
        # Two sessions asking the same path: one decoded ``logical`` and
        # one ``issuer`` object between them, and the grants' audit
        # records hold those objects, not a parse tree each.
        backend, issuer, minted = _guard_world(server_kp, rng, sessions=2)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            for session in range(2):
                request = _request(issuer, [minted[session]], 5)
                assert (await client.check(request)).granted
            await client.close()
            await listener.shutdown()

        asyncio.run(scenario())
        first, second = backend.audit.records
        assert first.speaker != second.speaker
        assert first.request is second.request
        assert first.issuer is second.issuer
