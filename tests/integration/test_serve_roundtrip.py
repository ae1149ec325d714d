"""The transport request shapes, end-to-end over a real serve socket.

``tests/integration/test_backend_routing.py`` proves the http and rmi
flows are backend-agnostic *in process*.  This file proves the same
shapes survive the wire: the http proof-carrying request and the rmi
challenge → submit-proof → retry conversation each run through a real
loopback TCP socket into a :class:`ServeListener` over a
:class:`~repro.guard.Guard`, uncharged or as ``repro.tools serve``
builds it.  Transports own framing; authorization stays behind
``AuthBackend``, now with a socket in between.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.crypto.hashes import HashValue
from repro.guard import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    default_backend,
)
from repro.net.trust import TrustEnvironment
from repro.prover import KeyClosure, Prover
from repro.serve import ServeClient, ServeListener
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import parse_tag

WEB_TAG = "(tag (web))"
RMI_TAG = "(tag (rmi))"


#: ``guard`` charges nothing per check; ``frontend`` is the guard as
#: ``repro.tools serve`` hands it to a listener, every other knob at its
#: default.
BACKENDS = ["guard", "frontend"]


def make_backend(kind, trust):
    if kind == "guard":
        return default_backend(trust, check_charge=None, prover=Prover())
    return default_backend(trust, prover=Prover())


def _prover_for(holder_kp, server_kp, rng, tag=WEB_TAG):
    prover = Prover()
    prover.control(KeyClosure(holder_kp, rng))
    prover.add_certificate(
        Certificate.issue(
            server_kp, KeyPrincipal(holder_kp.public),
            parse_tag(tag), rng=rng,
        )
    )
    return prover


@pytest.mark.parametrize("kind", BACKENDS)
class TestHttpShapeOverTheWire:
    """The http idiom: the proof rides the request, bound to its hash."""

    def test_proof_carrying_request_grants(
        self, kind, server_kp, alice_kp, rng
    ):
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        backend = make_backend(kind, trust)
        prover = _prover_for(alice_kp, server_kp, rng)

        logical = sexp(["web", ["method", "GET"], ["path", "/doc"]])
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        proof = prover.prove(subject, issuer, min_tag=parse_tag(WEB_TAG))

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            granted = await client.check(
                GuardRequest(
                    logical,
                    issuer=issuer,
                    credential=ProofCredential(
                        subject, wire=to_transport(proof.to_sexp())
                    ),
                    transport="http",
                )
            )
            # The same proof bound to the wrong request hash: denied.
            other = HashPrincipal(HashValue.of_bytes(b"a different body"))
            mismatched = await client.check(
                GuardRequest(
                    logical,
                    issuer=issuer,
                    credential=ProofCredential(
                        other, wire=to_transport(proof.to_sexp())
                    ),
                    transport="http",
                )
            )
            # And no credential at all: denied, not challenged.
            naked = await client.check(
                GuardRequest(logical, issuer=issuer, transport="http")
            )
            await client.close()
            await listener.shutdown()
            return granted, mismatched, naked

        granted, mismatched, naked = asyncio.run(scenario())
        assert granted.granted
        assert mismatched.status == "denied"
        assert naked.status == "denied"
        assert "credential" in naked.message
        # The grant is in the audit trail, whichever node served it.
        audited = backend.audit.by_transport("http")
        assert len([entry for entry in audited]) >= 1


@pytest.mark.parametrize("kind", BACKENDS)
class TestRmiShapeOverTheWire:
    """The rmi idiom: challenge, submit the proof, retry, grant."""

    def test_challenge_then_submit_proof_then_grant(
        self, kind, server_kp, bob_kp, rng
    ):
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        backend = make_backend(kind, trust)
        speaker = KeyPrincipal(bob_kp.public)
        logical = sexp(["rmi", ["method", "frob"], ["arg", "42"]])

        def request():
            return GuardRequest(
                logical,
                issuer=issuer,
                min_tag=parse_tag(RMI_TAG),
                credential=ChannelCredential(speaker),
                transport="rmi",
            )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            challenge = await client.check(request())
            assert challenge.status == "challenge"
            # The wire carried the whole challenge: who to speak for,
            # regarding what.
            assert challenge.issuer == issuer
            prover = _prover_for(bob_kp, server_kp, rng, tag=RMI_TAG)
            proof = prover.prove(
                speaker, challenge.issuer, min_tag=challenge.tag
            )
            submitted = await client.submit_proof(
                to_canonical(proof.to_sexp())
            )
            assert submitted.status == "proof-ok"
            granted = await client.check(request())
            await client.close()
            await listener.shutdown()
            return granted

        granted = asyncio.run(scenario())
        assert granted.granted
        assert len(backend.audit.by_transport("rmi")) >= 1
