"""A served request charges no cost model.

The paper's Table 1 and Figures 6–8 price a 2000-era server with a
``Meter``; those reproductions build their own metered guards and
transports.  The default guard serves real traffic, so no credential
path — single or batched, in process or through a loopback listener —
may reach ``Meter.charge``.
"""

from __future__ import annotations

import asyncio

from repro.core.principals import (
    ChannelPrincipal,
    HashPrincipal,
    KeyPrincipal,
    MacPrincipal,
)
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.crypto.hashes import HashValue
from repro.guard import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
    default_backend,
)
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.serve import ServeClient, ServeFleet
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim.costmodel import Meter
from repro.spki import Certificate
from repro.tags import Tag


def _logical(path):
    return sexp(["web", ["method", "GET"], ["path", path]])


def _session_request(issuer, mac_id, mac_key, path, proof_wire=None):
    logical = _logical(path)
    message = to_canonical(logical)
    return GuardRequest(
        logical, issuer=issuer, transport="http",
        credential=SessionCredential(
            mac_id, mac_key.tag(message), message, proof_wire=proof_wire
        ),
    )


def _every_credential_path(guard, server_kp, alice_kp, bob_kp, rng):
    """One request per credential path, each granted once its setup ran:
    the MAC fast path, a session's first-request chain, a presented
    proof, a channel, and a key whose chain came in by ``submit_proof``."""
    issuer = KeyPrincipal(server_kp.public)

    def delegation(subject):
        return SignedCertificateStep(
            Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
        )

    mac_id, mac_key = guard.mint_session(rng)
    guard.digest_delegation(delegation(MacPrincipal(mac_key.fingerprint())))
    fast = _session_request(issuer, mac_id, mac_key, "/fast")

    first_id, first_key = guard.mint_session(rng)
    chain = delegation(MacPrincipal(first_key.fingerprint()))
    first = _session_request(
        issuer, first_id, first_key, "/first",
        proof_wire=to_transport(chain.to_sexp()),
    )

    logical = _logical("/presented")
    subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
    presented = GuardRequest(
        logical, issuer=issuer, transport="http",
        credential=ProofCredential(
            subject, wire=to_transport(delegation(subject).to_sexp())
        ),
    )

    client = KeyPrincipal(alice_kp.public)
    channel_speaker = ChannelPrincipal.of_secret(b"unmetered-conn")
    premise = guard.open_channel(channel_speaker, client)
    guard.submit_proof(to_canonical(TransitivityStep(
        PremiseStep(premise), delegation(client)
    ).to_sexp()))
    channel = GuardRequest(
        _logical("/channel"), issuer=issuer, transport="rmi",
        credential=ChannelCredential(channel_speaker),
    )

    bob = KeyPrincipal(bob_kp.public)
    guard.submit_proof(to_canonical(delegation(bob).to_sexp()))
    submitted = GuardRequest(
        _logical("/submitted"), issuer=issuer, transport="rmi",
        credential=ChannelCredential(bob),
    )
    return [fast, first, presented, channel, submitted]


def test_no_served_request_charges_a_meter(
    server_kp, alice_kp, bob_kp, rng, monkeypatch
):
    charges = []
    charge = Meter.charge

    def counted(meter, operation, times=1.0):
        charges.append(operation)
        return charge(meter, operation, times)

    monkeypatch.setattr(Meter, "charge", counted)
    guard = default_backend(TrustEnvironment(), prover=Prover(), rng=rng)
    requests = _every_credential_path(
        guard, server_kp, alice_kp, bob_kp, rng
    )

    for request in requests:
        assert guard.check(request).granted
    assert all(decision.granted for decision in guard.check_many(requests))

    async def over_the_wire():
        fleet = ServeFleet(guard, listeners=1)
        ((host, port),) = await fleet.start()
        client = await ServeClient.connect(host, port)
        try:
            single = await client.check(requests[0])
            window = await client.check_pipelined(requests)
        finally:
            await client.close()
            await fleet.shutdown()
        return [single] + window

    replies = asyncio.run(over_the_wire())
    assert [reply.status for reply in replies] == ["ok"] * 6
    assert charges == []
    assert guard.meter is None
