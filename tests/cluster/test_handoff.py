"""A drain on the benchmark rig's front.

The rig sends ``drain node-1`` and reads the answer and the front's
``handoff`` stats.  A drain takes a name off the member list and
nothing else: the one guard keeps every cached chain, session and
channel binding, so ``installed`` counts the chains it kept, nothing is
parsed or verified, and the same traffic is answered from the cache.
These tests go with the front.
"""

from __future__ import annotations

import sys

from repro.core.principals import (
    ChannelPrincipal,
    HashPrincipal,
    KeyPrincipal,
    MacPrincipal,
)
from repro.core.proofs import SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.crypto.hashes import HashValue
from repro.crypto.rsa import RsaPublicKey
from repro.guard import GuardRequest, ProofCredential, SessionCredential
from repro.sexp import parser, sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import FrontWorld


def _session_request(issuer, mac_id, mac_key, index=0):
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def _mint_session(world):
    """A MAC session minted on the front's guard, its principal
    delegated the whole tag through ``add_delegation``."""
    mac_id, mac_key = world.guard.mint_session(world.rng)
    certificate = Certificate.issue(
        world.server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
        rng=world.rng,
    )
    world.cluster.add_delegation(SignedCertificateStep(certificate))
    return mac_id, mac_key


def _warm(world):
    """Grant a channel speaker and a MAC session four times each;
    returns the session."""
    for _ in range(4):
        assert world.check(world.request()).granted
    mac_id, mac_key = _mint_session(world)
    for index in range(4):
        assert world.check(
            _session_request(world.issuer, mac_id, mac_key, index)
        ).granted
    return mac_id, mac_key


def _count_parses(monkeypatch):
    """Count ``parse_canonical`` calls, however a ``repro`` module
    imported the function.  Returns the list the calls append to."""
    calls = []
    original = parser.parse_canonical

    def counted(data):
        calls.append(data)
        return original(data)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and (
            getattr(module, "parse_canonical", None) is original
        ):
            monkeypatch.setattr(module, "parse_canonical", counted)
    return calls


def _count_verifies(monkeypatch):
    """Count RSA signature checks.  Returns the list they append to."""
    verifies = []
    verify = RsaPublicKey.verify
    monkeypatch.setattr(
        RsaPublicKey, "verify",
        lambda key, message, signature: verifies.append(key)
        or verify(key, message, signature),
    )
    return verifies


class TestDrainTransfersWarmState:
    def test_drain_hands_over_proofs_sessions_and_channels(self, world):
        """A drain keeps cached chains, the MAC session and the channel
        binding: the same traffic grants from the cache with zero new
        prover searches, and the answer counts every chain kept."""
        cluster, guard = world.cluster, world.guard
        mac_id, mac_key = _warm(world)
        premise = guard.open_channel(
            ChannelPrincipal.of_secret(b"\x07" * 32), world.client
        )
        cached = guard.cache.count()
        searches = guard.metrics.counter("prover.searches")

        report = cluster.drain("node-1")

        assert report.node_id == "node-1"
        assert "node-1" not in cluster.members
        assert report.installed == cached > 0
        assert guard.cache.count() == cached
        for index in range(4):
            assert world.check(world.request()).stage == "cache"
            assert world.check(
                _session_request(world.issuer, mac_id, mac_key, index)
            ).stage == "cache"
        assert guard.metrics.counter("prover.searches") == searches
        handoff = cluster.stats_snapshot()["handoff"]
        assert handoff["records_installed"] == report.installed
        assert handoff["records_refused_stale"] == 0
        assert guard.trust.vouches_for(premise)
        assert guard.sessions.get(mac_id) is mac_key

    def test_a_drain_parses_and_verifies_nothing(self, world, monkeypatch):
        """Nothing moves: no byte is parsed, no signature is checked,
        and every cache entry is the very proof object it was before."""
        _warm(world)
        held = [
            (speaker, entry.proof)
            for speaker, bucket in world.guard.cache.buckets.items()
            for entry in bucket.values()
        ]
        parses = _count_parses(monkeypatch)
        verifies = _count_verifies(monkeypatch)

        report = world.cluster.drain("node-2")

        assert report.installed == len(held) > 0
        assert parses == []
        assert verifies == []
        for speaker, proof in held:
            entry = world.guard.cache.buckets[speaker][proof.digest()]
            assert entry.proof is proof

    def test_drain_report_feeds_the_aggregate_makespan(self, world):
        """A drain's measured duration is what the stats snapshot
        reports: 0.0 before any drain, the report's ``duration_ms``
        after one; the answer the rig prints is the report as a dict."""
        cluster = world.cluster
        for _ in range(4):
            assert world.check(world.request()).granted
        assert cluster.stats_snapshot()["handoff"]["last_drain_ms"] == 0.0
        report = cluster.drain(cluster.members[0])
        handoff = cluster.stats_snapshot()["handoff"]
        assert report.duration_ms >= 0.0
        assert handoff["last_drain_ms"] == report.duration_ms
        assert handoff["drains"] == 1
        assert report.as_dict() == {
            "node_id": report.node_id,
            "installed": report.installed,
            "duration_ms": report.duration_ms,
        }

    def test_a_presented_chain_survives_a_second_drain(
        self, server_kp, alice_kp, bob_kp, rng, monkeypatch
    ):
        """A chain a client presented is cached state, not a delegation:
        the graph holds the delegations handed to ``add_delegation``
        only, and two drains later every presentation is still answered
        without a signature check."""
        world = FrontWorld(server_kp, alice_kp, rng)
        cluster = world.cluster
        middle = KeyPrincipal(bob_kp.public)
        requests = []
        for index in range(24):
            logical = sexp(
                ["web", ["method", "GET"], ["path", "/p-%d" % index]]
            )
            subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
            chain = TransitivityStep(
                SignedCertificateStep(
                    Certificate.issue(bob_kp, subject, Tag.all(), rng=rng)
                ),
                SignedCertificateStep(
                    Certificate.issue(server_kp, middle, Tag.all(), rng=rng)
                ),
            )
            requests.append(GuardRequest(
                logical, issuer=world.issuer, transport="http",
                credential=ProofCredential(
                    subject, wire=to_transport(chain.to_sexp())
                ),
            ))
        assert all(d.granted for d in cluster.check_many(requests))

        first = cluster.drain(cluster.members[0])
        verifies = _count_verifies(monkeypatch)
        second = cluster.drain(cluster.members[0])
        assert first.installed == second.installed > 0
        assert all(d.granted for d in cluster.check_many(requests))
        assert verifies == []
        delegated = {
            lemma.digest() for lemma in world.delegation.speaks_for_lemmas()
        }
        graph = world.guard.prover.graph
        assert {edge.key for edge in graph.edges()} <= delegated
