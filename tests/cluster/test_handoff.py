"""Warm shard handoff.

The protocol under test: a drain hands the draining node's cached
chains, as objects, to the import hook of the ring successors inheriting
each shard, then leaves.  Channel bindings and MAC sessions are the
cluster's, held once, so they need no hand-over.  The refuse-stale tests
pin that a revocation published before the drain — applied on every
node when it was published — never rides it into an inheritor's cache.
The import hook's own refusals are driven on one guard in
``tests/guard/test_import_hooks.py``.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster.ring import shard_key_for
from repro.cluster.membership import LEFT
from repro.cluster.ring import session_routing_key
from repro.core.errors import AuthorizationError, NeedAuthorizationError
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
from repro.guard.audit import AuditRecord
from repro.sexp import parser, sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import ClusterWorld


def _session_request(issuer, mac_id, mac_key, index=0):
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def _mint_session(world, rng):
    mac_id, mac_key = world.cluster.mint_session(rng)
    certificate = Certificate.issue(
        world.server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
        rng=rng,
    )
    world.cluster.add_delegation(SignedCertificateStep(certificate))
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


class TestRecordCodec:
    def test_mac_speaker_shards_by_session_id(self, world, rng):
        """A MAC speaker's cached chains are owned as its *requests* are,
        by session id — not by principal fingerprint."""
        mac_id, mac_key = world.cluster.mint_session(rng)
        speaker = MacPrincipal(mac_key.fingerprint())
        assert shard_key_for(speaker) == session_routing_key(mac_id)
        assert shard_key_for(world.client) != session_routing_key(mac_id)


class TestDrainTransfersWarmState:
    def test_drain_hands_over_proofs_sessions_and_channels(
        self, server_kp, alice_kp, rng
    ):
        """A drain keeps cached chains; a MAC session and a channel
        binding are the cluster's, so they hold across it untouched —
        the session still grants, and still dies at its original mint
        time plus the TTL."""
        world = ClusterWorld(server_kp, alice_kp, rng, session_ttl=100.0)
        cluster = world.cluster

        # Warm every kind of state: a channel-credential speaker (cached
        # chain), a MAC session (secret + fastpath chain), and a live
        # channel binding.
        for index in range(4):
            assert cluster.check(world.request()).granted
        mac_id, mac_key = _mint_session(world, rng)
        for index in range(4):
            assert cluster.check(
                _session_request(world.issuer, mac_id, mac_key, index)
            ).granted
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        premise = cluster.open_channel(channel, world.client)

        victim = cluster.node_for_speaker(world.client)
        cached = cluster.guard.cache.count()
        searches = cluster.guard.prover.stats["searches"]
        report = cluster.drain(victim.node_id)

        assert report.node_id == victim.node_id
        assert report.installed > 0
        assert cluster.membership.state_of(victim.node_id) == LEFT
        assert cluster.node_for_speaker(world.client) is not victim
        assert cluster.guard.cache.count() == cached

        # The drained speakers are warm: the same traffic grants from the
        # cache with zero new Prover searches.
        for index in range(4):
            assert cluster.check(world.request()).stage == "cache"
            assert cluster.check(
                _session_request(world.issuer, mac_id, mac_key, index)
            ).stage == "cache"
        assert cluster.guard.prover.stats["searches"] == searches
        handoff = cluster.stats_snapshot()["handoff"]
        assert handoff["records_installed"] == report.installed
        assert handoff["records_refused_stale"] == 0
        # Nothing else moved, because nothing else was the node's own.
        assert cluster.trust.vouches_for(premise)
        assert cluster.sessions.get(mac_id) is mac_key

        world.clock.advance(101.0)  # past the original mint + TTL
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(_session_request(world.issuer, mac_id, mac_key))

    def test_a_drain_parses_and_verifies_nothing(
        self, server_kp, alice_kp, rng, monkeypatch
    ):
        """Nothing moves: no byte is encoded or parsed, no signature is
        checked, and every cache entry is the very proof object it was
        before."""
        world = ClusterWorld(server_kp, alice_kp, rng, session_ttl=100.0)
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        mac_id, mac_key = _mint_session(world, rng)
        for index in range(4):
            assert cluster.check(
                _session_request(world.issuer, mac_id, mac_key, index)
            ).granted
        cluster.open_channel(
            ChannelPrincipal.of_secret(b"\x0b" * 32), world.client
        )
        victim = cluster.membership.node_for(session_routing_key(mac_id))
        held = [
            (speaker, entry.proof)
            for speaker, bucket in cluster.guard.cache.buckets.items()
            for entry in bucket.values()
        ]

        parses = _count_parses(monkeypatch)
        verifies = []
        verify = RsaPublicKey.verify
        monkeypatch.setattr(
            RsaPublicKey, "verify",
            lambda key, message, signature: verifies.append(key)
            or verify(key, message, signature),
        )
        report = cluster.drain(victim.node_id)

        assert report.installed > 0
        assert parses == []
        assert verifies == []
        for speaker, proof in held:
            entry = cluster.guard.cache.buckets[speaker][proof.digest()]
            assert entry.proof is proof

    def test_drain_report_feeds_the_aggregate_makespan(self, world):
        """A drain's measured duration is what the stats snapshot (the
        cluster's aggregate view) reports: 0.0 before any drain, the
        report's ``duration_ms`` after one."""
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        assert cluster.stats_snapshot()["handoff"]["last_drain_ms"] == 0.0
        report = cluster.drain(cluster.nodes()[0].node_id)
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
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=4)
        cluster = world.cluster
        middle = KeyPrincipal(bob_kp.public)
        requests = []
        for index in range(24):
            logical = sexp(["web", ["method", "GET"], ["path", "/p-%d" % index]])
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
        assert all(decision.granted for decision in cluster.check_many(requests))

        first = cluster.drain(cluster.nodes()[0].node_id)
        verifies = []
        verify = RsaPublicKey.verify
        monkeypatch.setattr(
            RsaPublicKey, "verify",
            lambda key, message, signature: verifies.append(key)
            or verify(key, message, signature),
        )
        second = cluster.drain(cluster.nodes()[0].node_id)
        assert first.installed + second.installed > 0
        assert all(decision.granted for decision in cluster.check_many(requests))
        assert verifies == []
        # The world's delegation is all the cluster was handed.
        delegated = {
            lemma.digest() for lemma in world.delegation.speaks_for_lemmas()
        }
        assert {edge.key for edge in cluster.graph.edges()} <= delegated


class TestMembershipOrdering:
    def test_drain_then_leave_event_ordering(self, world):
        """A drain has no state of its own: the membership event log
        shows the departing node's ``join`` and then its one ``leave``,
        and ``handoff.drains`` counts the drain."""
        cluster = world.cluster
        victim = cluster.nodes()[0].node_id
        cluster.drain(victim)
        actions = [
            (event.action, event.node_id)
            for event in cluster.membership.events
            if event.node_id == victim
        ]
        assert actions == [("join", victim), ("leave", victim)]
        assert cluster.membership.state_of(victim) == LEFT
        assert cluster.stats_snapshot()["handoff"]["drains"] == 1
        with pytest.raises(ValueError):
            cluster.drain(victim)  # already left
        assert cluster.stats_snapshot()["handoff"]["drains"] == 1


def _cached_serials(cluster):
    return {
        serial
        for bucket in cluster.guard.cache.buckets.values()
        for entry in bucket.values()
        for serial in entry.serials
    }


class TestRefuseStale:
    def test_a_revoke_the_heir_forgot_does_not_ride_the_drain(self, world):
        """A revoked chain is not granted after a drain: the revoke
        purged the cached chain and its tombstone is kept for good, so
        neither 4 097 later revocations nor the drain of the speaker's
        owner bring it back."""
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        victim = cluster.node_for_speaker(world.client)
        cluster.revoke_serial(world.certificate.serial)
        for index in range(4097):
            cluster.revoke_serial(b"unrelated-%d" % index)

        cluster.drain(victim.node_id)

        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())
        assert world.certificate.serial not in _cached_serials(cluster)

    def test_a_revoke_still_on_the_bus_is_applied_before_the_hand_over(
        self, world, rng
    ):
        """The revoke is published and the drain runs on the very next
        call.  Nothing citing the serial is left in the cache, and the
        next check is granted only by an independent chain, through the
        Prover, with a correct audit record."""
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        victim = cluster.node_for_speaker(world.client)
        cluster.revoke_serial(world.certificate.serial)
        replacement = Certificate.issue(
            world.server_kp, world.client, Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(replacement))

        report = cluster.drain(victim.node_id)

        assert report.installed == 0
        assert world.certificate.serial not in _cached_serials(cluster)
        assert cluster.node_for_speaker(world.client) is not victim
        prover = cluster.guard.prover
        searches_before = prover.stats["searches"]
        decision = cluster.check(world.request())
        assert decision.granted
        assert decision.stage == "prover"
        assert prover.stats["searches"] == searches_before + 1
        assert world.certificate.serial not in _cached_serials(cluster)
        record = decision.record
        assert isinstance(record, AuditRecord)
        assert record.speaker == world.client
        assert record.issuer == world.issuer
