"""Warm shard handoff.

The protocol under test: a drain runs one invalidation-bus round, then
hands the draining node's cached chains, as objects, to the import hook
of the ring successors inheriting each shard, then leaves.  Channel
bindings and MAC sessions are the cluster's, held once, so they need no
hand-over.  The refuse-stale tests
pin the bus-round-first invariant: a revocation published anywhere
before the drain never rides it into an inheritor's cache.  The import
hook's own refusals are driven on one guard in
``tests/guard/test_import_hooks.py``.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster.handoff import shard_key_for
from repro.cluster.membership import LEFT, UP
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
        """A MAC speaker's warm state must follow its *requests*, which
        route by session id — not by principal fingerprint."""
        mac_id, mac_key = world.cluster.mint_session(rng)
        speaker = MacPrincipal(mac_key.fingerprint())
        assert shard_key_for(speaker) == session_routing_key(mac_id)
        assert shard_key_for(world.client) != session_routing_key(mac_id)


class TestDrainTransfersWarmState:
    def test_drain_hands_over_proofs_sessions_and_channels(
        self, server_kp, alice_kp, rng
    ):
        """A drain hands over cached chains; a MAC session and a channel
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

        victim = next(
            node for node in cluster.nodes()
            if node.guard.cache.count() > 0
        )
        baseline = {
            node.node_id: node.prover.stats["searches"]
            for node in cluster.nodes()
        }
        report = cluster.drain(victim.node_id)

        assert report.node_id == victim.node_id
        assert report.offered > 0
        assert report.installed == report.offered
        assert report.refused == 0
        assert victim.node_id not in report.successors
        assert cluster.membership.state_of(victim.node_id) == LEFT

        # The inherited shards are warm: the same traffic grants with
        # zero new Prover searches anywhere in the cluster.
        for index in range(4):
            assert cluster.check(world.request()).granted
            assert cluster.check(
                _session_request(world.issuer, mac_id, mac_key, index)
            ).granted
        for node in cluster.nodes():
            assert node.prover.stats["searches"] == baseline[node.node_id]
        # The import hook did the installing, and counted it.
        installed = sum(
            node.guard.stats["handoff_installed"] for node in cluster.nodes()
        )
        assert installed == report.installed
        imported_entries = sum(
            node.guard.cache.stats["imported"] for node in cluster.nodes()
        )
        assert imported_entries == report.installed
        # Nothing else moved, because nothing else was the node's own.
        assert cluster.trust.vouches_for(premise)
        assert cluster.sessions.get(mac_id) is mac_key

        world.clock.advance(101.0)  # past the original mint + TTL
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(_session_request(world.issuer, mac_id, mac_key))

    def test_a_drain_parses_and_verifies_nothing(
        self, server_kp, alice_kp, rng, monkeypatch
    ):
        """Records are handed over as objects: no byte is encoded or
        parsed on the way, no signature is checked again, and each
        inheritor's cache entry holds the very proof the draining node
        exported."""
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
        victim = max(cluster.nodes(), key=lambda node: node.guard.cache.count())
        exported = victim.guard.export_proof_entries()
        assert exported

        parses = _count_parses(monkeypatch)
        verifies = []
        verify = RsaPublicKey.verify
        monkeypatch.setattr(
            RsaPublicKey, "verify",
            lambda key, message, signature: verifies.append(key)
            or verify(key, message, signature),
        )
        report = cluster.drain(victim.node_id)

        assert report.offered > 0
        assert report.installed == report.offered
        assert parses == []
        assert verifies == []
        for speaker, proof in exported:
            owner = cluster.membership.node_for(shard_key_for(speaker))
            entry = owner.guard.cache.buckets[speaker][proof.digest()]
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

    def test_a_presented_chain_survives_a_second_drain(
        self, server_kp, alice_kp, bob_kp, rng, monkeypatch
    ):
        """A chain a client presented is warm state, not a delegation.
        An import must not turn its leaves into graph edges: the graph
        holds the delegations handed to ``add_delegation`` only, and a
        second drain hands the chain on again without a refusal or a
        signature check."""
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
        assert first.refused == 0
        fullest = max(cluster.nodes(), key=lambda node: node.guard.cache.count())
        verifies = []
        verify = RsaPublicKey.verify
        monkeypatch.setattr(
            RsaPublicKey, "verify",
            lambda key, message, signature: verifies.append(key)
            or verify(key, message, signature),
        )
        second = cluster.drain(fullest.node_id)
        assert second.offered > 0
        assert second.refused == 0
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
        assert cluster.handoff.stats["drains"] == 1
        with pytest.raises(ValueError):
            cluster.drain(victim)  # already left: nothing is handed over
        assert cluster.handoff.stats["drains"] == 1


def _heir(cluster, speaker, victim_id):
    """The node inheriting ``speaker``'s shard when ``victim_id``
    drains: the first UP ring successor of its key other than the
    victim."""
    membership = cluster.membership
    key = shard_key_for(speaker)
    return next(
        membership.get(node_id)
        for node_id in membership.ring.successors(key, len(membership.ring))
        if node_id != victim_id and membership.state_of(node_id) == UP
    )


def _cached_serials(cluster):
    return {
        serial
        for node in cluster.nodes()
        for bucket in node.guard.cache.buckets.values()
        for entry in bucket.values()
        for serial in entry.serials
    }


class TestRefuseStale:
    def test_a_revoke_the_heir_forgot_does_not_ride_the_drain(
        self, world, monkeypatch
    ):
        """The revoke is applied at the heir, its origin, and has not
        reached the owner; the heir's tombstone then ages out with no
        bus round in between.  Were the owner's cached chain handed over
        before a bus round, it would re-validate clean on the heir, and
        the speaker would be granted from that cache after the drain."""
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        victim = cluster.node_for_speaker(world.client)
        heir = _heir(cluster, world.client, victim.node_id)
        cluster.revoke_serial(world.certificate.serial, via=heir.node_id)
        monkeypatch.setattr(heir.guard, "TOMBSTONE_LIMIT", 1)
        cluster.revoke_serial(b"unrelated-serial", via=heir.node_id)

        cluster.drain(victim.node_id)
        cluster.deliver_invalidations()

        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())
        assert world.certificate.serial not in _cached_serials(cluster)

    def test_a_revoke_still_on_the_bus_is_applied_before_the_hand_over(
        self, world, rng
    ):
        """Bus lag: the revoke is applied at a bystander (neither the
        owner nor the heir) and the drain starts before any bus round.
        Nothing citing the serial lands in any cache, and the next
        check is granted only by an independent chain, through the
        Prover, with a correct audit record."""
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        victim = cluster.node_for_speaker(world.client)
        heir = _heir(cluster, world.client, victim.node_id)
        bystander = next(
            node for node in cluster.nodes() if node not in (victim, heir)
        )
        cluster.revoke_serial(world.certificate.serial, via=bystander.node_id)
        replacement = Certificate.issue(
            world.server_kp, world.client, Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(replacement))

        report = cluster.drain(victim.node_id)

        assert report.refused == 0
        assert world.certificate.serial not in _cached_serials(cluster)
        owner = cluster.node_for_speaker(world.client)
        assert owner is heir
        searches_before = owner.prover.stats["searches"]
        decision = cluster.check(world.request())
        assert decision.granted
        assert decision.stage == "prover"
        assert owner.prover.stats["searches"] == searches_before + 1
        assert world.certificate.serial not in _cached_serials(cluster)
        record = decision.record
        assert isinstance(record, AuditRecord)
        assert record.speaker == world.client
        assert record.issuer == world.issuer
