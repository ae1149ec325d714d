"""Warm shard handoff.

The protocol under test: a draining node enumerates its warm state
(proof-cache entries, MAC sessions, channel bindings) into
:class:`HandoffRecord`\\ s and hands them, as objects, to the ring
successors inheriting each shard; receivers re-admit every record
through the guard import hooks, which re-validate against *their own*
premise snapshot, clock, and invalidation tombstones.  The safety
property — a handed-off proof is never a handed-off decision — is what
the refuse-stale tests pin down: state revoked between export and
install is refused, and the next check pays the full Prover path.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster.handoff import HandoffRecord, shard_key_for
from repro.cluster.membership import DRAINING, LEFT
from repro.cluster.ring import session_routing_key
from repro.core.principals import (
    ChannelPrincipal,
    HashPrincipal,
    KeyPrincipal,
    MacPrincipal,
)
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
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
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            HandoffRecord("rumor", 0, None)

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
        cluster.open_channel(channel, world.client)

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
        # The import hooks did the installing, and counted it.
        installed = sum(
            node.guard.stats["handoff_installed"] for node in cluster.nodes()
        )
        assert installed == report.installed
        imported_entries = sum(
            node.guard.cache.stats["imported"] for node in cluster.nodes()
        )
        assert imported_entries > 0
        imported_sessions = sum(
            node.guard.sessions.stats["imported"] for node in cluster.nodes()
        )
        assert imported_sessions >= 1

    def test_a_drain_parses_and_verifies_nothing(
        self, server_kp, alice_kp, rng, monkeypatch
    ):
        """Records are handed over as objects: no byte is encoded or
        parsed on the way, no signature is checked again (the export
        generation still matches), and each inheritor's cache entry
        holds the very proof the draining node exported."""
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

    def test_node_keeps_serving_while_draining(self, world):
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        victim = next(
            node for node in cluster.nodes()
            if node.guard.stats["checks"] > 0
        )
        cluster.membership.begin_drain(victim.node_id)
        assert cluster.membership.state_of(victim.node_id) == DRAINING
        # Still on the ring, still serving — a planned departure is
        # invisible at the request surface until the final leave.
        assert cluster.check(world.request()).granted
        assert victim in cluster.membership.alive()
        report = cluster.handoff.drain(victim)
        cluster.remove_node(victim.node_id)
        assert report.offered == report.installed + report.duplicates
        assert cluster.check(world.request()).granted

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
        holds the replicated set only, and a second drain hands the
        chain on again without a refusal or a signature check."""
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
        # The world's delegation is the cluster's whole replicated set.
        replicated = {
            lemma.digest() for lemma in world.delegation.speaks_for_lemmas()
        }
        for node in cluster.nodes():
            assert {edge.key for edge in node.prover.graph.edges()} <= replicated


class TestMembershipOrdering:
    def test_drain_then_leave_event_ordering(self, world):
        """Satellite: the membership event log shows DRAINING -> LEFT as
        ``drain`` then ``leave`` for the departing node, with the drain
        strictly before the ring update."""
        cluster = world.cluster
        victim = cluster.nodes()[0].node_id
        cluster.drain(victim)
        actions = [
            (event.action, event.node_id)
            for event in cluster.membership.events
            if event.node_id == victim
        ]
        assert actions == [("join", victim), ("drain", victim), ("leave", victim)]
        assert cluster.membership.state_of(victim) == LEFT

    def test_leave_finalizes_a_drain_in_progress(self, world):
        """The ``leave()`` docstring's old promise, now real: a draining
        node's leave is the drain path's final step, not an error."""
        membership = world.cluster.membership
        victim = world.cluster.nodes()[0].node_id
        membership.begin_drain(victim)
        assert membership.state_of(victim) == DRAINING
        membership.leave(victim)  # must not raise
        assert membership.state_of(victim) == LEFT

    def test_begin_drain_requires_an_up_node(self, world):
        membership = world.cluster.membership
        victim = world.cluster.nodes()[0].node_id
        membership.begin_drain(victim)
        with pytest.raises(ValueError):
            membership.begin_drain(victim)  # already draining
        membership.leave(victim)
        with pytest.raises(ValueError):
            membership.begin_drain(victim)  # already left

    def test_draining_node_still_heartbeats_and_sweeps_clean(self, world):
        membership = world.cluster.membership
        victim = world.cluster.nodes()[0].node_id
        membership.begin_drain(victim)
        membership.heartbeat(victim)  # must not raise
        assert membership.sweep() == []  # a fresh drain never lapses
        assert membership.state_of(victim) == DRAINING


class TestRefuseStale:
    def test_serial_revoked_between_export_and_install_is_refused(
        self, server_kp, alice_kp, rng
    ):
        """Satellite: the race the tombstones exist for.  A proof-cache
        entry exported from the draining node cites a serial that is
        revoked before the successor installs it: the import hook must
        refuse the record, and the next check for the speaker must take
        the full Prover path (over an independently-derivable chain) and
        leave a correct audit record."""
        world = ClusterWorld(server_kp, alice_kp, rng)
        cluster = world.cluster
        for _ in range(4):
            assert cluster.check(world.request()).granted
        victim = next(
            node for node in cluster.nodes()
            if node.guard.cache.count() > 0
        )

        # Export first (records now reference the original certificate's
        # serial), *then* revoke it and pump the bus so every receiver
        # tombstones the serial before install.
        plan = cluster.handoff.export_node(victim)
        cluster.revoke_serial(world.certificate.serial)
        cluster.deliver_invalidations()
        # An independent grant path with a fresh serial: the client is
        # still authorized — just not through the handed-off chain.
        replacement = Certificate.issue(
            world.server_kp, world.client, Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(replacement))

        installed = refused = 0
        receivers = []
        for successor_id, records in plan.items():
            receiver = cluster.membership.get(successor_id)
            receivers.append(receiver)
            got, bad, _ = cluster.handoff.install(receiver, records)
            installed += got
            refused += bad
        assert refused >= 1
        assert cluster.handoff.stats["records_refused_stale"] == refused
        assert sum(
            receiver.guard.stats["handoff_refused_stale"]
            for receiver in receivers
        ) == refused
        # Nothing citing the dead serial landed in any receiver cache.
        for receiver in receivers:
            for _, bucket in receiver.guard.cache.buckets.items():
                for entry in bucket.values():
                    assert world.certificate.serial not in entry.serials

        # Finalize the departure cold and check again: the successor
        # pays a real Prover search over the replacement chain and the
        # grant leaves a uniform audit record.
        cluster.remove_node(victim.node_id)
        owner = cluster.node_for_speaker(world.client)
        searches_before = owner.prover.stats["searches"]
        decision = cluster.check(world.request())
        assert decision.granted
        assert decision.stage == "prover"
        assert owner.prover.stats["searches"] == searches_before + 1
        record = decision.record
        assert isinstance(record, AuditRecord)
        assert record.speaker == world.client
        assert record.issuer == world.issuer

    def test_expired_session_is_refused_not_resurrected(
        self, server_kp, alice_kp, rng
    ):
        world = ClusterWorld(server_kp, alice_kp, rng, session_ttl=50.0)
        cluster = world.cluster
        mac_id, mac_key = _mint_session(world, rng)
        assert cluster.check(
            _session_request(world.issuer, mac_id, mac_key)
        ).granted
        victim = cluster.membership.node_for(session_routing_key(mac_id))
        plan = cluster.handoff.export_node(victim)
        # The session lapses in transit: the receiver's clock-based TTL
        # check must refuse it at install.
        world.clock.advance(60.0)
        refused = 0
        for successor_id, records in plan.items():
            receiver = cluster.membership.get(successor_id)
            _, bad, _ = cluster.handoff.install(receiver, records)
            refused += bad
        assert refused >= 1
        for node in cluster.nodes():
            if node is victim:
                continue
            assert node.guard.sessions.get(mac_id) is None

    def test_closed_channel_binding_is_refused(
        self, server_kp, alice_kp, rng
    ):
        world = ClusterWorld(server_kp, alice_kp, rng)
        cluster = world.cluster
        channel = ChannelPrincipal.of_secret(b"\x09" * 32)
        premise = cluster.open_channel(channel, world.client)
        # A cached chain over the binding, so the drain carries both a
        # channel record and a dependent proof record.
        chain = TransitivityStep(
            PremiseStep(SpeaksFor(channel, world.client, Tag.all())),
            world.delegation,
        )
        cluster.submit_proof(to_canonical(chain.to_sexp()))
        victim = cluster.node_for_speaker(channel)
        plan = cluster.handoff.export_node(victim)
        # Channel closes between export and install; the bus round
        # tombstones the canonical binding on every node.
        cluster.close_channel(premise)
        cluster.deliver_invalidations()
        refused = 0
        for successor_id, records in plan.items():
            receiver = cluster.membership.get(successor_id)
            _, bad, _ = cluster.handoff.install(receiver, records)
            refused += bad
        # Both the binding and every chain leaning on it are refused.
        assert refused >= 1
        for node in cluster.nodes():
            assert not node.trust.vouches_for(premise)
