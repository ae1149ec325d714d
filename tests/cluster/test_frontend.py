"""Cluster properties every front end relies on: the merged,
time-ordered cluster audit view with its retention cap.
"""

import pytest

from repro.cluster import ClusterAuditView
from repro.core.principals import KeyPrincipal

from tests.cluster.conftest import ClusterWorld


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    return ClusterWorld(server_kp, alice_kp, rng, nodes=4)


class TestMergedAudit:
    def test_records_merge_time_ordered_across_nodes(self, world):
        cluster = world.cluster
        # Grants at strictly increasing timestamps.
        for index in range(6):
            world.clock.advance(1.0)
            logical = ["web", ["path", "/t-%d" % index]]
            assert cluster.check(world.request(logical=logical)).granted
        merged = cluster.audit.records
        assert len(merged) == 6
        stamps = [record.when for record in merged]
        assert stamps == sorted(stamps)

    def test_merge_spans_multiple_nodes(self, world, bob_kp, carol_kp,
                                        server_kp, rng):
        from repro.core.proofs import SignedCertificateStep
        from repro.spki import Certificate
        from repro.tags import Tag

        cluster = world.cluster
        others = []
        for keypair in (bob_kp, carol_kp):
            principal = KeyPrincipal(keypair.public)
            certificate = Certificate.issue(
                server_kp, principal, Tag.all(), rng=rng
            )
            cluster.add_delegation(SignedCertificateStep(certificate))
            others.append(principal)
        all_speakers = [world.client] + others
        for speaker in all_speakers * 2:
            world.clock.advance(1.0)
            assert cluster.check(world.request(speaker=speaker)).granted
        contributing = [
            node
            for node in cluster.nodes()
            if len(node.guard.audit.records) > 0
        ]
        assert len(contributing) >= 2  # the merge had real work to do
        merged = cluster.audit.records
        assert len(merged) == 2 * len(all_speakers)
        stamps = [record.when for record in merged]
        assert stamps == sorted(stamps)

    def test_retention_cap_keeps_most_recent(self, world):
        cluster = world.cluster
        for index in range(8):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        view = ClusterAuditView(cluster.membership, retain=3)
        records = view.records
        assert len(records) == 3
        assert records[-1].when == max(
            record.when for record in cluster.audit.records
        )
        assert len(view) == 3

    def test_failed_nodes_history_survives_in_the_merge(self, world):
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        owner = [
            node for node in cluster.nodes() if node.guard.stats["grants"]
        ][0]
        cluster.fail_node(owner.node_id)
        assert len(cluster.audit.records) == 1

    def test_drained_nodes_tail_stays_in_the_merge_in_clock_order(
        self, world
    ):
        """A drain moves a node's shards, not its history: the records it
        wrote before leaving interleave with its inheritor's by clock."""
        cluster = world.cluster
        for index in range(3):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        (owner,) = [
            node for node in cluster.nodes() if node.guard.stats["grants"]
        ]
        cluster.drain(owner.node_id)
        assert owner not in cluster.nodes()
        for index in range(2):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        merged = cluster.audit.records
        assert [record.when for record in merged] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert merged[:3] == owner.guard.audit.records
        assert len(cluster.audit) == 5

    def test_audit_retain_sizes_every_nodes_ring_and_the_view(
        self, server_kp, alice_kp, rng
    ):
        seen = []
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=2,
            audit_retain=3, audit_sink=seen.append,
        )
        cluster = world.cluster
        joined = cluster.add_node()  # a later join gets the same ring
        assert [node.guard.audit.retain for node in cluster.nodes()] == [3] * 3
        assert joined.guard.audit.sink == seen.append
        assert cluster.audit.retain == 3
        for index in range(7):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        # One speaker, one owner: its ring wrapped; the sink saw all 7.
        assert [record.when for record in seen] == [1, 2, 3, 4, 5, 6, 7]
        assert [record.when for record in cluster.audit.records] == [5, 6, 7]
        assert (cluster.audit.recorded, cluster.audit.evicted) == (7, 4)
        assert cluster.metrics.counter("guard.audit.evicted") >= 4

    def test_default_cluster_rings_are_bounded(self, world):
        from repro.guard.audit import AUDIT_RETAIN

        assert all(
            node.guard.audit.retain == AUDIT_RETAIN
            for node in world.cluster.nodes()
        )
        assert world.cluster.audit.retain is None  # bounded by the rings

    def test_len_does_not_materialise_the_merge(self, world, monkeypatch):
        cluster = world.cluster
        for index in range(4):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted

        def no_merge(self):
            raise AssertionError("len() merged the logs")

        monkeypatch.setattr(ClusterAuditView, "_merged", no_merge)
        assert len(cluster.audit) == 4
        assert len(ClusterAuditView(cluster.membership, retain=3)) == 3

    def test_view_is_read_only(self, world):
        with pytest.raises(TypeError):
            world.cluster.audit.record(object())
