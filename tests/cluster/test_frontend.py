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
