"""Batch dispatch: stream order, shard batching, what a fleet of
listeners relies on when it is handed one cluster, the merged audit
trail across nodes that fail or drain, and the membership heartbeat
pumping ``SessionRegistry.sweep()`` cluster-wide."""

import pytest

from repro.cluster import AuthCluster, ClusterAuditView, routing_key
from repro.cluster.ring import session_routing_key
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.guard import ChannelCredential, GuardRequest, SessionCredential
from repro.sexp import sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import ClusterWorld

SPEAKERS = 8
ROUNDS = 3


def _world(server_kp, alice_kp, rng, nodes=4):
    """A cluster with SPEAKERS channels, each provably bound to the
    client and replicated so any shard can verify any of them."""
    cluster = AuthCluster(node_count=nodes)
    issuer = KeyPrincipal(server_kp.public)
    client = KeyPrincipal(alice_kp.public)
    delegation = SignedCertificateStep(
        Certificate.issue(server_kp, client, Tag.all(), rng=rng)
    )
    cluster.add_delegation(delegation)
    channels = []
    for index in range(SPEAKERS):
        channel = ChannelPrincipal.of_secret(b"conn-%d" % index)
        premise = SpeaksFor(channel, client, Tag.all())
        owner = cluster.node_for_speaker(channel)
        owner.trust.vouch(premise)
        owner.guard.submit_proof(
            to_canonical(
                TransitivityStep(PremiseStep(premise), delegation).to_sexp()
            )
        )
        channels.append(channel)

    def request(channel, path="/doc"):
        return GuardRequest(
            ["web", ["method", "GET"], ["path", path]],
            issuer=issuer,
            credential=ChannelCredential(channel),
            transport="http",
        )

    return cluster, channels, request


def test_decisions_come_back_in_stream_order(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = [
        request(channels[i % SPEAKERS], "/doc-%d" % i)
        for i in range(SPEAKERS * ROUNDS)
    ]
    decisions = cluster.check_many(stream)
    assert len(decisions) == len(stream)
    for i, decision in enumerate(decisions):
        assert decision.granted
        assert decision.speaker == channels[i % SPEAKERS]


def _guard_batches(cluster):
    return sum(node.guard.stats["batches"] for node in cluster.nodes())


def test_one_checkauth_charge_per_shard_batch(server_kp, alice_kp, rng):
    """One ``Guard.check_many`` (the guard's checkAuth) per shard batch."""
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = [
        request(channels[i % SPEAKERS], "/doc-%d" % i)
        for i in range(SPEAKERS * ROUNDS)
    ]
    shards_touched = len(
        {cluster.membership.node_for(routing_key(r)).node_id for r in stream}
    )
    assert shards_touched > 1
    cluster.check_many(stream)
    # Batched: one guard batch per shard touched, not one per request.
    assert _guard_batches(cluster) == shards_touched
    dispatch = cluster.stats_snapshot()["dispatch"]
    assert dispatch["shard_batches"] == shards_touched

    # Sequentially, the same stream is one guard batch per request.
    sequential, channels2, request2 = _world(server_kp, alice_kp, rng)
    for i in range(SPEAKERS * ROUNDS):
        sequential.check(request2(channels2[i % SPEAKERS], "/doc-%d" % i))
    assert _guard_batches(sequential) == SPEAKERS * ROUNDS


def test_batch_and_sequential_agree(server_kp, alice_kp, rng):
    batched_cluster, channels, request = _world(server_kp, alice_kp, rng)
    batched = batched_cluster.check_many(
        [request(channel) for channel in channels]
    )
    sequential_cluster, channels2, request2 = _world(server_kp, alice_kp, rng)
    sequential = [
        sequential_cluster.check(request2(channel)) for channel in channels2
    ]
    for one, many in zip(sequential, batched):
        assert many.granted
        assert one.proof.conclusion == many.proof.conclusion


def test_a_bad_request_does_not_sink_its_batch(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    bad = GuardRequest(["web"], issuer=KeyPrincipal(server_kp.public))
    decisions = cluster.check_many(
        [request(channels[0]), bad, request(channels[1])]
    )
    assert decisions[0].granted and decisions[2].granted
    assert not decisions[1].granted
    assert isinstance(decisions[1].error, AuthorizationError)


def test_a_session_proof_for_another_subject_does_not_sink_its_batch(
    server_kp, alice_kp, rng
):
    """A MAC session's first request attaching the client's own public
    delegation — valid, but not about the session — is refused alone."""
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    mac_id, mac_key = cluster.mint_session(rng)
    clients = SignedCertificateStep(Certificate.issue(
        server_kp, KeyPrincipal(alice_kp.public), Tag.all(), rng=rng
    ))
    message = b"GET /doc"
    evil = GuardRequest(
        ["web", ["method", "GET"], ["path", "/doc"]],
        issuer=KeyPrincipal(server_kp.public),
        credential=SessionCredential(
            mac_id, mac_key.tag(message), message,
            proof_wire=to_transport(clients.to_sexp()),
        ),
        transport="http",
    )
    innocent, refused = cluster.check_many([request(channels[0]), evil])
    assert innocent.granted
    assert not refused.granted
    assert isinstance(refused.error, NeedAuthorizationError)


class TestFleet:
    """Every front end (http servlet, smtp receiver, rmi skeleton, serve
    listener) holds the :class:`AuthCluster` itself: one ring and one
    session escrow however many fronts ask."""

    @pytest.fixture()
    def world(self, server_kp, alice_kp, rng):
        return ClusterWorld(server_kp, alice_kp, rng, nodes=4)

    def test_fleet_shares_one_ring(self, world):
        """Single checks asked by different fronts land on the same
        shard state: a fleet is N listeners, not N authorization
        domains."""
        fronts = ["http-1", "smtp-1", "rmi-1"]
        for transport in fronts:
            assert world.cluster.check(
                world.request(transport=transport)
            ).granted
        # One speaker, one owner node — every front's check routed there.
        served = [
            node
            for node in world.cluster.nodes()
            if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 1
        assert served[0].guard.stats["checks"] == len(fronts)
        assert served[0].guard.stats["grants"] == len(fronts)

    def test_fleet_sessions_mint_into_the_shared_escrow(self, rng):
        """A session minted with the cluster's injected rng is cluster
        state — escrowed for failover and installed on its ring owner —
        so any front's traffic can reach it."""
        cluster = AuthCluster(node_count=4, rng=rng)
        mac_id, _ = cluster.mint_session()
        assert mac_id in cluster._session_directory
        owner = cluster.membership.node_for(session_routing_key(mac_id))
        assert owner.guard.sessions.get(mac_id) is not None

    def test_frontend_audit_is_the_merged_cluster_view(self, world):
        """A front end reads one trail: the single check's record in the
        merged view is the serving node's own record."""
        decision = world.cluster.check(world.request())
        assert world.cluster.audit.records == [decision.record]


class TestMergedAudit:
    """The merged, time-ordered view every front end reads: it outlives
    a node's shards, and one retention knob sizes every ring."""

    @pytest.fixture()
    def world(self, server_kp, alice_kp, rng):
        return ClusterWorld(server_kp, alice_kp, rng, nodes=4)

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
        # Each node's section of the stats tree says the same.
        assert sum(
            tallies["audit"]["evicted"]
            for tallies in cluster.stats_snapshot()["nodes"].values()
        ) == cluster.audit.evicted

    def test_default_cluster_rings_are_bounded(self, world):
        from repro.guard.audit import AUDIT_RETAIN

        assert all(
            node.guard.audit.retain == AUDIT_RETAIN
            for node in world.cluster.nodes()
        )
        assert world.cluster.audit.retain is None  # bounded by the rings


class TestHeartbeatSweep:
    def _world(self, server_kp, alice_kp, rng):
        return ClusterWorld(
            server_kp, alice_kp, rng, nodes=3, session_ttl=60.0
        )

    def test_heartbeat_reaps_expired_sessions_without_a_touch(
        self, server_kp, alice_kp, rng
    ):
        world = self._world(server_kp, alice_kp, rng)
        cluster = world.cluster
        for _ in range(6):
            cluster.mint_session(rng)
        populated = sum(
            node.guard.sessions.count() for node in cluster.nodes()
        )
        assert populated == 6
        world.clock.advance(61.0)
        # Nothing touched the sessions; the heartbeat alone reaps them.
        reaped = cluster.heartbeat()
        assert reaped == 6
        assert all(
            node.guard.sessions.count() == 0 for node in cluster.nodes()
        )
        # The escrow directory lapsed with them: no failover resurrection.
        assert len(cluster._session_directory) == 0
        assert cluster.stats["directory_expired"] == 6
        assert cluster.membership.stats["heartbeats"] >= 3

    def test_single_node_heartbeat_sweeps_that_node(
        self, server_kp, alice_kp, rng
    ):
        world = self._world(server_kp, alice_kp, rng)
        cluster = world.cluster
        mac_id, _ = cluster.mint_session(rng)
        owner = cluster.membership.node_for(session_routing_key(mac_id))
        world.clock.advance(61.0)
        assert cluster.heartbeat(owner.node_id) == 1
        assert owner.guard.sessions.count() == 0

    def test_an_entry_lapsing_on_first_touch_is_counted(
        self, server_kp, alice_kp, rng
    ):
        """An escrow entry found lapsed by its next check is dropped and
        counted exactly as the sweep drops and counts it."""
        world = self._world(server_kp, alice_kp, rng)
        cluster = world.cluster
        mac_id, mac_key = cluster.mint_session(rng)
        cluster.add_delegation(SignedCertificateStep(Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
            rng=rng,
        )))
        logical = sexp(["web", ["method", "GET"]])
        message = to_canonical(logical)
        request = GuardRequest(
            logical, issuer=world.issuer,
            credential=SessionCredential(mac_id, mac_key.tag(message), message),
            transport="http",
        )
        assert cluster.check_many([request])[0].granted
        world.clock.advance(61.0)
        assert not cluster.check_many([request])[0].granted
        assert len(cluster._session_directory) == 0
        assert cluster.stats["directory_expired"] == 1

    def test_failure_sweep_also_pumps_session_sweep(
        self, server_kp, alice_kp, rng
    ):
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=3,
            session_ttl=60.0, heartbeat_timeout=1000.0,
        )
        cluster = world.cluster
        for _ in range(4):
            cluster.mint_session(rng)
        world.clock.advance(61.0)
        lapsed = cluster.sweep_failures()
        assert lapsed == []  # heartbeat bound is generous; nobody failed
        # ...but the clock advance still reaped every expired session.
        assert cluster.stats["sessions_swept"] == 4
        assert all(
            node.guard.sessions.count() == 0 for node in cluster.nodes()
        )
