"""The cluster's data plane: stream order, one guard batch per stream,
what a fleet of listeners relies on when it is handed one cluster, every
check asking its speaker's owner, the one guard that holds the premise
set, session table, delegation graph and audit trail (kept across nodes
that fail or drain), and the membership heartbeat pumping
``SessionRegistry.sweep()`` on the cluster's one session table."""

import pytest

from repro.cluster import AuthCluster, routing_key
from repro.cluster.ring import session_routing_key
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import Says, SpeaksFor
from repro.guard import ChannelCredential, GuardRequest, SessionCredential
from repro.sexp import sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import ClusterWorld, move_owner

SPEAKERS = 8
ROUNDS = 3


def _world(server_kp, alice_kp, rng, nodes=4):
    """A cluster with SPEAKERS channels, each provably bound to the
    client, its chain submitted and cached."""
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
        cluster.trust.vouch(premise)
        cluster.submit_proof(
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
    return cluster.guard.stats["batches"]


def test_one_checkauth_charge_per_shard_batch(server_kp, alice_kp, rng):
    """One ``Guard.check_many`` (the guard's checkAuth) per stream, however
    many shards it touches."""
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
    # Batched: one guard batch, not one per shard or per request.
    assert _guard_batches(cluster) == 1
    dispatch = cluster.stats_snapshot()["dispatch"]
    assert dispatch["shard_batches"] == 1

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
    session table however many fronts ask."""

    @pytest.fixture()
    def world(self, server_kp, alice_kp, rng):
        return ClusterWorld(server_kp, alice_kp, rng, nodes=4)

    def test_fleet_shares_one_ring(self, world):
        """Single checks asked by different fronts land on the same
        state: a fleet is N listeners, not N authorization domains."""
        fronts = ["http-1", "smtp-1", "rmi-1"]
        stages = [
            world.cluster.check(world.request(transport=transport)).stage
            for transport in fronts
        ]
        # The first front's check derived the chain; the others found it.
        assert stages == ["prover", "cache", "cache"]
        guard = world.cluster.guard
        assert guard.stats["checks"] == guard.stats["grants"] == len(fronts)

    def test_fleet_sessions_mint_into_the_shared_escrow(self, rng):
        """A session minted with the cluster's injected rng is cluster
        state — held once, in the table the guard verifies against — so
        any front's traffic can reach it, whichever node owns it."""
        cluster = AuthCluster(node_count=4, rng=rng)
        mac_id, mac_key = cluster.mint_session()
        assert cluster.sessions.get(mac_id) is mac_key
        assert cluster.guard.sessions.get(mac_id) is mac_key

    def test_every_node_shares_the_clusters_authority(self, rng):
        """One premise set, one session table, one delegation graph, one
        audit log and one proof cache, all in the cluster's one guard; a
        node, a later joiner included, is a ring member with an id."""
        cluster = AuthCluster(node_count=3, rng=rng)
        guard, cache = cluster.guard, cluster.guard.cache
        cluster.add_node()
        assert guard.trust is cluster.trust
        assert guard.sessions is cluster.sessions
        assert guard.prover.graph is cluster.graph
        assert guard.audit is cluster.audit
        assert cluster.guard is guard and guard.cache is cache
        for node in cluster.nodes():
            assert not hasattr(node, "guard")
            assert not hasattr(node, "prover")

    def test_frontend_audit_is_the_merged_cluster_view(self, world):
        """A front end reads one trail: the single check's record in the
        cluster's log is the serving node's own record."""
        decision = world.cluster.check(world.request())
        assert world.cluster.audit.records == [decision.record]


class TestMergedAudit:
    """The cluster's one audit log, which every node records into and
    every front end reads: grant order is clock order, it outlives a
    node's shards, and one retention knob sizes its one ring."""

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
        owners = {
            cluster.node_for_speaker(speaker).node_id
            for speaker in all_speakers
        }
        assert len(owners) >= 2  # several nodes' speakers wrote the trail
        merged = cluster.audit.records
        assert len(merged) == 2 * len(all_speakers)
        stamps = [record.when for record in merged]
        assert stamps == sorted(stamps)

    def test_retention_cap_keeps_most_recent(self, server_kp, alice_kp, rng):
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=4,
                             audit_retain=3)
        cluster = world.cluster
        for index in range(8):
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        assert [record.when for record in cluster.audit.records] == [6, 7, 8]
        assert len(cluster.audit) == 3
        assert (cluster.audit.recorded, cluster.audit.evicted) == (8, 5)

    def test_failed_nodes_history_survives_in_the_merge(self, world):
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        owner = cluster.node_for_speaker(world.client)
        cluster.fail_node(owner.node_id)
        assert len(cluster.audit.records) == 1

    def test_drained_nodes_tail_stays_in_the_merge_in_clock_order(
        self, world
    ):
        """A drain moves a node's shards, not its history: the records it
        wrote before leaving stay in the one log, ahead of its
        inheritor's, in clock order."""
        cluster = world.cluster
        before, after = [], []
        for index in range(3):
            world.clock.advance(1.0)
            before.append(cluster.check(world.request()).record)
        owner = cluster.node_for_speaker(world.client)
        cluster.drain(owner.node_id)
        assert owner not in cluster.nodes()
        for index in range(2):
            world.clock.advance(1.0)
            after.append(cluster.check(world.request()).record)
        assert cluster.audit.records == before + after
        assert [record.when for record in cluster.audit.records] == [
            1.0, 2.0, 3.0, 4.0, 5.0
        ]

    def test_audit_retain_sizes_every_nodes_ring_and_the_view(
        self, server_kp, alice_kp, rng
    ):
        seen = []
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=2,
            audit_retain=3, audit_sink=seen.append,
        )
        cluster = world.cluster
        cluster.add_node()  # a later join writes the same ring
        assert cluster.guard.audit is cluster.audit
        assert cluster.audit.retain == 3
        assert cluster.audit.sink == seen.append
        owners = set()
        for index in range(7):
            # The speaker's shard moves between grants: every owner's
            # checks write the one ring.
            if index == 3:
                move_owner(cluster, world.client)
            owners.add(cluster.node_for_speaker(world.client).node_id)
            world.clock.advance(1.0)
            assert cluster.check(world.request()).granted
        assert len(owners) == 2
        # The one ring wrapped; the sink saw all 7.
        assert [record.when for record in seen] == [1, 2, 3, 4, 5, 6, 7]
        assert [record.when for record in cluster.audit.records] == [5, 6, 7]
        assert (cluster.audit.recorded, cluster.audit.evicted) == (7, 4)
        # The stats tree says the same, once.
        assert cluster.stats_snapshot()["audit"] == {
            "recorded": 7, "evicted": 4,
        }

    def test_default_cluster_rings_are_bounded(self, world):
        from repro.guard.audit import AUDIT_RETAIN

        assert world.cluster.audit.retain == AUDIT_RETAIN
        assert world.cluster.guard.audit is world.cluster.audit


class TestRingChange:
    def test_channel_binding_follows_the_traffic_after_a_join(self, world):
        """The ring can change under a live channel: the binding is in
        the cluster's one premise set and the chain in its one cache, so
        the new owner's checks are answered from the cache, and a
        resubmitted chain is a duplicate, not a failure."""
        cluster = world.cluster
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        cluster.open_channel(channel, world.client)
        chain = TransitivityStep(
            PremiseStep(SpeaksFor(channel, world.client, Tag.all())),
            world.delegation,
        )
        wire = to_canonical(chain.to_sexp())
        cluster.submit_proof(wire)
        for request in world.requests(channel):
            assert cluster.check(request).granted

        move_owner(cluster, channel)
        premise = SpeaksFor(channel, world.client, Tag.all())
        assert cluster.trust.vouches_for(premise)
        for request in world.requests(channel):
            decision = cluster.check(request)
            assert decision.granted and decision.stage == "cache"
        dedup = cluster.guard.cache.stats["dedup_hits"]
        cluster.submit_proof(wire)
        assert cluster.guard.cache.stats["dedup_hits"] == dedup + 1

    def test_retract_delivery_reaches_the_node_that_vouched(self, world):
        """A delivered utterance is vouched in the cluster's premise set
        *at delivery time*; the retraction at teardown must withdraw it
        after the ring changed in between."""
        cluster = world.cluster
        request = world.request()
        cluster.deliver(request)
        uttered = Says(world.client, request.logical)
        assert cluster.guard.trust.vouches_for(uttered)
        move_owner(cluster, world.client)
        cluster.retract_delivery(world.client, request.logical)
        assert not cluster.trust.vouches_for(uttered)
        assert not cluster.guard.trust.vouches_for(uttered)


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
        assert cluster.sessions.count() == 6
        world.clock.advance(61.0)
        # Nothing touched the sessions; the heartbeat alone reaps them.
        reaped = cluster.heartbeat()
        assert reaped == 6
        assert cluster.guard.sessions.count() == 0
        # Reaped once, in the one table: no node can resurrect them.
        assert cluster.sessions.stats["expired"] == 6
        assert cluster.stats_snapshot()["sessions"]["expired"] == 6
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
        assert cluster.sessions.count() == 0

    def test_an_entry_lapsing_on_first_touch_is_counted(
        self, server_kp, alice_kp, rng
    ):
        """A session found lapsed by its next check is dropped and
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
        assert cluster.sessions.get(mac_id) is None
        assert cluster.sessions.count() == 0
        assert cluster.sessions.stats["expired"] == 1

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
        assert cluster.guard.sessions.count() == 0


def _crash_all_but_the_owner(cluster, speaker):
    """Crash every node but ``speaker``'s owner, so that only the owner
    being up decides whether the speaker's checks are served."""
    owner = cluster.node_for_speaker(speaker)
    for node in cluster.nodes():
        if node is not owner:
            cluster.crash_node(node.node_id)
    assert cluster.nodes() == [owner]


class TestSpreading:
    """One speaker, one owner: every check asks the speaker's owner,
    single or batched, and needs no other node up.

    (The class name dates from when a hot speaker's checks could spread
    over its shard's ring successors; the test ids are kept.)"""

    @pytest.fixture()
    def world(self, server_kp, alice_kp, rng):
        return ClusterWorld(server_kp, alice_kp, rng, nodes=4)

    def test_cold_speaker_stays_pinned_to_its_owner(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted
        _crash_all_but_the_owner(cluster, world.client)
        for request in world.requests():
            assert cluster.check(request).granted

    def test_replicas_disabled_at_r1(self, world):
        cluster = world.cluster
        decisions = cluster.check_many(world.requests())
        assert all(decision.granted for decision in decisions)
        _crash_all_but_the_owner(cluster, world.client)
        decisions = cluster.check_many(world.requests())
        assert all(decision.granted for decision in decisions)
        assert cluster.dispatch_stats["shard_batches"] == 2

    def test_channel_premise_vouched_onto_replica_set(self, world):
        """A channel speaker: the binding premise is vouched at open and
        a submitted chain over it is cached, so every check grants while
        the owner is up; close denies."""
        cluster = world.cluster
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        premise = cluster.open_channel(channel, world.client)
        chain = TransitivityStep(PremiseStep(premise), world.delegation)
        cluster.submit_proof(to_canonical(chain.to_sexp()))
        _crash_all_but_the_owner(cluster, channel)
        for request in world.requests(channel):
            assert cluster.check(request).granted
        cluster.close_channel(premise)
        for request in world.requests(channel):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)
