"""Membership: joins, failures, the heartbeat sweep, and failover of
MAC sessions, which live once, in the cluster's session table."""

import pytest

from repro.cluster import FAILED, LEFT, UP, session_routing_key
from repro.core.errors import AuthorizationError
from repro.core.principals import MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential
from repro.sexp import sexp, to_canonical
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import ClusterWorld


class TestTransitions:
    def test_join_leave_fail_states_and_events(self, world):
        cluster = world.cluster
        ids = [node.node_id for node in cluster.nodes()]
        assert len(ids) == 3
        cluster.remove_node(ids[0])
        cluster.fail_node(ids[1])
        membership = cluster.membership
        assert membership.state_of(ids[0]) == LEFT
        assert membership.state_of(ids[1]) == FAILED
        assert membership.state_of(ids[2]) == UP
        assert [event.action for event in membership.events] == [
            "join", "join", "join", "leave", "fail",
        ]

    def test_double_fail_is_an_error(self, world):
        node_id = world.cluster.nodes()[0].node_id
        world.cluster.fail_node(node_id)
        with pytest.raises(ValueError):
            world.cluster.fail_node(node_id)

    def test_late_joiner_receives_the_replicated_delegations(self, world):
        late = world.cluster.add_node()
        # The new node can authorize without ever having seen the
        # delegation arrive: its prover searches the cluster's one graph.
        decision = late.guard.check(world.request())
        assert decision.granted and decision.stage == "prover"


class TestHeartbeatSweep:
    def test_silent_node_is_failed_and_its_shards_reassign(self, world):
        cluster, clock = world.cluster, world.clock
        silent, *noisy = [node.node_id for node in cluster.nodes()]
        clock.advance(31.0)  # past the 30 s default timeout
        for node_id in noisy:
            cluster.membership.heartbeat(node_id)
        assert cluster.sweep_failures() == [silent]
        assert cluster.membership.state_of(silent) == FAILED
        # Every shard now lands on a survivor.
        owner = cluster.node_for_speaker(world.client)
        assert owner.node_id in noisy

    def test_heartbeats_within_the_timeout_keep_everyone_up(self, world):
        cluster, clock = world.cluster, world.clock
        clock.advance(29.0)
        assert cluster.sweep_failures() == []
        assert len(cluster.nodes()) == 3


class TestSessionFailover:
    def _session_request(self, world, mac_id, mac_key, path="/doc"):
        logical = sexp(["web", ["method", "GET"], ["path", path]])
        message = to_canonical(logical)
        return GuardRequest(
            logical,
            issuer=world.issuer,
            credential=SessionCredential(mac_id, mac_key.tag(message), message),
            transport="http",
        )

    def _mint(self, world, rng):
        mac_id, mac_key = world.cluster.mint_session(rng)
        certificate = Certificate.issue(
            world.server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
            rng=rng,
        )
        world.cluster.add_delegation(SignedCertificateStep(certificate))
        return mac_id, mac_key

    def test_failed_owners_sessions_remint_on_first_miss(
        self, server_kp, alice_kp, rng
    ):
        """A session survives its owner's failure and still grants: the
        successor verifies the MAC against the cluster's one session
        table and re-derives the chain once from the cluster's one
        delegation graph."""
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=3)
        cluster = world.cluster
        mac_id, mac_key = self._mint(world, rng)
        owner = cluster.membership.node_for(session_routing_key(mac_id))

        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted

        cluster.fail_node(owner.node_id)
        successor = cluster.membership.node_for(session_routing_key(mac_id))
        assert successor.node_id != owner.node_id
        assert successor.guard.sessions.get(mac_id) is mac_key

        first = cluster.check(
            self._session_request(world, mac_id, mac_key, "/doc2")
        )
        assert first.granted and first.stage == "prover"
        # Steady state again: the successor's cache answers.
        steady = cluster.check(
            self._session_request(world, mac_id, mac_key, "/doc3")
        )
        assert steady.granted and steady.stage == "cache"
        assert cluster.sessions.stats["failures"] == 0

    def test_directory_never_resurrects_an_expired_session(
        self, server_kp, alice_kp, rng
    ):
        """Expiry survives any owner change: a session past its TTL is
        refused by the successor as it was by the owner."""
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=3, session_ttl=60.0
        )
        cluster = world.cluster
        mac_id, mac_key = self._mint(world, rng)
        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted

        world.clock.advance(61.0)
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(self._session_request(world, mac_id, mac_key))
        owner = cluster.membership.node_for(session_routing_key(mac_id))
        cluster.fail_node(owner.node_id)
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(self._session_request(world, mac_id, mac_key))
        assert cluster.sessions.get(mac_id) is None

    def test_failover_remint_preserves_the_mint_stamp(
        self, server_kp, alice_kp, rng
    ):
        """A session served by a new owner after failure still dies at
        its original mint time plus the TTL, not TTL-from-failover."""
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=3, session_ttl=60.0
        )
        cluster = world.cluster
        mac_id, mac_key = self._mint(world, rng)
        owner = cluster.membership.node_for(session_routing_key(mac_id))

        world.clock.advance(45.0)
        cluster.fail_node(owner.node_id)
        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted

        world.clock.advance(20.0)  # 65 s after the original mint
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(self._session_request(world, mac_id, mac_key))

    def test_bad_via_leaves_the_replicated_set_untouched(self, world):
        with pytest.raises(LookupError):
            world.cluster.retract_delegation(
                world.delegation, via="no-such-node"
            )
        # The failed call changed nothing: a late joiner still grants
        # over the delegation.
        late = world.cluster.add_node()
        assert late.guard.check(world.request()).granted
