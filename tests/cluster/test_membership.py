"""Membership: joins, failures, the heartbeat sweep, and lazy failover."""

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
        # delegation arrive: it was replayed at join.
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

    def test_failed_owners_sessions_remint_on_first_miss(
        self, server_kp, alice_kp, rng
    ):
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=3)
        cluster = world.cluster
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        owner = cluster.membership.node_for(session_routing_key(mac_id))

        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted
        assert cluster.stats["sessions_reminted"] == 0

        cluster.fail_node(owner.node_id)
        successor = cluster.membership.node_for(session_routing_key(mac_id))
        assert successor.node_id != owner.node_id

        # First request after failover: the successor misses, the cluster
        # re-mints from the directory, and the request still grants.
        assert cluster.check(
            self._session_request(world, mac_id, mac_key, "/doc2")
        ).granted
        assert cluster.stats["sessions_reminted"] == 1
        assert successor.guard.sessions.stats["installed"] == 1

        # Steady state again: no further re-minting.
        assert cluster.check(
            self._session_request(world, mac_id, mac_key, "/doc3")
        ).granted
        assert cluster.stats["sessions_reminted"] == 1

    def test_directory_never_resurrects_an_expired_session(
        self, server_kp, alice_kp, rng
    ):
        """The failover directory enforces the same absolute TTL as the
        node registries: expiry survives any owner change."""
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=3, session_ttl=60.0
        )
        cluster = world.cluster
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted

        world.clock.advance(61.0)
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(self._session_request(world, mac_id, mac_key))
        assert cluster.stats["sessions_reminted"] == 0
        assert mac_id not in cluster._session_directory

    def test_failover_remint_preserves_the_mint_stamp(
        self, server_kp, alice_kp, rng
    ):
        """A session re-minted onto a new owner after failure still dies
        at its original TTL, not TTL-from-reinstall."""
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=3, session_ttl=60.0
        )
        cluster = world.cluster
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        owner = cluster.membership.node_for(session_routing_key(mac_id))

        world.clock.advance(45.0)
        cluster.fail_node(owner.node_id)
        assert cluster.check(
            self._session_request(world, mac_id, mac_key)
        ).granted
        assert cluster.stats["sessions_reminted"] == 1

        world.clock.advance(20.0)  # 65 s after the original mint
        with pytest.raises(AuthorizationError, match="unknown MAC session"):
            cluster.check(self._session_request(world, mac_id, mac_key))

    def test_directory_cap_eviction_is_counted(
        self, server_kp, alice_kp, rng
    ):
        world = ClusterWorld(
            server_kp, alice_kp, rng, nodes=2, directory_cap=3
        )
        cluster = world.cluster
        for _ in range(5):
            cluster.mint_session(rng)
        assert len(cluster._session_directory) == 3
        assert cluster.stats["sessions_unescrowed"] == 2

    def test_bad_via_leaves_the_replicated_set_untouched(self, world):
        with pytest.raises(LookupError):
            world.cluster.retract_delegation(
                world.delegation, via="no-such-node"
            )
        # The failed call must not have desynced replication: a late
        # joiner still receives the delegation.
        late = world.cluster.add_node()
        assert late.guard.check(world.request()).granted
