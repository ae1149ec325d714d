"""Cluster-wide invalidation: one call, every node.

The acceptance property: an invalidation is applied on every serving
node before the call that publishes it returns.  A delegation retracted
or a serial revoked through the cluster is denied on EVERY node at once,
each node's cached chains included.  What the cluster holds once — the
premise set and the delegation graph — loses the retracted state at the
first application, so no node re-derives through it, and a late joiner
decides as the incumbents and a single guard do.
"""

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.principals import (
    ChannelPrincipal,
    HashPrincipal,
    KeyPrincipal,
)
from repro.core.statements import SpeaksFor
from repro.crypto.hashes import HashValue
from repro.guard import Guard, GuardRequest, ProofCredential
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag
from tests.cluster.conftest import REQUEST, ClusterWorld, move_owner


def _warm_all_nodes(world):
    """Every node grants once, so every node holds derived state."""
    for node in world.cluster.nodes():
        decision = node.guard.check(world.request())
        assert decision.granted
    return world.cluster.nodes()


class TestDelegationRetraction:
    def test_retraction_on_one_node_denies_on_all_after_one_round(self, world):
        """Every node held a cached chain; the one retraction call is
        all it takes for every node to deny at once."""
        nodes = _warm_all_nodes(world)

        assert world.cluster.retract_delegation(world.delegation) > 0
        for node in nodes:
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request())

    def test_retraction_purges_caches_shortcuts_and_counts(self, world):
        nodes = _warm_all_nodes(world)
        removed = world.cluster.retract_delegation(world.delegation)
        for node in nodes:
            assert node.guard.cache.count() == 0
            assert world.delegation not in node.prover.graph
        bus = world.cluster.stats_snapshot()["bus"]
        assert bus["published_delegation_retracted"] == 1
        assert bus["delivered"] == len(nodes)  # one application a node
        assert bus["dropped_entries"] == removed > 0

    def test_retracted_delegation_denied_through_owner_routing(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted
        cluster.retract_delegation(world.delegation)
        for request in world.requests():
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)

    @pytest.mark.parametrize("invalidation", ["retract", "revoke"])
    def test_no_node_rederives_through_it_before_the_round(
        self, world, invalidation
    ):
        """The graph is the cluster's, so an invalidation leaves it at
        once: the owner, whose cache never held the chain, has nothing to
        re-derive it from."""
        cluster = world.cluster
        owner = cluster.node_for_speaker(world.client)
        if invalidation == "retract":
            cluster.retract_delegation(world.delegation)
        else:
            cluster.revoke_serial(world.certificate.serial)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())
        assert owner.prover.stats["searches"] == 1

    def test_origin_does_not_reapply_its_own_event(self, world):
        """The first node an event reaches applies it once, like every
        other serving node: one application, one purged chain, a node."""
        nodes = _warm_all_nodes(world)
        world.cluster.retract_delegation(world.delegation)
        assert world.cluster.stats_snapshot()["bus"]["delivered"] == len(nodes)
        for node in nodes:
            assert node.guard.cache.stats["invalidations"] == 1


class TestChannelClose:
    def test_close_retracts_dependent_proofs_cluster_wide(self, world):
        channel = ChannelPrincipal.of_secret(b"conn-1")
        premise = SpeaksFor(channel, world.client, Tag.all())
        chain = TransitivityStep(
            PremiseStep(premise), world.delegation
        )
        wire = to_canonical(chain.to_sexp())
        nodes = world.cluster.nodes()
        # Two nodes hold a cached chain over the binding (the shard
        # moved mid-connection, say).
        world.cluster.trust.vouch(premise)
        for node in nodes[:2]:
            node.guard.submit_proof(wire)
            assert node.guard.check(world.request(speaker=channel)).granted

        assert world.cluster.close_channel(premise) == 2
        assert not world.cluster.trust.vouches_for(premise)
        for node in nodes[:2]:
            assert node.guard.cache.count() == 0
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request(speaker=channel))

    def test_a_closed_channel_stays_closed_on_every_node(
        self, server_kp, alice_kp, rng
    ):
        """A channel's shard moves to a joiner, the channel closes, and
        the joiner leaves: the shard returns to the first owner, which
        cached a chain over the binding under the older ring layout.
        The close purged that chain and the binding is gone from the one
        premise set, so the check is refused."""
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=2)
        cluster = world.cluster
        channel = ChannelPrincipal.of_secret(b"\x09" * 32)
        premise = cluster.open_channel(channel, world.client)
        wire = to_canonical(
            TransitivityStep(PremiseStep(premise), world.delegation).to_sexp()
        )
        cluster.submit_proof(wire)
        assert cluster.check(world.request(speaker=channel)).granted

        heir = move_owner(cluster, channel)
        cluster.submit_proof(wire)
        assert cluster.check(world.request(speaker=channel)).granted

        cluster.close_channel(premise)
        cluster.remove_node(heir.node_id)
        (decision,) = cluster.check_many([world.request(speaker=channel)])
        assert not decision.granted
        assert decision.stage is None


class TestRevocation:
    def test_revocation_event_purges_every_replica(self, world):
        """No node runs a revocation *policy*; the event alone must purge
        the serial's derived state everywhere."""
        nodes = _warm_all_nodes(world)
        world.cluster.revoke_serial(world.certificate.serial)
        for node in nodes:
            assert node.guard.cache.count() == 0
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request())
        bus = world.cluster.stats_snapshot()["bus"]
        assert bus["published_serial_revoked"] == 1

    def test_revoked_serial_denied_on_every_node_after_one_round(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted

        assert cluster.revoke_serial(world.certificate.serial) > 0

        # Every node — the first reached, the owner, the bystanders —
        # denies the speaker, checked directly so routing cannot dodge a
        # stale node.
        for node in cluster.nodes():
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request())
        # And through the cluster's own routing as well.
        for request in world.requests():
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)

    def test_a_purge_says_what_it_examined(self, world):
        """One edge in the cluster's one graph and one cached proof per
        node cite the serial: the first node's prover examines the edge,
        every other prover finds it gone, and each node's cache examines
        its own copy — in ``repro.tools stats`` and under
        ``sources.cluster.nodes`` in ``(stats <id>)`` alike."""
        nodes = _warm_all_nodes(world)
        world.cluster.revoke_serial(world.certificate.serial)
        served = world.cluster.metrics.snapshot()["sources"]["cluster"]
        assert served["nodes"] == world.cluster.stats_snapshot()["nodes"]
        examined = [
            served["nodes"][node.node_id]["prover"]["invalidate_examined"]
            for node in nodes
        ]
        assert examined == [1] + [0] * (len(nodes) - 1)
        for tallies in served["nodes"].values():
            assert tallies["cache"]["retract_examined"] == 1
        assert served["graph"]["edges"] == 0
        assert served["graph"]["invalidations"] == 1

    def test_late_joiner_is_not_handed_revoked_authority(self, world):
        """A node that joins after a revocation searches the cluster's
        one graph, which lost the revoked authority when the revocation
        was published: nothing is replayed that could resurrect it."""
        _warm_all_nodes(world)
        world.cluster.revoke_serial(world.certificate.serial)
        late = world.cluster.add_node()
        assert world.delegation not in late.prover.graph
        with pytest.raises(NeedAuthorizationError):
            late.guard.check(world.request())

    def test_late_joiner_is_not_handed_retracted_delegation(
        self, world, alice_kp, bob_kp
    ):
        """A retraction names a lemma, and the graph drops every edge
        built on it, not just the edge stored under its own digest; a
        node that joins afterwards searches that same graph."""
        bob = KeyPrincipal(bob_kp.public)
        onward = SignedCertificateStep(
            Certificate.issue(alice_kp, bob, Tag.all(), rng=world.rng)
        )
        world.cluster.add_delegation(
            TransitivityStep(onward, world.delegation)
        )
        nodes = world.cluster.nodes()
        for node in nodes:
            assert node.guard.check(world.request(speaker=bob)).granted
        world.cluster.retract_delegation(world.delegation)
        for node in nodes:
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request(speaker=bob))
        late = world.cluster.add_node()
        assert world.delegation not in late.prover.graph
        for speaker in (bob, world.client):
            with pytest.raises(NeedAuthorizationError):
                late.guard.check(world.request(speaker=speaker))
        # The onward hop was never retracted: every node keeps it.
        for node in nodes:
            assert onward in node.prover.graph

    @pytest.mark.parametrize("invalidation", ["retract", "revoke"])
    def test_a_late_joiner_decides_as_the_incumbents_and_a_single_guard_do(
        self, world, server_kp, bob_kp, carol_kp, invalidation
    ):
        """``server <- mid <- client`` arrives as one digested chain, and
        its second hop dies.  The surviving hop still lets ``mid`` speak
        for the server — on every incumbent, on a node that joins
        afterwards, through the cluster's routing once the shard moves
        onto a joiner, and on a single guard fed the same steps."""
        mid = KeyPrincipal(bob_kp.public)
        client = KeyPrincipal(carol_kp.public)
        first = SignedCertificateStep(
            Certificate.issue(server_kp, mid, Tag.all(), rng=world.rng)
        )
        second = SignedCertificateStep(
            Certificate.issue(bob_kp, client, Tag.all(), rng=world.rng)
        )
        chain = TransitivityStep(second, first)
        single = Guard(TrustEnvironment(clock=world.clock), prover=Prover())
        cluster = world.cluster
        for backend in (cluster, single):
            backend.digest_delegation(chain)
            if invalidation == "retract":
                backend.retract_delegation(second.digest())
            else:
                backend.revoke_serial(second.certificate.serial)
        late = cluster.add_node()
        guards = [node.guard for node in cluster.nodes()] + [single]
        assert late.guard in guards
        for guard in guards:
            decision = guard.check(world.request(speaker=mid))
            assert decision.granted and decision.stage == "prover"
            with pytest.raises(NeedAuthorizationError):
                guard.check(world.request(speaker=client))
        move_owner(cluster, mid)
        assert cluster.check(world.request(speaker=mid)).granted
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request(speaker=client))

    def test_a_revoked_certificate_presented_again_is_denied(
        self, server_kp, alice_kp, rng
    ):
        """The revoke purges the owner's cached copy; presenting the
        same signed certificate again must not re-admit it: the owner
        tombstoned the serial when the revoke was applied there."""
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=2)
        subject = HashPrincipal(HashValue.of_bytes(b"message"))
        certificate = Certificate.issue(
            server_kp, subject, Tag.all(), rng=world.rng
        )
        wire = to_transport(SignedCertificateStep(certificate).to_sexp())

        def presented():
            return GuardRequest(
                REQUEST, issuer=world.issuer, transport="http",
                credential=ProofCredential(subject, wire=wire),
            )

        cluster = world.cluster
        assert cluster.check(presented()).granted
        owner = cluster.node_for_speaker(subject)
        cluster.revoke_serial(certificate.serial)
        assert owner.guard.cache.count() == 0
        with pytest.raises(AuthorizationError):
            cluster.check(presented())
        assert owner.guard.cache.count() == 0

    @pytest.mark.parametrize(
        "departure", ["remove_node", "fail_node", "drain"]
    )
    def test_a_departure_does_not_undo_a_revocation(self, world, departure):
        """A shard moves only onto nodes that have applied every
        published invalidation.  The speaker's chain is cached on its
        first owner and on the joiner its shard moved to; the serial is
        revoked, and the joiner departs.  The first owner gets the shard
        back and must not grant from its cache, nor be handed a chain
        that cites the serial."""
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        heir = move_owner(cluster, world.client)
        decision = cluster.check(world.request())
        assert decision.granted and decision.stage == "prover"

        cluster.revoke_serial(world.certificate.serial)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())

        getattr(cluster, departure)(heir.node_id)
        (decision,) = cluster.check_many([world.request()])
        assert not decision.granted
        assert isinstance(decision.error, NeedAuthorizationError)

    def test_unrelated_serial_revocation_is_a_noop(self, world):
        nodes = _warm_all_nodes(world)
        assert world.cluster.revoke_serial(b"\x00" * 8) == 0
        for node in nodes:
            assert node.guard.check(world.request()).granted

    def test_with_no_serving_node_a_revocation_raises_and_changes_nothing(
        self, server_kp, alice_kp, rng
    ):
        """No node is there to apply it, so the call refuses rather than
        report success: the delegation stays in the one graph, and a
        node that joins afterwards still grants over it."""
        world = ClusterWorld(server_kp, alice_kp, rng, nodes=1)
        (only,) = world.cluster.nodes()
        world.cluster.remove_node(only.node_id)
        with pytest.raises(LookupError):
            world.cluster.revoke_serial(world.certificate.serial)
        late = world.cluster.add_node()
        assert late.guard.check(world.request()).granted
