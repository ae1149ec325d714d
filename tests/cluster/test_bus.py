"""The invalidation bus: one round makes local retractions global.

The acceptance property: a delegation retracted on ONE node is denied on
EVERY node after one bus round — and, just as important, the other nodes
still grant from their caches *before* the round, proving it is the bus
that purges cached chains.  What the cluster holds once — the premise
set and the delegation graph — loses the retracted state at once, so no
node re-derives through it, and a late joiner decides as the incumbents
and a single guard do.
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
        nodes = _warm_all_nodes(world)
        origin = nodes[0]

        world.cluster.retract_delegation(
            world.delegation, via=origin.node_id
        )
        # The origin denies immediately...
        with pytest.raises(NeedAuthorizationError):
            origin.guard.check(world.request())
        # ...but the other nodes still grant: their caches are untouched
        # until the bus round runs.
        for node in nodes[1:]:
            assert node.guard.check(world.request()).granted

        assert world.cluster.deliver_invalidations() > 0
        for node in nodes:
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request())

    def test_retraction_purges_caches_shortcuts_and_counts(self, world):
        nodes = _warm_all_nodes(world)
        world.cluster.retract_delegation(world.delegation)
        world.cluster.deliver_invalidations()
        for node in nodes:
            assert node.guard.cache.count() == 0
            assert world.delegation not in node.prover.graph
        bus = world.cluster.bus.stats
        assert bus["published_delegation_retracted"] == 1
        assert bus["delivered"] == len(nodes) - 1  # origin excluded
        assert bus["dropped_entries"] > 0

    def test_retracted_delegation_denied_through_owner_routing(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted
        cluster.retract_delegation(world.delegation)
        cluster.deliver_invalidations()
        for request in world.requests():
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)

    @pytest.mark.parametrize("invalidation", ["retract", "revoke"])
    def test_no_node_rederives_through_it_before_the_round(
        self, world, invalidation
    ):
        """The graph is the cluster's, so an invalidation published on a
        bystander leaves it at once: the owner, whose cache never held
        the chain, has nothing to re-derive it from, bus round or not."""
        cluster = world.cluster
        owner = cluster.node_for_speaker(world.client)
        via = next(
            node.node_id for node in cluster.nodes() if node is not owner
        )
        if invalidation == "retract":
            cluster.retract_delegation(world.delegation, via=via)
        else:
            cluster.revoke_serial(world.certificate.serial, via=via)
        assert cluster.bus.pending() == 1
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())
        assert owner.prover.stats["searches"] == 1

    def test_origin_does_not_reapply_its_own_event(self, world):
        nodes = _warm_all_nodes(world)
        origin = nodes[0]
        before = origin.guard.stats["invalidations_applied"]
        world.cluster.retract_delegation(world.delegation, via=origin.node_id)
        world.cluster.deliver_invalidations()
        assert origin.guard.stats["invalidations_applied"] == before


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

        world.cluster.close_channel(premise)
        world.cluster.deliver_invalidations()
        assert not world.cluster.trust.vouches_for(premise)
        for node in nodes[:2]:
            assert node.guard.cache.count() == 0
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request(speaker=channel))

    def test_a_closed_channel_stays_closed_on_every_node(
        self, server_kp, alice_kp, rng
    ):
        """A channel's shard moves to a joiner, the channel closes there,
        and the joiner leaves with no bus round in between: the shard
        returns to the first owner, which still caches a chain over the
        binding.  The binding is gone from the one premise set, so that
        chain fails its premise re-check and the check is refused."""
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
        world.cluster.deliver_invalidations()
        for node in nodes:
            assert node.guard.cache.count() == 0
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(world.request())
        assert world.cluster.bus.stats["published_serial_revoked"] == 1

    def test_revoked_serial_denied_on_every_node_after_one_round(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted

        cluster.revoke_serial(world.certificate.serial)
        assert cluster.deliver_invalidations() > 0

        # Every node — the origin, the owner, the bystanders — now
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
        node cite the serial: the publisher's prover examines the edge,
        every other prover finds it gone, and each node's cache examines
        its own copy — in ``repro.tools stats`` and under
        ``sources.cluster.nodes`` in ``(stats <id>)`` alike."""
        nodes = _warm_all_nodes(world)
        world.cluster.revoke_serial(
            world.certificate.serial, via=nodes[0].node_id
        )
        world.cluster.deliver_invalidations()
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
        world.cluster.deliver_invalidations()
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
        world.cluster.deliver_invalidations()
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
        cluster.deliver_invalidations()
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
        same signed certificate again must not re-admit it — whichever
        node the revocation was published on."""
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
        (bystander,) = [n for n in cluster.nodes() if n is not owner]
        cluster.revoke_serial(certificate.serial, via=bystander.node_id)
        cluster.deliver_invalidations()
        assert owner.guard.cache.count() == 0
        with pytest.raises(AuthorizationError):
            cluster.check(presented())
        assert owner.guard.cache.count() == 0

    @pytest.mark.parametrize("departure", ["remove_node", "fail_node"])
    def test_a_departure_does_not_undo_a_revocation(self, world, departure):
        """A shard moves only onto nodes that have applied every
        published invalidation.  The speaker's chain is cached on its
        first owner and on the joiner its shard moved to; the serial is
        revoked on the joiner, which then departs with no bus round in
        between.  The first owner gets the shard back and must not
        grant from its cache."""
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        heir = move_owner(cluster, world.client)
        decision = cluster.check(world.request())
        assert decision.granted and decision.stage == "prover"

        cluster.revoke_serial(world.certificate.serial, via=heir.node_id)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())

        getattr(cluster, departure)(heir.node_id)
        (decision,) = cluster.check_many([world.request()])
        assert not decision.granted
        assert isinstance(decision.error, NeedAuthorizationError)

    def test_unrelated_serial_revocation_is_a_noop(self, world):
        nodes = _warm_all_nodes(world)
        world.cluster.revoke_serial(b"\x00" * 8)
        world.cluster.deliver_invalidations()
        for node in nodes:
            assert node.guard.check(world.request()).granted
