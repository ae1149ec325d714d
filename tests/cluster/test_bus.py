"""Cluster-wide invalidation: one call, one guard.

The acceptance property: an invalidation is applied before the call
that publishes it returns.  A delegation retracted or a serial revoked
through the cluster is refused at once, whichever node owns the speaker
and after any later ring change, cached chains included.  The cluster
holds its premise set, delegation graph, proof cache and tombstones
once, in its one guard, so nothing re-derives through the retracted
state, and a late joiner decides as the incumbents and a single guard
do.
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


def _warm(world):
    """The client is granted once, so the cluster's guard holds its
    cached chain; returns that guard."""
    assert world.cluster.check(world.request()).granted
    return world.cluster.guard


class TestDelegationRetraction:
    def test_retraction_on_one_node_denies_on_all_after_one_round(self, world):
        """The guard held a cached chain; the one retraction call is all
        it takes for the client to be refused, by its owner and by the
        owner a later join hands its shard to."""
        guard = _warm(world)

        assert world.cluster.retract_delegation(world.delegation) > 0
        with pytest.raises(NeedAuthorizationError):
            guard.check(world.request())
        with pytest.raises(NeedAuthorizationError):
            world.cluster.check(world.request())
        move_owner(world.cluster, world.client)
        with pytest.raises(NeedAuthorizationError):
            world.cluster.check(world.request())

    def test_retraction_purges_caches_shortcuts_and_counts(self, world):
        guard = _warm(world)
        removed = world.cluster.retract_delegation(world.delegation)
        assert guard.cache.count() == 0
        assert world.delegation not in guard.prover.graph
        assert guard.prover.graph is world.cluster.graph
        bus = world.cluster.stats_snapshot()["bus"]
        assert bus["published_delegation_retracted"] == 1
        assert bus["delivered"] == 1  # one application, on the one guard
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
        once: the guard, whose cache never held the chain, has nothing to
        re-derive it from."""
        cluster = world.cluster
        if invalidation == "retract":
            cluster.retract_delegation(world.delegation)
        else:
            cluster.revoke_serial(world.certificate.serial)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())
        assert cluster.guard.prover.stats["searches"] == 1

    def test_origin_does_not_reapply_its_own_event(self, world):
        """An event is applied once, on the one guard, however many
        nodes serve: one application, one purged chain."""
        guard = _warm(world)
        world.cluster.retract_delegation(world.delegation)
        assert world.cluster.stats_snapshot()["bus"]["delivered"] == 1
        assert guard.cache.stats["invalidations"] == 1


class TestChannelClose:
    def test_close_retracts_dependent_proofs_cluster_wide(self, world):
        channel = ChannelPrincipal.of_secret(b"conn-1")
        premise = SpeaksFor(channel, world.client, Tag.all())
        chain = TransitivityStep(
            PremiseStep(premise), world.delegation
        )
        wire = to_canonical(chain.to_sexp())
        cluster = world.cluster
        # The chain over the binding is cached, and the channel's shard
        # then moves (mid-connection, say) and keeps it.
        cluster.trust.vouch(premise)
        cluster.submit_proof(wire)
        assert cluster.check(world.request(speaker=channel)).granted
        move_owner(cluster, channel)
        decision = cluster.check(world.request(speaker=channel))
        assert decision.granted and decision.stage == "cache"

        assert cluster.close_channel(premise) == 1
        assert not cluster.trust.vouches_for(premise)
        assert cluster.guard.cache.count() == 0
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request(speaker=channel))

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
        """The cluster runs no revocation *policy*; the event alone must
        purge the serial's derived state."""
        guard = _warm(world)
        world.cluster.revoke_serial(world.certificate.serial)
        assert guard.cache.count() == 0
        with pytest.raises(NeedAuthorizationError):
            guard.check(world.request())
        bus = world.cluster.stats_snapshot()["bus"]
        assert bus["published_serial_revoked"] == 1

    def test_revoked_serial_denied_on_every_node_after_one_round(self, world):
        cluster = world.cluster
        for request in world.requests():
            assert cluster.check(request).granted

        assert cluster.revoke_serial(world.certificate.serial) > 0

        # The guard denies the speaker, checked directly and through the
        # cluster's own routing, before and after its shard moves.
        with pytest.raises(NeedAuthorizationError):
            cluster.guard.check(world.request())
        for request in world.requests():
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)
        move_owner(cluster, world.client)
        for request in world.requests():
            with pytest.raises(NeedAuthorizationError):
                cluster.check(request)

    def test_a_purge_says_what_it_examined(self, world):
        """One edge in the cluster's one graph and one cached proof cite
        the serial: the prover examines the edge and the cache its one
        entry — in ``repro.tools stats`` and under
        ``sources.cluster.nodes`` in ``(stats <id>)`` alike."""
        _warm(world)
        world.cluster.revoke_serial(world.certificate.serial)
        served = world.cluster.metrics.snapshot()["sources"]["cluster"]
        assert served["nodes"] == world.cluster.stats_snapshot()["nodes"]
        (tallies,) = served["nodes"].values()
        assert tallies["prover"]["invalidate_examined"] == 1
        assert tallies["cache"]["retract_examined"] == 1
        assert served["graph"]["edges"] == 0
        assert served["graph"]["invalidations"] == 1

    def test_late_joiner_is_not_handed_revoked_authority(self, world):
        """A node that joins after a revocation and takes the client's
        shard is served by the cluster's one guard, whose graph lost the
        revoked authority when the revocation was published: nothing is
        replayed that could resurrect it."""
        _warm(world)
        world.cluster.revoke_serial(world.certificate.serial)
        move_owner(world.cluster, world.client)
        assert world.delegation not in world.cluster.graph
        with pytest.raises(NeedAuthorizationError):
            world.cluster.check(world.request())

    def test_late_joiner_is_not_handed_retracted_delegation(
        self, world, alice_kp, bob_kp
    ):
        """A retraction names a lemma, and the graph drops every edge
        built on it, not just the edge stored under its own digest; a
        node that joins afterwards is served from that same graph."""
        bob = KeyPrincipal(bob_kp.public)
        onward = SignedCertificateStep(
            Certificate.issue(alice_kp, bob, Tag.all(), rng=world.rng)
        )
        world.cluster.add_delegation(
            TransitivityStep(onward, world.delegation)
        )
        cluster = world.cluster
        assert cluster.check(world.request(speaker=bob)).granted
        cluster.retract_delegation(world.delegation)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request(speaker=bob))
        for speaker in (bob, world.client):
            move_owner(cluster, speaker)
            with pytest.raises(NeedAuthorizationError):
                cluster.check(world.request(speaker=speaker))
        assert world.delegation not in cluster.graph
        # The onward hop was never retracted: the graph keeps it.
        assert onward in cluster.graph

    @pytest.mark.parametrize("invalidation", ["retract", "revoke"])
    def test_a_late_joiner_decides_as_the_incumbents_and_a_single_guard_do(
        self, world, server_kp, bob_kp, carol_kp, invalidation
    ):
        """``server <- mid <- client`` arrives as one digested chain, and
        its second hop dies.  The surviving hop still lets ``mid`` speak
        for the server — on the cluster's guard, through the cluster's
        routing once the shard moves onto a joiner, and on a single guard
        fed the same steps."""
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
        for guard in (cluster.guard, single):
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
        """The revoke purges the cached copy; presenting the same signed
        certificate again must not re-admit it: the guard tombstoned the
        serial when the revoke was applied."""
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
        cluster.revoke_serial(certificate.serial)
        assert cluster.guard.cache.count() == 0
        with pytest.raises(AuthorizationError):
            cluster.check(presented())
        assert cluster.guard.cache.count() == 0

    @pytest.mark.parametrize(
        "departure", ["remove_node", "fail_node", "drain"]
    )
    def test_a_departure_does_not_undo_a_revocation(self, world, departure):
        """A ring change never undoes an invalidation.  The speaker's
        chain is cached, and a join moves its shard (keeping the chain);
        the serial is revoked, and the joiner departs.  The first owner
        gets the shard back and must not be granted from the cache."""
        cluster = world.cluster
        assert cluster.check(world.request()).granted
        heir = move_owner(cluster, world.client)
        decision = cluster.check(world.request())
        assert decision.granted and decision.stage == "cache"

        cluster.revoke_serial(world.certificate.serial)
        with pytest.raises(NeedAuthorizationError):
            cluster.check(world.request())

        getattr(cluster, departure)(heir.node_id)
        (decision,) = cluster.check_many([world.request()])
        assert not decision.granted
        assert isinstance(decision.error, NeedAuthorizationError)

    def test_unrelated_serial_revocation_is_a_noop(self, world):
        _warm(world)
        assert world.cluster.revoke_serial(b"\x00" * 8) == 0
        decision = world.cluster.check(world.request())
        assert decision.granted and decision.stage == "cache"

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
        world.cluster.add_node()
        assert world.cluster.check(world.request()).granted
