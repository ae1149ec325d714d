"""One speaker, one node: every check is served by its shard owner.

Delegations are replicated, so any node *could* decide a speaker's
checks; the cluster still sends each one to the speaker's shard owner,
single or batched.  What these tests pin is that owner routing, and the
properties that must survive a change of owner: a live channel's
binding follows a ring change, a delivered utterance is retracted where
it was vouched, and a revocation, retraction or channel close denies on
every node after one invalidation-bus round.

(The class names date from when a hot speaker's checks could spread
over its shard's ring successors; the test ids are kept.)
"""

import pytest

from repro.cluster import AuthCluster
from repro.core.errors import NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import Says, SpeaksFor
from repro.guard import ChannelCredential, GuardRequest
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

REQUESTS = 64


def _request(issuer, speaker, index=0):
    return GuardRequest(
        sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]]),
        issuer=issuer,
        credential=ChannelCredential(speaker),
        transport="rmi",
    )


class PinnedWorld:
    """A 4-node cluster with one replicated ``client => issuer``
    delegation."""

    def __init__(self, server_kp, alice_kp, rng):
        self.cluster = AuthCluster(node_count=4, clock=SimClock())
        self.issuer = KeyPrincipal(server_kp.public)
        self.client = KeyPrincipal(alice_kp.public)
        self.certificate = Certificate.issue(
            server_kp, self.client, Tag.all(), rng=rng
        )
        self.delegation = SignedCertificateStep(self.certificate)
        self.cluster.add_delegation(self.delegation)

    def channel_chain(self, channel):
        """``channel => client => issuer`` over a vouched binding."""
        return TransitivityStep(
            PremiseStep(SpeaksFor(channel, self.client, Tag.all())),
            self.delegation,
        )


@pytest.fixture()
def pinned_world(server_kp, alice_kp, rng):
    world = PinnedWorld(server_kp, alice_kp, rng)
    return world.cluster, world.issuer, world.client, world


def _served(cluster):
    return [node for node in cluster.nodes() if node.guard.stats["checks"]]


def _move_owner(cluster, speaker):
    """Join nodes until ``speaker``'s shard changes owner."""
    owner = cluster.node_for_speaker(speaker)
    for _ in range(32):
        cluster.add_node()
        if cluster.node_for_speaker(speaker) is not owner:
            return
    raise AssertionError("no join moved the speaker's shard")


class TestSpreading:
    def test_cold_speaker_stays_pinned_to_its_owner(self, pinned_world):
        cluster, issuer, client, _ = pinned_world
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        assert _served(cluster) == [cluster.node_for_speaker(client)]

    def test_replicas_disabled_at_r1(self, pinned_world):
        cluster, issuer, client, _ = pinned_world
        decisions = cluster.check_many(
            _request(issuer, client, index) for index in range(REQUESTS)
        )
        assert all(decision.granted for decision in decisions)
        assert _served(cluster) == [cluster.node_for_speaker(client)]
        assert cluster.dispatch_stats["shard_batches"] == 1

    def test_channel_premise_vouched_onto_replica_set(self, pinned_world):
        """A channel speaker: the binding premise is vouched on the
        owner at open and a submitted chain over it is memoized there,
        so every check grants; close plus one bus round denies."""
        cluster, issuer, client, world = pinned_world
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        premise = cluster.open_channel(channel, client)
        cluster.submit_proof(to_canonical(world.channel_chain(channel).to_sexp()))
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted
        assert _served(cluster) == [cluster.node_for_speaker(channel)]
        cluster.close_channel(premise)
        cluster.deliver_invalidations()
        for index in range(REQUESTS):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, channel, index))


class TestRingChangeUnderSpread:
    def test_channel_binding_follows_the_traffic_after_a_join(
        self, pinned_world
    ):
        """The ring can change under a live channel: the new owner is
        handed the binding from the channel directory, so a resubmitted
        chain verifies there instead of failing against a node that
        never saw the handshake."""
        cluster, issuer, client, world = pinned_world
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        cluster.open_channel(channel, client)
        wire = to_canonical(world.channel_chain(channel).to_sexp())
        cluster.submit_proof(wire)
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted

        _move_owner(cluster, channel)
        # The new owner holds neither the premise nor the cached chain:
        # the directory re-vouches the premise, so the worst case is a
        # re-challenge, and resubmitting the chain (the client's normal
        # response) must verify.
        cluster.submit_proof(wire)
        assert cluster.stats["channels_revouched"] == 1
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted

    def test_retract_delivery_reaches_the_node_that_vouched(
        self, pinned_world
    ):
        """A delivered utterance is vouched on the owner *at delivery
        time*; the retraction at teardown must find it after the ring
        changed in between (today's owner lookup would miss)."""
        cluster, issuer, client, _ = pinned_world
        request = _request(issuer, client)
        cluster.deliver(request)
        uttered = Says(client, request.logical)
        vouchers = [
            node for node in cluster.nodes()
            if node.trust.vouches_for(uttered)
        ]
        assert vouchers == [cluster.node_for_speaker(client)]
        _move_owner(cluster, client)
        cluster.retract_delivery(client, request.logical)
        assert not any(
            node.trust.vouches_for(uttered) for node in cluster.nodes()
        )


class TestRevocationUnderSpread:
    def test_revoked_serial_denied_on_every_replica_after_one_round(
        self, pinned_world
    ):
        cluster, issuer, client, world = pinned_world
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted

        cluster.revoke_serial(world.certificate.serial)
        assert cluster.deliver_invalidations() > 0

        # Every node — the origin, the owner, the bystanders — now
        # denies the speaker, checked directly so routing cannot dodge a
        # stale node.
        for node in cluster.nodes():
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(_request(issuer, client))
        # And through the cluster's own routing as well.
        for index in range(REQUESTS):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, client, index))

    def test_retracted_delegation_denied_through_spread_routing(
        self, pinned_world
    ):
        cluster, issuer, client, world = pinned_world
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        cluster.retract_delegation(world.delegation)
        cluster.deliver_invalidations()
        for index in range(REQUESTS):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, client, index))
