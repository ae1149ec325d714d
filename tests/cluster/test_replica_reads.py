"""One speaker, one node: every check is served by its shard owner.

Delegations are replicated, so any node *could* decide a speaker's
checks; the cluster still sends each one to the speaker's shard owner,
single or batched, and a channel speaker's binding is vouched there.

(The class name dates from when a hot speaker's checks could spread
over its shard's ring successors; the test ids are kept.)
"""

import pytest

from repro.cluster import AuthCluster
from repro.core.errors import NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
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
