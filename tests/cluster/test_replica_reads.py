"""Replica reads: a hot speaker's checks spread over R ring successors.

One speaker = one shard caps a hot speaker at one node's throughput.
With ``replica_reads = R > 1`` the cluster routes a speaker's checks
round-robin over the R successors of its shard once its traffic passes
``hot_threshold`` — safe because delegations are replicated (any node
can verify), session secrets re-mint from the escrow directory, and
channel premises are vouched onto the replica set at open.

The safety half is the revocation property: a serial revoked anywhere
must be denied on *every* replica serving the hot speaker after one
invalidation-bus round.
"""

import pytest

from repro.cluster import AuthCluster
from repro.core.errors import NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import ChannelCredential, GuardRequest, SessionCredential
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

HOT_THRESHOLD = 8
REQUESTS = 64


def _request(issuer, speaker, index=0):
    return GuardRequest(
        sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]]),
        issuer=issuer,
        credential=ChannelCredential(speaker),
        transport="rmi",
    )


class HotWorld:
    def __init__(self, server_kp, alice_kp, rng):
        self.cluster = AuthCluster(
            node_count=4,
            clock=SimClock(),
            replica_reads=2,
            hot_threshold=HOT_THRESHOLD,
        )
        self.issuer = KeyPrincipal(server_kp.public)
        self.client = KeyPrincipal(alice_kp.public)
        self.certificate = Certificate.issue(
            server_kp, self.client, Tag.all(), rng=rng
        )
        self.delegation = SignedCertificateStep(self.certificate)
        self.cluster.add_delegation(self.delegation)


@pytest.fixture()
def hot_world(server_kp, alice_kp, rng):
    world = HotWorld(server_kp, alice_kp, rng)
    return world.cluster, world.issuer, world.client, world


class TestSpreading:
    def test_hot_speaker_lands_on_multiple_nodes(self, hot_world):
        cluster, issuer, client, _ = hot_world
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 2  # owner + one ring successor
        assert cluster.stats["replica_reads"] > 0
        # Every replica did real work, not just the overflow crumbs.
        for node in served:
            assert node.guard.stats["grants"] > HOT_THRESHOLD // 2

    def test_cold_speaker_stays_pinned_to_its_owner(self, hot_world):
        cluster, issuer, client, _ = hot_world
        for index in range(HOT_THRESHOLD):  # never crosses the threshold
            assert cluster.check(_request(issuer, client, index)).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 1
        assert cluster.stats["replica_reads"] == 0

    def test_replicas_disabled_at_r1(self, server_kp, alice_kp, rng):
        cluster = AuthCluster(node_count=4, replica_reads=1,
                              hot_threshold=HOT_THRESHOLD)
        issuer = KeyPrincipal(server_kp.public)
        client = KeyPrincipal(alice_kp.public)
        certificate = Certificate.issue(server_kp, client, Tag.all(), rng=rng)
        cluster.add_delegation(SignedCertificateStep(certificate))
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 1

    def test_batched_dispatch_spreads_the_same_way(self, hot_world):
        cluster, issuer, client, _ = hot_world
        decisions = cluster.check_many(
            _request(issuer, client, index) for index in range(REQUESTS)
        )
        assert all(decision.granted for decision in decisions)
        served = [
            node for node in cluster.nodes() if node.guard.stats["grants"] > 0
        ]
        assert len(served) == 2

    def test_session_secret_reminted_onto_replica(self, server_kp, rng):
        """A hot MAC session's spread checks land on a replica that never
        minted it: the escrow directory installs the secret there on
        first miss, with the original stamp."""
        cluster = AuthCluster(
            node_count=4, clock=SimClock(), replica_reads=2,
            hot_threshold=HOT_THRESHOLD, session_ttl=100.0,
        )
        issuer = KeyPrincipal(server_kp.public)
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        for index in range(REQUESTS):
            logical = sexp(["web", ["path", "/doc-%d" % index]])
            message = to_canonical(logical)
            decision = cluster.check(
                GuardRequest(
                    logical,
                    issuer=issuer,
                    credential=SessionCredential(
                        mac_id, mac_key.tag(message), message
                    ),
                    transport="http",
                )
            )
            assert decision.granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 2
        assert cluster.stats["sessions_reminted"] >= 1

    def test_channel_premise_vouched_onto_replica_set(self, hot_world):
        """A hot *channel* speaker: the binding premise is vouched onto
        the replica set at open, and a submitted chain over it is
        memoized there too, so spread checks grant on every replica."""
        cluster, issuer, client, world = hot_world
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        from repro.core.proofs import PremiseStep
        from repro.core.rules import TransitivityStep
        from repro.core.statements import SpeaksFor

        premise_vouched = cluster.open_channel(channel, client)
        chain = TransitivityStep(
            PremiseStep(SpeaksFor(channel, client, Tag.all())),
            world.delegation,
        )
        cluster.submit_proof(to_canonical(chain.to_sexp()))
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 2
        # Closing the channel + one bus round denies on the whole set.
        cluster.close_channel(premise_vouched)
        cluster.deliver_invalidations()
        for index in range(2 * HOT_THRESHOLD):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, channel, index))


class TestRingChangeUnderSpread:
    def test_channel_binding_follows_the_traffic_after_a_join(self, hot_world):
        """The ring can change under a live hot channel: new serving
        nodes are handed the binding from the channel directory, so a
        resubmitted chain verifies wherever the spread lands instead of
        failing against a node that never saw the handshake."""
        cluster, issuer, client, world = hot_world
        channel = ChannelPrincipal.of_secret(b"\x07" * 32)
        from repro.core.proofs import PremiseStep
        from repro.core.rules import TransitivityStep
        from repro.core.statements import SpeaksFor

        premise = cluster.open_channel(channel, client)
        chain = TransitivityStep(
            PremiseStep(SpeaksFor(channel, client, Tag.all())),
            world.delegation,
        )
        cluster.submit_proof(to_canonical(chain.to_sexp()))
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted

        # Reshape the ring under the live connection, then keep the
        # speaker hot.  Any node the new replica set pulls in lacks both
        # the premise and the cached chain — the directory re-vouches the
        # premise, so the worst case is a re-challenge, and resubmitting
        # the chain (the client's normal response) must verify.
        for _ in range(2):
            cluster.add_node()
        cluster.submit_proof(to_canonical(chain.to_sexp()))
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, channel, index)).granted
        assert cluster.nodes()[-1] is not None  # the join really happened

    def test_retract_delivery_reaches_the_node_that_vouched(
        self, server_kp, alice_kp, rng
    ):
        """A delivered utterance is vouched on the owner *at delivery
        time*; the retraction at teardown must find it even if the ring
        changed in between (today's owner lookup would miss)."""
        world = HotWorld(server_kp, alice_kp, rng)
        cluster = world.cluster
        from repro.core.statements import Says

        request = _request(world.issuer, world.client)
        cluster.deliver(request)
        uttered = Says(world.client, request.logical)
        vouchers = [
            node for node in cluster.nodes()
            if node.trust.vouches_for(uttered)
        ]
        assert len(vouchers) == 1
        for _ in range(3):
            cluster.add_node()
        cluster.retract_delivery(world.client, request.logical)
        assert not any(
            node.trust.vouches_for(uttered) for node in cluster.nodes()
        )

    def test_hot_counter_cools_after_the_window(self, server_kp, alice_kp, rng):
        """Hotness is a windowed rate, not a lifetime total: a speaker
        that trickles past the threshold over a long time stays pinned
        to its owner."""
        world = HotWorld(server_kp, alice_kp, rng)
        cluster = world.cluster
        cluster.hot_window = 10.0
        clock = cluster.clock
        # Trickle: one request every 11 simulated seconds, far past the
        # threshold in lifetime count but never within one window.
        for index in range(4 * HOT_THRESHOLD):
            clock.advance(11.0)
            assert cluster.check(
                _request(world.issuer, world.client, index)
            ).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 1
        assert cluster.stats["replica_reads"] == 0


class TestRevocationUnderSpread:
    def test_revoked_serial_denied_on_every_replica_after_one_round(
        self, hot_world
    ):
        cluster, issuer, client, world = hot_world
        certificate = world.certificate
        # Run the speaker hot so both replicas hold derived state.
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        served = [
            node for node in cluster.nodes() if node.guard.stats["checks"] > 0
        ]
        assert len(served) == 2

        cluster.revoke_serial(certificate.serial)
        assert cluster.deliver_invalidations() > 0

        # Every node — the origin, the spread replicas, the bystanders —
        # now denies the speaker, checked directly so routing cannot
        # accidentally dodge a stale replica.
        for node in cluster.nodes():
            with pytest.raises(NeedAuthorizationError):
                node.guard.check(_request(issuer, client))
        # And through the cluster's own (spread) routing as well.
        for index in range(2 * HOT_THRESHOLD):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, client, index))

    def test_retracted_delegation_denied_through_spread_routing(
        self, hot_world
    ):
        cluster, issuer, client, world = hot_world
        for index in range(REQUESTS):
            assert cluster.check(_request(issuer, client, index)).granted
        cluster.retract_delegation(world.delegation)
        cluster.deliver_invalidations()
        for index in range(2 * HOT_THRESHOLD):
            with pytest.raises(NeedAuthorizationError):
                cluster.check(_request(issuer, client, index))
