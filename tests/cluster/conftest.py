"""Shared cluster-test helpers: a small cluster world.

``cluster_world`` builds an :class:`AuthCluster` plus one delegation —
``client => issuer`` signed by the server key and digested into the
cluster's one graph — so any node can authorize the client's requests.
"""

from __future__ import annotations

import pytest

from repro.cluster import AuthCluster
from repro.core.principals import KeyPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import ChannelCredential, GuardRequest
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

REQUEST = ["web", ["method", "GET"], ["path", "/doc"]]
REQUESTS = 64


class ClusterWorld:
    def __init__(self, server_kp, alice_kp, rng, nodes=3, **kwargs):
        self.clock = SimClock()
        self.cluster = AuthCluster(node_count=nodes, clock=self.clock, **kwargs)
        self.server_kp = server_kp
        self.rng = rng
        self.issuer = KeyPrincipal(server_kp.public)
        self.client = KeyPrincipal(alice_kp.public)
        self.certificate = Certificate.issue(
            server_kp, self.client, Tag.all(), rng=rng
        )
        self.delegation = SignedCertificateStep(self.certificate)
        self.cluster.add_delegation(self.delegation)

    def request(self, speaker=None, logical=REQUEST, transport="rmi"):
        return GuardRequest(
            logical,
            issuer=self.issuer,
            credential=ChannelCredential(
                speaker if speaker is not None else self.client
            ),
            transport=transport,
        )

    def requests(self, speaker=None, count=REQUESTS):
        """``count`` checks by ``speaker`` (the client by default), one
        path each."""
        return [
            self.request(
                speaker,
                ["web", ["method", "GET"], ["path", "/doc-%d" % index]],
            )
            for index in range(count)
        ]


def move_owner(cluster, speaker):
    """Join nodes until ``speaker``'s shard changes owner; returns the
    new owner."""
    owner = cluster.node_for_speaker(speaker)
    for _ in range(32):
        cluster.add_node()
        if cluster.node_for_speaker(speaker) is not owner:
            return cluster.node_for_speaker(speaker)
    raise AssertionError("no join moved the speaker's shard")


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    return ClusterWorld(server_kp, alice_kp, rng)
