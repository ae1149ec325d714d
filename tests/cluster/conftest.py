"""A small world around the benchmark rig's front.

``world`` builds an :class:`AuthCluster` as ``bench/server.py`` does,
four member names over one guard, and hands it one delegation —
``client => issuer`` signed by the server key — through ``add_delegation``,
the call the rig makes.
"""

from __future__ import annotations

import pytest

from repro.cluster import AuthCluster
from repro.core.principals import KeyPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import ChannelCredential, GuardRequest
from repro.spki import Certificate
from repro.tags import Tag

REQUEST = ["web", ["method", "GET"], ["path", "/doc"]]
REQUESTS = 16


class FrontWorld:
    def __init__(self, server_kp, alice_kp, rng, nodes=4):
        self.cluster = AuthCluster(node_count=nodes)
        self.guard = self.cluster.guard
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

    def check(self, request):
        """One request through the front's ``check_many``, the rig's
        only decision call."""
        (decision,) = self.cluster.check_many([request])
        return decision


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    return FrontWorld(server_kp, alice_kp, rng)
