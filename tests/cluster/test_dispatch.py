"""The benchmark rig's front forwards a stream as one batch.

``AuthCluster.check_many`` hands the whole stream to its one guard's
``check_many``: decisions come back in stream order, a bad request is
refused alone, and the front's ``dispatch`` stats (which
``bench/layers.py`` turns into ``shard_batches_per_dispatch``) count one
guard batch per stream.  These tests go with the front.
"""

import random

from repro.cluster import AuthCluster
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.guard import (
    ChannelCredential,
    GuardRequest,
    SessionCredential,
    default_backend,
)
from repro.net.trust import TrustEnvironment
from repro.sexp import to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

SPEAKERS = 8
ROUNDS = 3


def _world(server_kp, alice_kp, rng, nodes=4):
    """A front with SPEAKERS channels, each provably bound to the
    client, its chain submitted and cached."""
    cluster = AuthCluster(node_count=nodes)
    issuer = KeyPrincipal(server_kp.public)
    client = KeyPrincipal(alice_kp.public)
    delegation = SignedCertificateStep(
        Certificate.issue(server_kp, client, Tag.all(), rng=rng)
    )
    cluster.add_delegation(delegation)
    channels = []
    for index in range(SPEAKERS):
        channel = ChannelPrincipal.of_secret(b"conn-%d" % index)
        premise = SpeaksFor(channel, client, Tag.all())
        cluster.guard.trust.vouch(premise)
        cluster.submit_proof(
            to_canonical(
                TransitivityStep(PremiseStep(premise), delegation).to_sexp()
            )
        )
        channels.append(channel)

    def request(channel, path="/doc"):
        return GuardRequest(
            ["web", ["method", "GET"], ["path", path]],
            issuer=issuer,
            credential=ChannelCredential(channel),
            transport="http",
        )

    return cluster, channels, request


def _stream(channels, request):
    return [
        request(channels[i % SPEAKERS], "/doc-%d" % i)
        for i in range(SPEAKERS * ROUNDS)
    ]


def test_decisions_come_back_in_stream_order(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = _stream(channels, request)
    decisions = cluster.check_many(stream)
    assert len(decisions) == len(stream)
    for i, decision in enumerate(decisions):
        assert decision.granted
        assert decision.speaker == channels[i % SPEAKERS]


def test_one_checkauth_charge_per_shard_batch(server_kp, alice_kp, rng):
    """One ``Guard.check_many`` (the guard's checkAuth) per stream, and
    the front's ``dispatch`` stats say so."""
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = _stream(channels, request)
    cluster.check_many(stream)
    assert cluster.guard.metrics.histogram("guard.batch_size").count == 1
    assert cluster.stats_snapshot()["dispatch"] == {
        "dispatches": 1,
        "requests": len(stream),
        "shard_batches": 1,
    }

    # One request per call is one guard batch per request.  Both fronts
    # count on the process's registry, so read the second one's share.
    sequential, channels2, request2 = _world(server_kp, alice_kp, rng)
    sizes = sequential.guard.metrics.histogram("guard.batch_size")
    before = sizes.count
    for one in _stream(channels2, request2):
        sequential.check_many([one])
    assert sizes.count - before == SPEAKERS * ROUNDS


def test_batch_and_sequential_agree(server_kp, alice_kp, rng):
    batched_cluster, channels, request = _world(server_kp, alice_kp, rng)
    batched = batched_cluster.check_many(
        [request(channel) for channel in channels]
    )
    sequential_cluster, channels2, request2 = _world(server_kp, alice_kp, rng)
    sequential = [
        sequential_cluster.check_many([request2(channel)])[0]
        for channel in channels2
    ]
    for one, many in zip(sequential, batched):
        assert one.granted and many.granted
        assert one.proof.conclusion == many.proof.conclusion


def test_a_bad_request_does_not_sink_its_batch(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    bad = GuardRequest(["web"], issuer=KeyPrincipal(server_kp.public))
    decisions = cluster.check_many(
        [request(channels[0]), bad, request(channels[1])]
    )
    assert decisions[0].granted and decisions[2].granted
    assert not decisions[1].granted
    assert isinstance(decisions[1].error, AuthorizationError)


def test_a_session_proof_for_another_subject_does_not_sink_its_batch(
    server_kp, alice_kp, rng
):
    """A MAC session installed through the front, whose first request
    attaches the client's own public delegation — valid, but not about
    the session — is refused alone."""
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    donor = default_backend(TrustEnvironment(), rng=random.Random(3))
    mac_id, mac_key = donor.mint_session()
    cluster.install_session(mac_id, mac_key)
    clients = SignedCertificateStep(Certificate.issue(
        server_kp, KeyPrincipal(alice_kp.public), Tag.all(), rng=rng
    ))
    message = b"GET /doc"
    evil = GuardRequest(
        ["web", ["method", "GET"], ["path", "/doc"]],
        issuer=KeyPrincipal(server_kp.public),
        credential=SessionCredential(
            mac_id, mac_key.tag(message), message,
            proof_wire=to_transport(clients.to_sexp()),
        ),
        transport="http",
    )
    innocent, refused = cluster.check_many([request(channels[0]), evil])
    assert innocent.granted
    assert not refused.granted
    assert isinstance(refused.error, NeedAuthorizationError)
