"""Batch dispatch: stream order, shard batching, and meter amortization."""

from repro.cluster import AuthCluster, routing_key
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.guard import ChannelCredential, GuardRequest, SessionCredential
from repro.sexp import to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

SPEAKERS = 8
ROUNDS = 3


def _world(server_kp, alice_kp, rng, nodes=4):
    """A cluster with SPEAKERS channels, each provably bound to the
    client and replicated so any shard can verify any of them."""
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
        owner = cluster.node_for_speaker(channel)
        owner.trust.vouch(premise)
        owner.guard.submit_proof(
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


def test_decisions_come_back_in_stream_order(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = [
        request(channels[i % SPEAKERS], "/doc-%d" % i)
        for i in range(SPEAKERS * ROUNDS)
    ]
    decisions = cluster.check_many(stream)
    assert len(decisions) == len(stream)
    for i, decision in enumerate(decisions):
        assert decision.granted
        assert decision.speaker == channels[i % SPEAKERS]


def test_one_checkauth_charge_per_shard_batch(server_kp, alice_kp, rng):
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    stream = [
        request(channels[i % SPEAKERS], "/doc-%d" % i)
        for i in range(SPEAKERS * ROUNDS)
    ]
    shards_touched = len(
        {cluster.membership.node_for(routing_key(r)).node_id for r in stream}
    )
    cluster.check_many(stream)
    charges = sum(
        node.meter.counts().get("rmi_checkauth", 0)
        for node in cluster.nodes()
    )
    # Batched: one checkAuth per shard batch, not one per request.
    assert charges == shards_touched
    dispatch = cluster.stats_snapshot()["dispatch"]
    assert dispatch["shard_batches"] == shards_touched

    # Sequentially, the same stream pays one charge per request.
    sequential, channels2, request2 = _world(server_kp, alice_kp, rng)
    for i in range(SPEAKERS * ROUNDS):
        sequential.check(request2(channels2[i % SPEAKERS], "/doc-%d" % i))
    charges = sum(
        node.meter.counts().get("rmi_checkauth", 0)
        for node in sequential.nodes()
    )
    assert charges == SPEAKERS * ROUNDS


def test_batch_and_sequential_agree(server_kp, alice_kp, rng):
    batched_cluster, channels, request = _world(server_kp, alice_kp, rng)
    batched = batched_cluster.check_many(
        [request(channel) for channel in channels]
    )
    sequential_cluster, channels2, request2 = _world(server_kp, alice_kp, rng)
    sequential = [
        sequential_cluster.check(request2(channel)) for channel in channels2
    ]
    for one, many in zip(sequential, batched):
        assert many.granted
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
    """A MAC session's first request attaching the client's own public
    delegation — valid, but not about the session — is refused alone."""
    cluster, channels, request = _world(server_kp, alice_kp, rng)
    mac_id, mac_key = cluster.mint_session(rng)
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
