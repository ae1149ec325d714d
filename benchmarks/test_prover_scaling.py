"""Prover scaling (Sections 4.4 / 7.4.1): graph traversal, gated on
counts.

The paper caches derived chains as graph edges, "a cache that eliminates
most deep traversals".  Here the guard's proof cache holds each found
chain under its speaker, so a served repeat never reaches the prover
(``test_cold_grant_expands_depth_not_fan_in``), and what is left to gate
is what a search pops: the chain's depth for a grant, one node for a
refusal, whatever the graph holds.
"""

import random

import pytest

from repro.cluster import AuthCluster
from repro.core.principals import NamePrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.statements import SpeaksFor
from repro.crypto import generate_keypair
from repro.guard import ChannelCredential, Guard, GuardRequest
from repro.net.trust import TrustEnvironment
from repro.obs.registry import MetricsRegistry
from repro.prover import Prover
from repro.spki import Certificate
from repro.tags import Tag

_BASE_KP = generate_keypair(384, random.Random(0x5CA1E))
_BASE = KeyPrincipal(_BASE_KP.public)


def _chain_prover(depth, fanout=3):
    """A delegation chain of the given depth, with `fanout` distractor
    edges per node to make traversal width realistic."""
    prover = Prover(max_depth=depth + 2, max_visits=fanout + 2)
    nodes = [NamePrincipal(_BASE, "n%d" % i) for i in range(depth + 1)]
    for subject, issuer in zip(nodes[1:], nodes):
        prover.add_proof(PremiseStep(SpeaksFor(subject, issuer, Tag.all())))
    for i, node in enumerate(nodes[:-1]):
        for j in range(fanout):
            distractor = NamePrincipal(_BASE, "d%d-%d" % (i, j))
            prover.add_proof(PremiseStep(SpeaksFor(distractor, node, Tag.all())))
    return prover, nodes[-1], nodes[0]


@pytest.mark.parametrize("depth", [2, 4, 8, 16])
def test_first_query_scales_with_depth(benchmark, depth):
    prover, subject, issuer = _chain_prover(depth)
    # Every query walks at least the chain itself: a found chain is not
    # stored back into the graph (the guard's proof cache holds it).
    prover.stats["nodes_expanded"] = 0
    assert prover.find_proof(subject, issuer) is not None
    assert prover.stats["nodes_expanded"] >= depth
    benchmark(lambda: prover.find_proof(subject, issuer))


def _fan_in_prover(delegates):
    """One issuer with ``delegates`` direct delegates — the shape of a
    server holding one session chain per client."""
    prover = Prover()
    issuer = NamePrincipal(_BASE, "fan-in-issuer")
    for i in range(delegates):
        prover.add_proof(PremiseStep(SpeaksFor(
            NamePrincipal(_BASE, "delegate%d" % i), issuer, Tag.all()
        )))
    return prover, issuer


@pytest.mark.parametrize("delegates", [256, 2048])
def test_refusal_cost_is_flat_in_graph_size(delegates):
    """A count gate, not a timing: a speaker holding no delegation is
    refused when its own wave runs dry, not after the issuer's whole
    incoming bucket has been walked."""
    prover, issuer = _fan_in_prover(delegates)
    unknown = NamePrincipal(_BASE, "unknown-speaker")
    for refusal in range(1, 4):
        assert prover.find_proof(unknown, issuer) is None
        assert prover.stats["searches"] == refusal
        assert prover.stats["nodes_expanded"] <= 2 * refusal


def test_cold_grant_expands_depth_not_fan_in():
    """A depth-3 chain beside 2 048 siblings is proved from the
    speaker's side: the cheaper frontier walks, so the issuer's incoming
    bucket is never enumerated."""
    prover, issuer = _fan_in_prover(2048)
    trust = TrustEnvironment()
    hops = [issuer] + [NamePrincipal(_BASE, "hop%d" % i) for i in range(3)]
    for target, subject in zip(hops, hops[1:]):
        statement = SpeaksFor(subject, target, Tag.all())
        trust.vouch(statement)
        prover.add_proof(PremiseStep(statement))
    assert prover.find_proof(hops[-1], issuer) is not None
    # One pop per chain edge, all on the speaker's side (alternating
    # waves would spend two of four on the issuer's delegates).
    assert prover.stats["nodes_expanded"] == 3
    # Warm: the guard caches the chain it found under the speaker, so a
    # repeat check is answered without a search.
    guard = Guard(trust, prover=prover)
    request = GuardRequest(
        ["web"], issuer=issuer, credential=ChannelCredential(hops[-1]),
    )
    assert guard.check(request).stage == "prover"
    searches = prover.stats["searches"]
    assert guard.check(request).stage == "cache"
    assert prover.stats["searches"] == searches


def _revocation_world(bystanders):
    """A 4-node cluster whose graph holds ``bystanders`` one-hop delegations
    plus one two-hop chain (``session => victim => issuer``), every
    speaker's proof cached on its shard and the victim's chain derived
    and cached in every node's proof cache."""
    rng = random.Random(0xD1E)
    cluster = AuthCluster(node_count=4, metrics=MetricsRegistry())
    victim_kp = generate_keypair(384, rng)
    victim = KeyPrincipal(victim_kp.public)
    session = NamePrincipal(victim, "session")
    revoked = Certificate.issue(_BASE_KP, victim, Tag.all(), rng=rng)
    holders = [NamePrincipal(_BASE, "holder%d" % i) for i in range(bystanders)]
    for certificate in [
        revoked, Certificate.issue(victim_kp, session, Tag.all(), rng=rng)
    ] + [
        Certificate.issue(_BASE_KP, holder, Tag.all(), rng=rng)
        for holder in holders
    ]:
        cluster.add_delegation(SignedCertificateStep(certificate))

    def ask(speaker):
        return GuardRequest(
            ["web", ["method", "GET"]], issuer=_BASE,
            credential=ChannelCredential(speaker), transport="rmi",
        )

    for node in cluster.nodes():
        assert node.guard.check(ask(session)).granted
    bystander_requests = [ask(holder) for holder in holders]
    assert all(d.granted for d in cluster.check_many(bystander_requests))
    return cluster, revoked.serial, ask(session), bystander_requests


@pytest.mark.parametrize("bystanders", [256, 2048])
def test_revocation_cost_is_flat_in_what_the_cluster_holds(bystanders):
    """A count gate, not a timing: one revocation and its bus round look
    up 1 edge (the revoked delegation) in the cluster's one graph and 1
    cached proof on each of 4 nodes — whether the graph holds 256
    delegations or 2 048 — and every bystander is still answered from
    its cache."""
    cluster, serial, victim_request, bystander_requests = _revocation_world(
        bystanders
    )
    nodes = cluster.nodes()
    edges = cluster.graph.edge_count()
    cached = sum(node.guard.cache.count() for node in nodes)
    assert cached == bystanders + len(nodes)

    cluster.revoke_serial(serial)
    assert cluster.deliver_invalidations() == len(nodes) - 1

    assert sum(
        node.prover.stats["invalidate_examined"] for node in nodes
    ) == 1
    assert sum(
        node.guard.cache.stats["retract_examined"] for node in nodes
    ) == len(nodes)
    # Only the victim's state went: the revoked edge, once, and each
    # node's cached chain; the onward hop cites another serial.
    assert cluster.graph.edge_count() == edges - 1
    assert sum(node.guard.cache.count() for node in nodes) == bystanders
    assert not cluster.check_many([victim_request])[0].granted
    searches = sum(node.prover.stats["searches"] for node in nodes)
    assert all(d.granted for d in cluster.check_many(bystander_requests))
    assert sum(node.prover.stats["searches"] for node in nodes) == searches
