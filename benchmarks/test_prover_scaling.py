"""Prover scaling (Sections 4.4 / 7.4.1): graph traversal and the
shortcut cache.

"These shortcuts form a cache that eliminates most deep traversals of the
graph" — quantified here: repeat queries over a deep delegation chain hit
the one-hop shortcut edge instead of re-walking the chain, and "proofs are
built incrementally ... with graph traversals of constant depth."
"""

import random

import pytest

from repro.cluster import AuthCluster
from repro.core.principals import NamePrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.statements import SpeaksFor
from repro.crypto import generate_keypair
from repro.guard import ChannelCredential, GuardRequest
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
    # The cold query must walk at least the chain itself...
    prover.stats["nodes_expanded"] = 0
    assert prover.find_proof(subject, issuer) is not None
    assert prover.stats["nodes_expanded"] >= depth
    # ...while the benchmarked steady state rides the shortcut cache.
    benchmark(lambda: prover.find_proof(subject, issuer))


def test_shortcut_cache_makes_repeat_queries_constant(benchmark):
    prover, subject, issuer = _chain_prover(16)
    first = prover.find_proof(subject, issuer)
    assert first is not None

    def cached_search():
        prover.stats["nodes_expanded"] = 0
        proof = prover.find_proof(subject, issuer)
        assert proof is not None
        return prover.stats["nodes_expanded"]

    expanded = benchmark(cached_search)
    # One hop over the shortcut edge, regardless of chain depth.
    assert expanded <= 2


def test_cache_speedup_measured(benchmark):
    """Wall-clock speedup of a cached query over a cold 16-hop traversal."""
    import time

    prover, subject, issuer = _chain_prover(16)

    def cold():
        fresh_prover, s, i = _chain_prover(16)
        start = time.perf_counter()
        fresh_prover.find_proof(s, i)
        return time.perf_counter() - start

    cold_time = min(cold() for _ in range(3))
    prover.find_proof(subject, issuer)  # warm the cache

    warm_time = benchmark(lambda: prover.find_proof(subject, issuer))
    # benchmark() returns the function result; use its stats instead.
    stats_mean = benchmark.stats.stats.mean
    assert stats_mean < cold_time, "cached queries beat cold traversals"


def test_incremental_collection_keeps_depth_constant(benchmark):
    """The common case the paper describes: delegations are digested as
    they are collected during naming, so each query starts from a cached
    prefix and extends it by one hop."""
    prover = Prover(max_depth=64, max_visits=4)
    nodes = [NamePrincipal(_BASE, "inc%d" % i) for i in range(33)]
    expansions = []

    def incremental_walk():
        expansions.clear()
        for subject, issuer in zip(nodes[1:], nodes):
            prover.add_proof(PremiseStep(SpeaksFor(subject, issuer, Tag.all())))
            prover.stats["nodes_expanded"] = 0
            proof = prover.find_proof(subject, nodes[0])
            assert proof is not None
            expansions.append(prover.stats["nodes_expanded"])
        return expansions

    benchmark.pedantic(incremental_walk, iterations=1, rounds=1)
    # Each extension explores O(1) nodes thanks to the cached prefix.
    tail = expansions[4:]
    assert max(tail) <= 8


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
    hops = [issuer] + [NamePrincipal(_BASE, "hop%d" % i) for i in range(3)]
    for target, subject in zip(hops, hops[1:]):
        prover.add_proof(PremiseStep(SpeaksFor(subject, target, Tag.all())))
    assert prover.find_proof(hops[-1], issuer) is not None
    # One pop per chain edge, all on the speaker's side (alternating
    # waves would spend two of four on the issuer's delegates).
    assert prover.stats["nodes_expanded"] == 3
    # Warm: the derived shortcut is met on the first expansion.
    before = prover.stats["nodes_expanded"]
    assert prover.find_proof(hops[-1], issuer) is not None
    assert prover.stats["nodes_expanded"] - before == 1


def _revocation_world(bystanders):
    """A 4-node cluster replicating ``bystanders`` one-hop delegations
    plus one two-hop chain (``session => victim => issuer``), every
    speaker's proof cached on its shard and the victim's chain derived
    and cached on every node."""
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
    up the victim's edges and cache buckets on each of 4 nodes — 2 edges
    (the revoked delegation and the shortcut derived over it) and 1
    cached proof per node — whether the nodes replicate 256 delegations
    or 2 048, and every bystander is still answered from its cache."""
    cluster, serial, victim_request, bystander_requests = _revocation_world(
        bystanders
    )
    nodes = cluster.nodes()
    edges = sum(node.prover.graph.edge_count() for node in nodes)
    cached = sum(node.guard.cache.count() for node in nodes)
    assert cached == bystanders + len(nodes)

    cluster.revoke_serial(serial)
    assert cluster.deliver_invalidations() == len(nodes) - 1

    counters = cluster.metrics.snapshot()["counters"]
    assert counters["prover.invalidate_examined"] == 2 * len(nodes)
    assert counters["guard.cache.retract_examined"] == len(nodes)
    # Only the victim's state went: per node the revoked edge, its
    # shortcut and the cached chain; the onward hop cites another serial.
    assert sum(
        node.prover.graph.edge_count() for node in nodes
    ) == edges - 2 * len(nodes)
    assert sum(node.guard.cache.count() for node in nodes) == bystanders
    assert not cluster.check_many([victim_request])[0].granted
    searches = sum(node.prover.stats["searches"] for node in nodes)
    assert all(d.granted for d in cluster.check_many(bystander_requests))
    assert sum(node.prover.stats["searches"] for node in nodes) == searches
