"""Cluster scaling: modeled throughput from 1 to 8 guard nodes.

The load generator drives the same MAC-session steady state the paper's
Table 1 prices — per request: one MAC verify (28 ms), SPKI handling
(20 + 20 + 17 ms), one checkAuth (5 ms) — through an
:class:`AuthCluster` at 1, 2, 4, and 8 nodes.  Each node's meter is its
simulated CPU, so the *makespan* (the busiest node's total) is the
parallel wall-clock and requests/makespan is the modeled throughput.

Two properties are asserted:

- **work is conserved**: the summed (serial-equivalent) cost is the same
  at every cluster size — sharding moves work, it does not add any;
- **throughput scales**: ≥ 3× at 8 nodes over 1 node (the acceptance
  bar; the measured figure is higher, bounded below perfect linearity
  only by consistent-hash placement imbalance).

Batched dispatch is reported alongside: grouping the stream per shard
and riding ``Guard.check_many`` drops the per-request checkAuth charge
to one per shard batch.
"""

import time

from benchmarks._bench_output import write_bench
from repro.cluster import AuthCluster
from repro.obs import MetricsRegistry, Tracer
from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential
from repro.sexp import sexp, to_canonical
from repro.sim import ClusterAggregate
from repro.sim.metrics import BarChart
from repro.spki import Certificate
from repro.tags import Tag

NODES = (1, 2, 4, 8)
SESSIONS = 96
REQUESTS = 384


def _workload(keypool, rng, nodes, metrics=None, tracer=None):
    """A cluster of ``nodes`` serving SESSIONS MAC sessions, plus the
    request stream: REQUESTS requests round-robined over the sessions."""
    server_kp = keypool[0]
    issuer = KeyPrincipal(server_kp.public)
    cluster = AuthCluster(node_count=nodes, metrics=metrics, tracer=tracer)
    sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        sessions.append((mac_id, mac_key))
    requests = []
    for index in range(REQUESTS):
        mac_id, mac_key = sessions[index % SESSIONS]
        logical = sexp(
            ["web", ["method", "GET"], ["path", "/doc-%d" % index]]
        )
        message = to_canonical(logical)
        requests.append(
            GuardRequest(
                logical,
                issuer=issuer,
                credential=SessionCredential(
                    mac_id, mac_key.tag(message), message
                ),
                transport="http",
            )
        )
    return cluster, requests


def test_throughput_scales_near_linearly_to_8_nodes(keypool, rng):
    chart = BarChart("cluster scaling (modeled req/s)", unit="rps")
    throughput = {}
    sums = {}
    wall = {}
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    for nodes in NODES:
        cluster, requests = _workload(
            keypool, rng, nodes, metrics=registry, tracer=tracer
        )
        start = time.perf_counter()
        for request in requests:
            assert cluster.check(request).granted
        wall[nodes] = time.perf_counter() - start
        aggregate = ClusterAggregate.of_nodes(cluster.nodes())
        throughput[nodes] = aggregate.throughput(REQUESTS)
        sums[nodes] = aggregate.sum_ms()
        chart.add(
            "%d node%s" % (nodes, "s" if nodes > 1 else ""),
            throughput[nodes],
        )
    print("\n" + chart.render())
    print(
        "  speedups: "
        + ", ".join(
            "%dx nodes -> %.2fx" % (n, throughput[n] / throughput[1])
            for n in NODES
        )
        + " | wall s: "
        + ", ".join("%.2f" % wall[n] for n in NODES)
    )
    write_bench(
        "cluster_scaling",
        {
            "sessions": SESSIONS,
            "requests": REQUESTS,
            "modeled_rps": {str(n): throughput[n] for n in NODES},
            "speedup_at_8": throughput[8] / throughput[1],
            "wall_seconds": {str(n): wall[n] for n in NODES},
        },
        registry=registry,
    )
    # Sharding conserves work: the serial-equivalent cost is identical.
    for nodes in NODES[1:]:
        assert abs(sums[nodes] - sums[1]) < 1e-6
    # Throughput grows with every doubling...
    for smaller, larger in zip(NODES, NODES[1:]):
        assert throughput[larger] > throughput[smaller]
    # ...and clears the acceptance bar at 8 nodes.
    assert throughput[8] >= 3 * throughput[1]


def test_batched_dispatch_amortizes_the_checkauth_charge(keypool, rng):
    cluster, requests = _workload(keypool, rng, 8)
    decisions = cluster.check_many(requests)
    assert all(decision.granted for decision in decisions)
    charges = sum(
        node.meter.counts().get("rmi_checkauth", 0)
        for node in cluster.nodes()
    )
    # One checkAuth per shard batch instead of one per request.
    assert charges == cluster.stats_snapshot()["dispatch"]["shard_batches"]
    assert charges <= 8
    aggregate = ClusterAggregate.of_nodes(cluster.nodes())
    batched = aggregate.throughput(REQUESTS)
    print(
        "\nbatched 8-node dispatch: %.1f modeled req/s "
        "(%d checkAuth charges for %d requests, imbalance %.2f)"
        % (batched, charges, REQUESTS, aggregate.imbalance())
    )
