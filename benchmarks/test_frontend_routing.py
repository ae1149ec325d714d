"""Frontend routing: a listener fleet over a cluster vs one pinned guard.

Before the AuthBackend refactor every listener hard-constructed its own
single ``Guard`` — a fleet of fronts funneled every decision through one
simulated CPU.  This harness drives the same MAC-session steady state
(Table 1 pricing: one MAC verify + SPKI handling + one checkAuth per
request) through a 4-listener fleet twice:

- **pinned**: all four listeners share one ``Guard`` with one meter —
  the pre-refactor shape; modeled wall-clock is that single meter;
- **routed**: the same four listeners share an 8-node ``AuthCluster``
  (each is handed the cluster itself); modeled wall-clock is the
  busiest node's meter (the makespan).

Asserted: work is conserved exactly (routing moves charges, it never
adds any) and the routed fleet clears ≥ 3× the pinned fleet's modeled
throughput.
"""

from benchmarks._bench_output import write_bench
from repro.cluster import AuthCluster
from repro.obs import MetricsRegistry, Tracer
from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential, default_backend
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import sexp, to_canonical
from repro.sim import ClusterAggregate, SimClock
from repro.sim.costmodel import Meter
from repro.sim.metrics import BarChart
from repro.spki import Certificate
from repro.tags import Tag

LISTENERS = 4
SESSIONS = 96
REQUESTS = 384
NODES = 8


def _certify(server_kp, mac_key, rng):
    return SignedCertificateStep(
        Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
    )


def _request(issuer, sessions, index):
    mac_id, mac_key = sessions[index % len(sessions)]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def test_fleet_over_cluster_beats_fleet_pinned_to_one_guard(keypool, rng):
    server_kp = keypool[0]
    issuer = KeyPrincipal(server_kp.public)

    # -- pinned: four listeners, one guard, one simulated CPU ------------
    meter = Meter()
    pinned = default_backend(
        TrustEnvironment(clock=SimClock()), meter=meter, prover=Prover()
    )
    pinned_sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = pinned.mint_session(rng)
        pinned.digest_delegation(_certify(server_kp, mac_key, rng))
        pinned_sessions.append((mac_id, mac_key))
    for listener in range(LISTENERS):
        for index in range(listener, REQUESTS, LISTENERS):
            decision = pinned.check(_request(issuer, pinned_sessions, index))
            assert decision.granted
    pinned_ms = meter.total_ms()
    pinned_rps = REQUESTS / (pinned_ms / 1000.0)

    # -- routed: the same four listeners sharing one ring ----------------
    registry = MetricsRegistry()
    cluster = AuthCluster(
        node_count=NODES, metrics=registry, tracer=Tracer(registry=registry)
    )
    routed_sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = cluster.mint_session(rng)
        cluster.add_delegation(_certify(server_kp, mac_key, rng))
        routed_sessions.append((mac_id, mac_key))
    for listener in range(LISTENERS):
        for index in range(listener, REQUESTS, LISTENERS):
            decision = cluster.check(_request(issuer, routed_sessions, index))
            assert decision.granted
    aggregate = ClusterAggregate.of_nodes(cluster.nodes())
    routed_rps = aggregate.throughput(REQUESTS)

    chart = BarChart("listener fleet (modeled req/s)", unit="rps")
    chart.add("pinned to one guard", pinned_rps)
    chart.add("routed over %d nodes" % NODES, routed_rps)
    print("\n" + chart.render())
    print(
        "  speedup %.2fx | imbalance %.2f"
        % (routed_rps / pinned_rps, aggregate.imbalance())
    )

    write_bench(
        "frontend_routing",
        {
            "listeners": LISTENERS,
            "nodes": NODES,
            "requests": REQUESTS,
            "pinned_modeled_rps": pinned_rps,
            "routed_modeled_rps": routed_rps,
            "speedup": routed_rps / pinned_rps,
            "imbalance": aggregate.imbalance(),
        },
        registry=registry,
    )

    # Routing moves work between CPUs; it must not create or lose any.
    assert abs(aggregate.sum_ms() - pinned_ms) < 1e-6
    # The acceptance bar: ≥ 3× one guard's modeled throughput.
    assert routed_rps >= 3 * pinned_rps

