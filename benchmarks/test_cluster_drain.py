"""Planned drain vs cold leave, measured through real loopback sockets.

The claim under test is the handoff tentpole: a *planned* topology
change should be ~free at the request surface, because the departing
node hands its cached chains to the inheriting successors, as objects,
before its ring points are withdrawn (the MAC sessions themselves live
once, in the cluster's session table, and never move).  A *cold* leave is the control: same ring arithmetic, no
transfer — every inherited session pays a full Prover search plus real
RSA verification on its first post-leave check.

The harness makes the contrast sharp by construction: every MAC session
is minted onto ONE victim node (mint-and-keep until the ring agrees),
so the cold leave forces a re-derivation storm covering the whole
working set, while the drain hands the same set over warm.  Each
session sits at the bottom of a three-deep delegation chain
(root -> gateway -> host -> MAC, 1024-bit keys), so a cold re-derivation
pays a real graph search plus three RSA verifies per session, while the
drain hands over the cached chains themselves: no byte is encoded or
parsed on the way.  Traffic is
real bytes over 127.0.0.1 through a one-listener :class:`ServeFleet`,
driven in fixed-size pipelined windows by a client on the same event
loop; the topology change fires as a loop callback at a window boundary
(the loop is the cluster's single owner — the discipline
``bench/server.py``'s control line follows), so it lands after the
window's frames are written and before the listener serves them, and
the post-change windows measure checks/s through the flip — *dip depth*
(how far below the pre-change baseline the worst post-change window
falls) and *dip duration* (how long throughput stays below 90% of
baseline) are the first-class metrics.

The assertions ride counters only: the drained path's survivors pay
**zero** Prover searches where the cold path pays one per session, the
drain makes **zero** ``parse_canonical`` calls, no handed-off record is
refused as stale, and no client sees a RETRY.  Wall clock is recorded,
not asserted: the drain (~1.3 ms for 48 records) still lands inside the
first post-change window, and ``BENCH_cluster_drain.json`` holds the
dip depths of both paths.  What a drain
costs bystanders under paced load is ``churn_paced``'s
``cluster.handoff.drain_ms`` and ``loadgen.lat_p99_ms`` (``bench/``).

Results land in ``BENCH_cluster_drain.json``.
"""

import asyncio
import contextlib
import gc
import os
import statistics
import sys
import time

from benchmarks._bench_output import write_bench
from repro.cluster import AuthCluster
from repro.cluster.ring import session_routing_key
from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.rsa import generate_keypair
from repro.guard import GuardRequest, SessionCredential
from repro.serve import ServeClient, ServeFleet
from repro.sexp import parser, sexp, to_canonical
from repro.spki import Certificate
from repro.tags import Tag

NODES = 4
SESSIONS = 48
DISTINCT_PATHS = 8
PRE_WINDOWS = 4          # window 0 is cache warm-up; baseline = 1..PRE-1
POST_WINDOWS = 4
RUNS = 3                 # cold/drain pairs; the JSON reports the median
WINDOW_REQUESTS = 2 * SESSIONS  # every window touches every session twice
DIP_FLOOR = 0.90         # a window below 90% of baseline counts as dipped
#: Delegation chains in the drain world are this deep and this wide:
#: the ``root -> gateways -> host`` spine is built of 1024-bit issuers,
#: so a cold re-derivation pays ``CHAIN_HOPS`` real RSA verifies plus a
#: deep bidirectional search per session, while a drained record is the
#: cached chain object itself, installed without a parse or a verify.
KEY_BITS = 1024
CHAIN_HOPS = 4

try:
    CPU_CORES = len(os.sched_getaffinity(0))
except (AttributeError, OSError):
    CPU_CORES = os.cpu_count() or 1


@contextlib.contextmanager
def _counting_parses():
    """Count ``parse_canonical`` calls made inside the block, however a
    ``repro`` module imported the function.  Yields the call list."""
    calls = []
    original = parser.parse_canonical

    def counted(data):
        calls.append(len(data))
        return original(data)

    modules = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        and getattr(module, "parse_canonical", None) is original
    ]
    for module in modules:
        module.parse_canonical = counted
    try:
        yield calls
    finally:
        for module in modules:
            module.parse_canonical = original


def _victim_world(chain_kps, rng):
    """A cluster whose entire session working set is owned by one node.

    Sessions are minted and kept only when the ring places them on the
    victim, so a departure of that node re-homes *every* session at
    once — the worst-case (and clearest) topology change.  Every session
    sits under the shared ``root -> gateways -> host`` delegation spine
    (``chain_kps``), plus one per-session ``host -> MAC`` certificate.
    """
    root_kp, host_kp = chain_kps[0], chain_kps[-1]
    cluster = AuthCluster(node_count=NODES)
    issuer = KeyPrincipal(root_kp.public)
    for upper, lower in zip(chain_kps, chain_kps[1:]):
        certificate = Certificate.issue(
            upper, KeyPrincipal(lower.public), Tag.all(),
            propagate=True, rng=rng,
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
    victim = cluster.nodes()[0].node_id
    sessions = []
    while len(sessions) < SESSIONS:
        mac_id, mac_key = cluster.mint_session(rng)
        owner = cluster.membership.node_for(session_routing_key(mac_id))
        if owner.node_id != victim:
            continue
        certificate = Certificate.issue(
            host_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
            rng=rng,
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        sessions.append((mac_id, mac_key))
    return cluster, issuer, victim, sessions


def _window(issuer, sessions, logicals):
    """One window of requests cycling every session over the bounded
    path set (fresh MAC tags, shared logical templates — the decode
    cache sees repeats, exactly like the serve benchmark's traffic)."""
    requests = []
    for index in range(WINDOW_REQUESTS):
        mac_id, mac_key = sessions[index % len(sessions)]
        logical, message = logicals[index % DISTINCT_PATHS]
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
    return requests


def _logicals():
    nodes = []
    for path in range(DISTINCT_PATHS):
        node = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % path]])
        nodes.append((node, to_canonical(node)))
    return nodes


async def _drive(cluster, windows, change_at, change):
    """Serve the windows through one listener and one pipelined client
    on this loop; queue ``change`` as a loop callback at the
    ``change_at`` window boundary so the flip happens *under* that
    window's traffic, not between measurements."""
    fleet = ServeFleet(cluster, listeners=1)
    [address] = await fleet.start()
    client = await ServeClient.connect(*address)
    await client.ping()
    series = []
    for index, requests in enumerate(windows):
        if index == change_at:
            asyncio.get_running_loop().call_soon(change)
        start = time.perf_counter()
        replies = await client.check_pipelined(requests)
        elapsed = time.perf_counter() - start
        statuses = {reply.status for reply in replies if not reply.granted}
        assert not statuses, "non-grants mid-flip: %s" % statuses
        series.append((len(replies), elapsed))
    retries = client.stats["retries"]
    await client.close()
    await fleet.shutdown()
    return series, retries


def _measure_leave(mode, chain_kps, rng):
    """One full run: warm windows, topology change (``drain`` or
    ``cold``), post windows.  Returns the per-run result row."""
    # The previous run's world (thousands of proof nodes) is garbage by
    # now; collect it here rather than letting a gen-2 pass land inside
    # a measured window.
    gc.collect()
    cluster, issuer, victim, sessions = _victim_world(chain_kps, rng)
    survivors = [
        node for node in cluster.nodes() if node.node_id != victim
    ]
    logicals = _logicals()
    windows = [
        _window(issuer, sessions, logicals)
        for _ in range(PRE_WINDOWS + POST_WINDOWS)
    ]
    change_ms = []
    parse_calls = []

    def change():
        with _counting_parses() as parses:
            start = time.perf_counter()
            if mode == "drain":
                cluster.drain(victim)
            else:
                cluster.remove_node(victim)
            change_ms.append((time.perf_counter() - start) * 1000.0)
        parse_calls.append(len(parses))

    series, retries = asyncio.run(
        _drive(cluster, windows, PRE_WINDOWS, change)
    )
    assert len(change_ms) == 1, "topology change never ran"

    rps = [count / elapsed for count, elapsed in series]
    baseline = statistics.median(rps[1:PRE_WINDOWS])
    post = rps[PRE_WINDOWS:]
    floor = min(post)
    dipped = [
        index for index, value in enumerate(post)
        if value < DIP_FLOOR * baseline
    ]
    survivor_searches = sum(
        node.prover.stats["searches"] for node in survivors
    )
    post_elapsed = sum(elapsed for _, elapsed in series[PRE_WINDOWS:])
    # What the warm baseline predicts the post windows should take; the
    # slowdown factor is the run's self-normalized topology-change cost.
    expected = POST_WINDOWS * WINDOW_REQUESTS / baseline
    return {
        "mode": mode,
        "window_rps": rps,
        "baseline_rps": baseline,
        "post_floor_rps": floor,
        "dip_depth": max(0.0, 1.0 - floor / baseline),
        "dip_windows": len(dipped),
        "dip_duration_s": sum(series[PRE_WINDOWS + i][1] for i in dipped),
        "post_elapsed_s": post_elapsed,
        "post_slowdown": post_elapsed / expected,
        "change_ms": change_ms[0],
        "drain_parse_calls": parse_calls[0],
        "client_retries": retries,
        "survivor_prover_searches": survivor_searches,
        "handoff": dict(cluster.handoff.stats),
    }


def test_drain_vs_cold_leave_over_loopback(rng):
    # One shared delegation spine for all runs (keygen is the expensive
    # part; the worlds differ only in their minted sessions).
    chain_kps = tuple(
        generate_keypair(KEY_BITS, rng) for _ in range(CHAIN_HOPS)
    )
    pairs = [
        (
            _measure_leave("cold", chain_kps, rng),
            _measure_leave("drain", chain_kps, rng),
        )
        for _ in range(RUNS)
    ]

    print("\ncluster drain vs cold leave (real loopback checks/s)")
    for cold, drain in pairs:
        for row in (cold, drain):
            print(
                "  %-6s baseline %7.0f rps | floor %7.0f rps | dip %5.1f%% "
                "over %d window(s) (%.1f ms) | change %6.2f ms | "
                "survivor searches %d" % (
                    row["mode"], row["baseline_rps"], row["post_floor_rps"],
                    100 * row["dip_depth"], row["dip_windows"],
                    1000 * row["dip_duration_s"], row["change_ms"],
                    row["survivor_prover_searches"],
                )
            )

    # The deterministic core, asserted for every run: the drained
    # survivors re-derive *nothing* (every inherited check lands in a
    # handed-off cache entry), the cold survivors re-derive the entire
    # working set.
    for cold, drain in pairs:
        assert drain["survivor_prover_searches"] == 0, (
            "drained successors re-derived %d chains"
            % drain["survivor_prover_searches"]
        )
        assert cold["survivor_prover_searches"] >= SESSIONS
        assert drain["handoff"]["drains"] == 1
        assert drain["handoff"]["records_installed"] >= SESSIONS
        assert drain["handoff"]["records_refused_stale"] == 0
        # Records are handed over as objects: nothing is parsed.
        assert drain["drain_parse_calls"] == 0
        # A planned departure never surfaces as RETRY at the wire.
        assert drain["client_retries"] == 0

    # The wall-clock contrast, on self-normalized slowdowns (each run's
    # post-change time over what its own warm baseline predicts, so a
    # globally slow run cancels out): recorded for every run, asserted
    # on none.
    speedups = [
        cold["post_slowdown"] / drain["post_slowdown"]
        for cold, drain in pairs
    ]
    speedup = statistics.median(speedups)
    dip_depth_drain = statistics.median(d["dip_depth"] for _, d in pairs)
    dip_depth_cold = statistics.median(c["dip_depth"] for c, _ in pairs)
    # The representative pair for the JSON detail: the median-speedup run.
    cold, drain = pairs[speedups.index(speedup)]

    path = write_bench(
        "cluster_drain",
        {
            "nodes": NODES,
            "sessions": SESSIONS,
            "window_requests": WINDOW_REQUESTS,
            "pre_windows": PRE_WINDOWS,
            "post_windows": POST_WINDOWS,
            "runs": RUNS,
            "cpu_cores": CPU_CORES,
            "dip": {
                "depth_drain": dip_depth_drain,
                "depth_cold": dip_depth_cold,
                "duration_s_drain": drain["dip_duration_s"],
                "duration_s_cold": cold["dip_duration_s"],
                "speedup_drain_vs_cold": speedup,
                "speedup_runs": speedups,
            },
            "drain": drain,
            "cold_leave": cold,
        },
    )
    print(
        "  post-change speedup %.2fx (drain vs cold) | dip %.1f%% (drain) "
        "vs %.1f%% (cold), unasserted | wrote %s"
        % (speedup, 100 * dip_depth_drain, 100 * dip_depth_cold, path.name)
    )
