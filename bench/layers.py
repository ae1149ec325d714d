"""Per-layer metrics: from the traced run's spans and the server's own
counters to the names declared in ``BENCHMARK.json``.

Two sources.  **Spans** (``T``): ``bench/server.py`` records one span per
call into each wrapped public function; a layer's *self time* is its
span minus the part its child spans cover, so self times over all span
names never count a nanosecond twice and, with ``serve.server.self_us``
as the remainder, sum to the traced ``server_cpu_us_per_req``.
**Counters** (``S``): two ``(stats <id>)`` snapshots over the wire, one
before and one after the timed phase; every figure here is the
difference, so warm-up and set-up traffic are not in it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: span names whose self time is budgeted under a differently named
#: per-layer metric (everything else keeps its own name).
SELF_TIME_METRICS = {
    "serve.protocol.frame_us": ("serve.protocol.read_frame",),
    "serve.protocol.decode_us": ("serve.protocol.decode",),
    "serve.protocol.encode_us": (
        "serve.protocol.decision_reply", "serve.protocol.encode_reply",
    ),
    "cluster.dispatch.route_us": ("cluster.dispatch.check_many",),
    "guard.pipeline.check_us": ("guard.pipeline.check_many",),
    "guard.sessions.verify_us": ("guard.sessions.verify_tag",),
    "sexp.parse_us": ("sexp.parse_canonical",),
    "sexp.to_canonical_us": ("sexp.to_canonical",),
    "crypto.mac_us": ("crypto.mac_verify",),
    "crypto.rsa_verify_us": ("crypto.rsa_verify",),
}


class SpanTotals:
    """Calls, inclusive time and self time per span name (nanoseconds)."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, int] = defaultdict(int)

    def all_self_ns(self) -> int:
        return sum(self.self_time.values())


def read_spans(path: str) -> Tuple[SpanTotals, SpanTotals]:
    """Aggregate a spans file into ``(hot, late)``: spans recorded while
    the hot path was traced make up the per-request budget; ``late``
    (batch -1) holds control-plane calls made while it was not.  Spans
    are written as they *end*, so children precede their parent and one
    pass suffices."""
    hot, late = SpanTotals(), SpanTotals()
    covered: Dict[int, int] = defaultdict(int)
    with open(path) as spans:
        for line in spans:
            span, name, start, end, parent, batch = json.loads(line)
            totals = hot if batch >= 0 else late
            duration = end - start
            totals.calls[name] += 1
            totals.inclusive[name] += duration
            totals.self_time[name] += duration - covered.pop(span, 0)
            if parent >= 0:
                covered[parent] += duration
    return hot, late


def span_metrics(hot: SpanTotals, late: SpanTotals, requests: int,
                 traced_cpu_us: float) -> Dict[str, float]:
    """The ``T`` rows; ``requests`` and ``traced_cpu_us`` describe the
    traced quarters of the timed phase."""
    per_request = 1e-3 / max(requests, 1)   # ns total -> us per request
    metrics = {
        name: sum(hot.self_time[s] for s in spans) * per_request
        for name, spans in SELF_TIME_METRICS.items()
    }
    attributed = hot.all_self_ns() * per_request
    metrics["serve.server.self_us"] = traced_cpu_us - attributed
    metrics["trace.attributed_share"] = (
        attributed / traced_cpu_us if traced_cpu_us else 0.0
    )
    metrics["sexp.parse_calls_per_req"] = (
        hot.calls["sexp.parse_canonical"] / max(requests, 1)
    )
    metrics["crypto.rsa_verifies_per_req"] = (
        hot.calls["crypto.rsa_verify"] / max(requests, 1)
    )
    metrics["prover.prove_us"] = _per_call([hot], "prover.find_proof", 1e-3)
    both = [hot, late]
    revokes = sum(t.calls["cluster.bus.revoke_serial"] for t in both)
    metrics["cluster.bus.revoke_ms"] = (
        _per_call(both, "cluster.bus.revoke_serial", 1e-6)
        + sum(t.inclusive["cluster.bus.deliver_invalidations"] for t in both)
        / max(revokes, 1) * 1e-6
    )
    metrics["cluster.handoff.drain_ms"] = _per_call(
        both, "cluster.handoff.drain", 1e-6
    )
    return metrics


def _per_call(totals: List[SpanTotals], name: str, scale: float) -> float:
    calls = sum(t.calls[name] for t in totals)
    inclusive = sum(t.inclusive[name] for t in totals)
    return inclusive / calls * scale if calls else 0.0


# -- counters -------------------------------------------------------------------


def _histogram_percentile(before, after, q: float) -> float:
    """The ``q``-quantile of what a registry histogram observed between
    two snapshots: subtract bucket counts, then interpolate inside the
    bucket holding the target rank (the registry's own method)."""
    if after is None:
        return 0.0
    earlier = {
        str(bound): count
        for bound, count in (before["buckets"] if before else [])
    }
    buckets = [
        (bound, count - earlier.get(str(bound), 0))
        for bound, count in after["buckets"]
    ]
    total = sum(count for _, count in buckets)
    if not total:
        return 0.0
    rank = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in buckets:
        if count and cumulative + count >= rank:
            if bound == "+inf":
                return float(after["max"])
            return lower + (bound - lower) * (rank - cumulative) / count
        cumulative += count
        if bound != "+inf":
            lower = bound
    return float(after["max"])


def _node_sum(snapshot, section: str, key: str) -> float:
    nodes = snapshot["sources"]["cluster"]["nodes"]
    return sum(node[section][key] for node in nodes.values())


def counter_metrics(before, after) -> Dict[str, float]:
    """The ``S`` rows, as differences between the stats snapshots that
    bracket the timed phase.

    Per-node counters are summed over the nodes alive at each snapshot;
    a node drained in between takes its counts with it, so on
    ``churn_paced`` the prover and cache rows undercount by that node's
    share (differences are floored at zero)."""

    def delta(read) -> float:
        return max(read(after) - read(before), 0)

    def listener(key):
        return delta(lambda s: s["sources"]["serve.listener"][key])

    def cluster(section, key):
        return delta(lambda s: s["sources"]["cluster"][section][key])

    def counter(name):
        return delta(lambda s: s["counters"].get(name, 0))

    def nodes(section, key):
        return delta(lambda s: _node_sum(s, section, key))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    requests = listener("batched_requests")
    hits, misses = listener("decode_hits"), listener("decode_misses")
    stages = {
        stage: counter("guard.stage.%s" % stage)
        for stage in ("fastpath", "proof_cache", "prover")
    }
    granted = sum(stages.values())
    searches = nodes("prover", "searches")
    dedup, insertions = nodes("cache", "dedup_hits"), nodes("cache", "insertions")
    histograms = (before["histograms"], after["histograms"])
    metrics = {
        "serve.protocol.decode_hit_ratio": ratio(hits, hits + misses),
        # The mean, not the registry's p50: that one interpolates inside
        # power-of-two buckets and reads 0.5 for batches of one.
        "serve.server.batch_size_mean": ratio(
            listener("frames"), listener("batches")),
        "serve.server.queue_wait_p99_ms": _histogram_percentile(
            histograms[0].get("serve.queue_wait_ms"),
            histograms[1].get("serve.queue_wait_ms"), 0.99),
        "serve.server.paused": listener("paused"),
        "cluster.dispatch.shard_batches_per_dispatch": ratio(
            cluster("dispatch", "shard_batches"),
            cluster("dispatch", "dispatches")),
        "cluster.bus.delivered": cluster("bus", "delivered"),
        "cluster.handoff.records_installed":
            cluster("handoff", "records_installed"),
        "cluster.handoff.records_refused_stale":
            cluster("handoff", "records_refused_stale"),
        "guard.pipeline.challenges": listener("challenges"),
        "guard.cache.evictions": nodes("cache", "evictions"),
        "guard.cache.dedup_hit_ratio": ratio(dedup, dedup + insertions),
        "prover.searches_per_kreq": ratio(searches * 1000.0, requests),
        "prover.nodes_expanded_per_search": ratio(
            nodes("prover", "nodes_expanded"), searches),
    }
    for stage, count in stages.items():
        metrics["guard.pipeline.stage_%s_share" % stage] = ratio(
            count, granted)
    return metrics


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (0 when there are none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]
