"""The metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process (or per test, injected) is the
single sink every subsystem's counters land in.  Three primitive kinds:

- **counters** — monotonically increasing event tallies (``inc``);
- **gauges** — last-write-wins levels (``gauge``);
- **histograms** — fixed-bucket distributions with percentile summaries
  (``observe``); latencies observe in *milliseconds* against the default
  bucket ladder, and a ``timer()`` context manager measures a block on
  the registry's injected :class:`~repro.core.timebase` (a ``SimClock``
  in tests, the monotonic clock in production — no ambient reads, so
  ARCH003 stays clean).

Every component counts here, under its own prefix (``guard.*``,
``prover.*``, ``serve.client.*``, ...).  Only the two dicts the benchmark
rig reads, the listener's ``serve.<name>`` tally and the cluster front's
tree, are ``register_source``-d and pulled live at exposition time.

Exposition: ``snapshot()`` (a JSON-able tree), ``render_text()`` (human
lines), and ``render_prometheus()`` (the text exposition format, with
quantile labels synthesized from the bucket summaries).

A process-wide default registry (``get_registry``/``set_registry``)
backs the ``metrics=None`` constructor defaults, mirroring
``crypto.rng.default_rng``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.timebase import default_timebase

#: Default histogram bucket upper bounds, tuned for latencies in
#: milliseconds: 50µs up to 5s, plus the implicit +inf overflow bucket.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Bucket ladder for counts (batch sizes, queue depths): powers of two.
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Histogram:
    """A fixed-bucket distribution with interpolated percentiles.

    Buckets are cumulative-style upper bounds (like Prometheus ``le``);
    anything above the last bound lands in the overflow bucket, whose
    percentile estimate degrades to the observed max.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self.bounds: Tuple[float, ...] = tuple(
            LATENCY_BUCKETS_MS if buckets is None else buckets
        )
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        # One count per bound, plus the overflow bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        # First bound >= value, i.e. the bucket whose ceiling holds it;
        # past-the-end lands in the overflow slot.  Bisect rather than a
        # linear scan: observe sits on the per-request hot path.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 < q <= 1``) by linear
        interpolation inside the bucket holding the target rank."""
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if i == len(self.bounds):
                    return self.max
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                # The estimate never escapes the observed range.
                if self.max is not None:
                    estimate = min(estimate, self.max)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                return estimate
            cumulative += bucket_count
        return self.max

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": [
                [bound, count]
                for bound, count in zip(
                    list(self.bounds) + ["+inf"], self.counts
                )
            ],
        }


class _Timer:
    """``with registry.timer("name"):`` — observes elapsed milliseconds."""

    __slots__ = ("_registry", "_name", "_buckets", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, buckets):
        self._registry = registry
        self._name = name
        self._buckets = buckets
        self._start = None

    def __enter__(self) -> "_Timer":
        self._start = self._registry.timebase.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed_ms = (self._registry.timebase.now() - self._start) * 1000.0
        self._registry.observe(self._name, elapsed_ms, buckets=self._buckets)


class MetricsRegistry:
    """One process's (or one test's) metric sink.

    Thread-safe: in-process embedders of a guard (``rmi/invoker.py``)
    are threaded, so counters may increment concurrently.
    """

    def __init__(self, timebase=None):
        self.timebase = default_timebase(timebase)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], object]] = {}
        self._started_at = self.timebase.now()

    # -- primitives --------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> int:
        with self._lock:
            value = self._counters.get(name, 0) + by
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(buckets)
                self._histograms[name] = histogram
            histogram.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def timer(self, name: str, buckets=None) -> _Timer:
        """Measure a ``with`` block in milliseconds on the injected
        timebase and observe it under ``name``."""
        return _Timer(self, name, buckets)

    def register_source(self, name: str, fn: Callable[[], object]) -> None:
        """Attach a live stats surface (a dict, or a zero-arg callable
        returning one); re-registering a name replaces it, so rebuilt
        fleets do not accumulate dead sources."""
        self._sources[name] = fn

    def unregister_source(self, name: str) -> None:
        self._sources.pop(name, None)

    def uptime_s(self) -> float:
        return self.timebase.now() - self._started_at

    # -- exposition --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything, one JSON-able tree.  Sources are pulled live."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: histogram.summary()
                for name, histogram in self._histograms.items()
            }
            sources = dict(self._sources)
        rendered_sources = {}
        for name, fn in sources.items():
            rendered_sources[name] = fn() if callable(fn) else fn
        return {
            "uptime_s": self.uptime_s(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "sources": rendered_sources,
        }

    def render_text(self) -> str:
        """Human-readable exposition: one metric per line."""
        snapshot = self.snapshot()
        lines = ["# uptime %.3fs" % snapshot["uptime_s"]]
        for name in sorted(snapshot["counters"]):
            lines.append("counter %s = %d" % (name, snapshot["counters"][name]))
        for name in sorted(snapshot["gauges"]):
            lines.append("gauge %s = %g" % (name, snapshot["gauges"][name]))
        for name in sorted(snapshot["histograms"]):
            summary = snapshot["histograms"][name]
            lines.append(
                "histogram %s count=%d p50=%s p95=%s p99=%s max=%s" % (
                    name, summary["count"],
                    _fmt(summary["p50"]), _fmt(summary["p95"]),
                    _fmt(summary["p99"]), _fmt(summary["max"]),
                )
            )
        for name in sorted(snapshot["sources"]):
            lines.append("source %s: %s" % (name, snapshot["sources"][name]))
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """Prometheus text exposition: counters and gauges verbatim,
        histograms as cumulative ``_bucket{le=...}`` series plus
        synthesized ``{quantile=...}`` summary lines."""
        snapshot = self.snapshot()
        lines: List[str] = []
        for name in sorted(snapshot["counters"]):
            metric = _prom_name(name)
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %d" % (metric, snapshot["counters"][name]))
        for name in sorted(snapshot["gauges"]):
            metric = _prom_name(name)
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %g" % (metric, snapshot["gauges"][name]))
        for name in sorted(snapshot["histograms"]):
            summary = snapshot["histograms"][name]
            metric = _prom_name(name)
            lines.append("# TYPE %s histogram" % metric)
            cumulative = 0
            for bound, count in summary["buckets"]:
                cumulative += count
                le = "+Inf" if bound == "+inf" else "%g" % bound
                lines.append(
                    '%s_bucket{le="%s"} %d' % (metric, le, cumulative)
                )
            lines.append("%s_sum %g" % (metric, summary["sum"]))
            lines.append("%s_count %d" % (metric, summary["count"]))
            for quantile in ("p50", "p95", "p99"):
                value = summary[quantile]
                if value is not None:
                    lines.append(
                        '%s{quantile="0.%s"} %g'
                        % (metric, quantile[1:], value)
                    )
        return "\n".join(lines)


def _fmt(value) -> str:
    return "-" if value is None else "%.3f" % value


def _prom_name(name: str) -> str:
    return "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default (tests save and restore)."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def default_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """``registry`` if one was injected, else the process-wide default —
    the ``default_rng`` idiom for metrics."""
    return _REGISTRY if registry is None else registry
