"""Observability: the metrics registry and request tracing.

The guard's staged pipeline is the paper's core claim — fast-path MAC
vs cached proof vs full Prover verification — and this package is what
makes that claim *observable* in the serving path instead of only
assertable in benchmarks:

- :mod:`repro.obs.registry` — a process-wide but injectable
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms
  with percentile summaries), timestamped via an injected monotonic
  :class:`~repro.core.timebase` so SimClock tests stay deterministic;
- :mod:`repro.obs.trace` — :class:`Trace`/:class:`Span` context born at
  the serve listener's connection (or ``Guard.check`` entry for in-process
  callers), flowing through cluster dispatch → the guard
  pipeline, stamping each request with the stage that granted it and
  writing span ids into every :class:`AuditRecord`.

Exposition: the serve protocol's ``STATS`` wire command,
``python -m repro.tools metrics`` (text / ``--json`` / ``--prom``), and
the ``stage_latency`` sections in every ``BENCH_*.json``.  See
``docs/observability.md``.
"""

from repro.obs.registry import (
    LATENCY_BUCKETS_MS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    default_registry,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    default_tracer,
    get_tracer,
    new_trace_id,
    set_tracer,
)

__all__ = [
    "LATENCY_BUCKETS_MS",
    "NULL_SPAN",
    "NullSpan",
    "SIZE_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "get_registry",
    "set_registry",
    "Span",
    "Tracer",
    "default_tracer",
    "get_tracer",
    "new_trace_id",
    "set_tracer",
]
