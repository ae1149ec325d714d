"""Request tracing: one trace per logical request, one span per hop.

A *trace* is a 64-bit hex id minted where a request is born — in the
serve client (so a wire retry reuses it), in the listener's connection
for requests that arrive without one, or at ``Guard.check`` entry for
in-process callers.  A *span* is one timed hop within a trace: the
serve layer opens a ``serve.request`` span per frame, and the guard
pipeline opens a ``guard.check`` span per decision, annotated with the
stage that granted it (fast-path / proof-cache / prover) and its
per-stage durations.  Span ids are stamped into every
:class:`~repro.guard.audit.AuditRecord`, which is what makes the
guard's audit trail correlatable with traces.

Propagation is via a :mod:`contextvars` context variable — natural for
asyncio.  One deliberate exception: a serve batch carries many
requests, so the guard never relies on an ambient serve-layer span; it
opens its own span from the ``trace`` id riding on the
:class:`GuardRequest` itself.

Finished spans land in a bounded ring (``max_spans``) for inspection —
enough for tests and the CLI, not an unbounded history.

**Sampling.**  ``Tracer(sample=N)`` keeps a trace iff ``N == 1`` or
``zlib.crc32(trace_id) % N == 0``.  The decision is a function of the
id alone, so every span of one trace agrees — serve and guard, and
both attempts of a RETRY resend (which carries the same id) — and a dropped trace's ``start_span`` returns the shared
:data:`NULL_SPAN`: no allocation, no lock, no histogram, no retention.
Callers that time work around a span skip the clock for a
``NULL_SPAN`` too, so counters count every request and every latency
histogram is drawn from the kept traces (``docs/observability.md``).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import zlib
from collections import deque
from typing import Dict, List, Optional

from repro.crypto.rng import default_rng
from repro.obs.registry import MetricsRegistry, default_registry

_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("repro_obs_span", default=None)
)


def new_trace_id(rng=None) -> str:
    """A fresh 64-bit hex trace id (secrets-backed unless seeded)."""
    return "%016x" % default_rng(rng).getrandbits(64)


class Span:
    """One timed, annotated hop of a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "started_at",
                 "ended_at", "annotations", "_token")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, started_at: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.annotations: Dict[str, object] = {}
        self._token = None

    def annotate(self, key: str, value) -> "Span":
        self.annotations[key] = value
        return self

    @property
    def duration_ms(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return (self.ended_at - self.started_at) * 1000.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%s/%s %s)" % (self.trace_id, self.span_id, self.name)


class NullSpan:
    """The zero-cost stand-in for every span of a sampled-out trace.

    Every operation is a no-op: ``annotate`` drops its arguments,
    ``trace_id``/``span_id`` are ``None`` (audit records take the
    request's own trace field), and :meth:`Tracer.finish` returns
    immediately without touching the registry or the retention ring.
    One shared instance (:data:`NULL_SPAN`) serves every sampled-out
    request — the "zero-allocation" half of the sampling contract.
    """

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    name = "null"
    started_at: Optional[float] = None
    ended_at: Optional[float] = None

    @property
    def annotations(self) -> Dict[str, object]:
        return {}

    def annotate(self, key: str, value) -> "NullSpan":
        return self

    @property
    def duration_ms(self) -> Optional[float]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


#: The shared sampled-out span; identity-checked on every hot path.
NULL_SPAN = NullSpan()


class _NullActivation:
    """``with tracer.activate(NULL_SPAN):`` — leaves the current span
    untouched, so ``tracer.current()`` stays honest (``None`` or the
    real enclosing span, never a null)."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_ACTIVATION = _NullActivation()


class _Activation:
    """``with tracer.activate(span):`` — current-span scoping without
    owning the span's lifetime (the caller still finishes it)."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span):
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT_SPAN.reset(self._token)


class _SpanScope:
    """``with tracer.span(name):`` — start, activate, finish."""

    __slots__ = ("_tracer", "_name", "_trace", "_span")

    def __init__(self, tracer: "Tracer", name: str, trace: Optional[str]):
        self._tracer = tracer
        self._name = name
        self._trace = trace
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, trace=self._trace)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.annotate("error", str(exc))
        self._tracer.finish(self._span)


class Tracer:
    """Mints spans, tracks the current one, retains the finished ones."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        rng=None,
        max_spans: int = 256,
        sample: int = 16,
    ):
        if sample < 1:
            raise ValueError("sample must be at least 1 (1 = every trace)")
        self.registry = default_registry(registry)
        #: Keep the traces whose id hashes to 0 modulo N (see :meth:`keeps`).
        self.sample = sample
        self._lock = threading.Lock()
        self._next_span = 0
        # Minted ids are one random 64-bit base plus a counter: unique
        # within the tracer, unpredictable across processes, and no
        # entropy syscall per request.  ``next`` on a count is atomic
        # under the GIL.
        self._trace_base = default_rng(rng).getrandbits(64)
        self._minted = itertools.count()
        self._finished: "deque[Span]" = deque(maxlen=max_spans)

    def current(self) -> Optional[Span]:
        return _CURRENT_SPAN.get()

    def mint_trace_id(self) -> str:
        """A fresh 64-bit hex trace id for a request that arrived
        without one."""
        return "%016x" % (
            (self._trace_base + next(self._minted)) & 0xFFFFFFFFFFFFFFFF
        )

    def keeps(self, trace_id: str) -> bool:
        """Whether this tracer records the spans of ``trace_id`` — the
        one sampling decision, made by the id alone."""
        return self.sample == 1 or not (
            zlib.crc32(trace_id.encode()) % self.sample
        )

    def start_span(
        self, name: str, trace: Optional[str] = None, activate: bool = True
    ) -> Span:
        """Open a span.  ``trace`` joins an existing trace (the id that
        rode in on the wire); ``None`` adopts the current span's trace,
        or mints a fresh one.  ``activate=False`` opens the span without
        making it current — a batch holds many open spans at once; each
        is activated around its own work.

        Every span of a trace that :meth:`keeps` rejects — root, join
        or child — is :data:`NULL_SPAN` and costs nothing downstream."""
        parent = _CURRENT_SPAN.get()
        if trace is None:
            trace = (
                parent.trace_id if parent is not None
                else self.mint_trace_id()
            )
        if not self.keeps(trace):
            return NULL_SPAN
        parent_id = (
            parent.span_id
            if parent is not None and parent.trace_id == trace
            else None
        )
        with self._lock:
            self._next_span += 1
            span_id = "s%d" % self._next_span
        span = Span(trace, span_id, parent_id, name,
                    self.registry.timebase.now())
        if activate:
            span._token = _CURRENT_SPAN.set(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close a span: stamp its end, observe its duration as a
        ``span.<name>_ms`` histogram, retire it to the ring.  Idempotent
        — finishing twice records once.  Finishing :data:`NULL_SPAN` is
        free: sampled-out requests never touch the registry or ring."""
        if span is NULL_SPAN:
            return span
        if span.ended_at is not None:
            return span
        span.ended_at = self.registry.timebase.now()
        if span._token is not None:
            _CURRENT_SPAN.reset(span._token)
            span._token = None
        self.registry.observe("span.%s_ms" % span.name, span.duration_ms)
        with self._lock:
            self._finished.append(span)
        return span

    def activate(self, span: Span) -> _Activation:
        """Scope ``span`` as current for a ``with`` block (without
        finishing it on exit — the batch loop owns the lifetime).
        Activating :data:`NULL_SPAN` deliberately leaves the current
        span alone, so downstream ``current()`` callers (audit
        stamping) never mistake a null for a real span."""
        if span is NULL_SPAN:
            return _NULL_ACTIVATION
        return _Activation(span)

    def span(self, name: str, trace: Optional[str] = None) -> _SpanScope:
        """``with tracer.span("stage") as span:`` — the common shape."""
        return _SpanScope(self, name, trace)

    def finished(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def spans_for(self, trace_id: str) -> List[Span]:
        """Every retained finished span of one trace, in finish order."""
        return [
            span for span in self.finished() if span.trace_id == trace_id
        ]


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide default (tests save and restore)."""
    global _TRACER
    _TRACER = tracer
    return tracer


def default_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """``tracer`` if one was injected, else the process-wide default."""
    return _TRACER if tracer is None else tracer
