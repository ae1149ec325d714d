"""Tracing: span lifecycle, trace joining, contextvar propagation."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.obs import MetricsRegistry, Tracer, new_trace_id
from repro.obs.trace import NULL_SPAN
from repro.sim import SimClock


def _tracer(clock=None):
    registry = MetricsRegistry(timebase=clock)
    return (
        Tracer(registry=registry, rng=random.Random(42), sample=1),
        registry,
    )


def _ids(tracer, kept, count=1):
    """The first ``count`` ids ``tracer`` keeps (or drops)."""
    found = []
    for index in range(1 << 16):
        trace_id = "%016x" % index
        if tracer.keeps(trace_id) == kept:
            found.append(trace_id)
            if len(found) == count:
                return found
    raise AssertionError("no such id")


class TestTraceIds:
    def test_seeded_rng_makes_ids_deterministic(self):
        first = new_trace_id(random.Random(7))
        second = new_trace_id(random.Random(7))
        assert first == second
        assert len(first) == 16
        int(first, 16)  # well-formed hex

    def test_minted_ids_are_a_seeded_base_plus_a_counter(self):
        tracer = Tracer(registry=MetricsRegistry(), rng=random.Random(7))
        twin = Tracer(registry=MetricsRegistry(), rng=random.Random(7))
        minted = [tracer.mint_trace_id() for _ in range(1000)]
        assert minted == [twin.mint_trace_id() for _ in range(1000)]
        assert len(set(minted)) == 1000
        assert all(len(trace_id) == 16 for trace_id in minted)
        assert [int(trace_id, 16) - int(minted[0], 16)
                for trace_id in minted[:3]] == [0, 1, 2]


class TestSpanLifecycle:
    def test_root_span_mints_a_trace_and_child_joins_it(self):
        tracer, _ = _tracer()
        root = tracer.start_span("serve.request")
        child = tracer.start_span("guard.check")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        tracer.finish(child)
        tracer.finish(root)
        assert tracer.spans_for(root.trace_id) == [child, root]

    def test_explicit_trace_joins_without_parenting_across_traces(self):
        tracer, _ = _tracer()
        root = tracer.start_span("serve.request")
        other = tracer.start_span("guard.check", trace="feedfeedfeedfeed")
        # Same-name field, different trace: no cross-trace parent edge.
        assert other.trace_id == "feedfeedfeedfeed"
        assert other.parent_id is None
        tracer.finish(other)
        tracer.finish(root)

    def test_unactivated_span_is_not_current_until_activated(self):
        tracer, _ = _tracer()
        span = tracer.start_span("guard.check", activate=False)
        assert tracer.current() is None
        with tracer.activate(span):
            assert tracer.current() is span
        assert tracer.current() is None
        tracer.finish(span)

    def test_finish_is_idempotent_and_observes_duration_once(self):
        clock = SimClock()
        tracer, registry = _tracer(clock)
        span = tracer.start_span("guard.check", activate=False)
        clock.advance(0.002)
        tracer.finish(span)
        tracer.finish(span)
        assert span.duration_ms == pytest.approx(2.0)
        summary = registry.snapshot()["histograms"]["span.guard.check_ms"]
        assert summary["count"] == 1
        assert len(tracer.finished()) == 1

    def test_span_scope_annotates_errors_and_always_finishes(self):
        tracer, _ = _tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("risky") as span:
                raise RuntimeError("boom")
        assert span.ended_at is not None
        assert span.annotations["error"] == "boom"

    def test_finished_ring_is_bounded(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, max_spans=4, sample=1)
        spans = [
            tracer.finish(tracer.start_span("s", activate=False))
            for _ in range(10)
        ]
        assert tracer.finished() == spans[-4:]


class TestSampling:
    def _sampled(self, sample, clock=None):
        registry = MetricsRegistry(timebase=clock)
        tracer = Tracer(
            registry=registry, rng=random.Random(42), sample=sample
        )
        return tracer, registry

    def test_one_in_n_roots_is_real_and_the_rest_are_null(self):
        tracer, _ = self._sampled(4)
        twin, _ = self._sampled(4)
        minted = [twin.mint_trace_id() for _ in range(64)]
        roots = [
            tracer.start_span("serve.request", activate=False)
            for _ in range(64)
        ]
        for span in roots:
            tracer.finish(span)
        real = [span for span in roots if span is not NULL_SPAN]
        nulls = [span for span in roots if span is NULL_SPAN]
        # A root is kept by the id it minted, and by nothing else.
        assert [span.trace_id for span in real] == [
            trace_id for trace_id in minted
            if zlib.crc32(trace_id.encode()) % 4 == 0
        ]
        assert 8 <= len(real) <= 24
        # Zero allocation: every sampled-out root is the one shared
        # singleton, not a fresh null object.
        assert all(span is NULL_SPAN for span in nulls)
        assert len(real) + len(nulls) == 64

    def test_sample_one_captures_every_root(self):
        tracer, _ = self._sampled(1)
        roots = [
            tracer.start_span("serve.request", activate=False)
            for _ in range(5)
        ]
        assert all(span is not NULL_SPAN for span in roots)

    def test_carried_id_gets_one_decision_on_every_span(self):
        tracer, _ = self._sampled(4)
        (kept,), (dropped,) = _ids(tracer, True), _ids(tracer, False)
        for _ in range(10):
            span = tracer.start_span(
                "serve.request", trace=kept, activate=False
            )
            assert span is not NULL_SPAN and span.trace_id == kept
            tracer.finish(span)
            # A carried id is not forced: the tracer's rate decides.
            assert tracer.start_span(
                "serve.request", trace=dropped, activate=False
            ) is NULL_SPAN
        assert len(tracer.spans_for(kept)) == 10
        assert tracer.spans_for(dropped) == []

    def test_children_of_a_sampled_root_are_always_captured(self):
        tracer, _ = self._sampled(1000)
        (kept,) = _ids(tracer, True)
        root = tracer.start_span("serve.request", trace=kept)
        assert root is not NULL_SPAN
        child = tracer.start_span("guard.check")
        assert child is not NULL_SPAN
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        tracer.finish(child)
        tracer.finish(root)

    def test_null_span_operations_are_inert(self):
        tracer, registry = self._sampled(2)
        (kept,), (dropped,) = _ids(tracer, True), _ids(tracer, False)
        tracer.finish(
            tracer.start_span("serve.request", trace=kept, activate=False)
        )
        null = tracer.start_span("serve.request", trace=dropped,
                                 activate=False)
        assert null is NULL_SPAN
        assert null.annotate("stage", "fastpath") is NULL_SPAN
        assert null.annotations == {}
        assert null.trace_id is None and null.span_id is None
        assert null.duration_ms is None
        with tracer.activate(null) as active:
            assert active is NULL_SPAN
            assert tracer.current() is None
        tracer.finish(null)
        # Never retained, never observed into span histograms.
        assert null not in tracer.finished()
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.serve.request_ms"]["count"] == 1

    def test_sampling_never_thins_counters_or_plain_histograms(self):
        clock = SimClock()

        def workload(sample):
            registry = MetricsRegistry(timebase=clock)
            tracer = Tracer(
                registry=registry, rng=random.Random(42), sample=sample
            )
            for index in range(32):
                span = tracer.start_span("serve.request", activate=False)
                registry.inc("serve.requests")
                registry.observe("guard.stage.fastpath_ms", index * 0.1)
                tracer.finish(span)
            return registry.snapshot()

        exact, sampled = workload(1), workload(4)
        assert exact["counters"] == sampled["counters"]
        # The tracer thins only its own span.* capture; a histogram its
        # caller observes is the caller's to time or not.
        assert (
            exact["histograms"]["guard.stage.fastpath_ms"]
            == sampled["histograms"]["guard.stage.fastpath_ms"]
        )
        twin = Tracer(registry=MetricsRegistry(), rng=random.Random(42),
                      sample=4)
        kept = sum(twin.keeps(twin.mint_trace_id()) for _ in range(32))
        assert exact["histograms"]["span.serve.request_ms"]["count"] == 32
        assert sampled["histograms"]["span.serve.request_ms"]["count"] == kept

    def test_defaults_keep_one_trace_in_sixteen(self):
        tracer = Tracer(registry=MetricsRegistry(), rng=random.Random(3))
        assert tracer.sample == 16
        kept = sum(tracer.keeps(tracer.mint_trace_id()) for _ in range(4096))
        assert 4096 / 16 * 0.8 <= kept <= 4096 / 16 * 1.2

    def test_sample_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            Tracer(registry=MetricsRegistry(), sample=0)
