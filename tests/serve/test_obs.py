"""Observability on the wire: STATS round-trips, pong vitals, and one
trace spanning a crash, a RETRY, and the resend that granted.
"""

from __future__ import annotations

import asyncio
import random
from collections import defaultdict

import pytest

from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential, default_backend
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry, Tracer, default_registry
from repro.prover import Prover
from repro.serve import STATS_OK, ServeClient, ServeListener
from repro.serve.protocol import encode_check, encode_frame
from repro.sexp import Atom, SList, sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag
from tests.serve.faults import CrashingBackend


def _observed_backend(server_kp, rng, sessions=6, sample=1):
    """A guard behind the crash-on-demand wrapper, with an injected
    registry/tracer the listener inherits off the backend (seeded ids,
    a span ring large enough to hold every span a test makes)."""
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry, rng=random.Random(11), sample=sample,
                    max_spans=4096)
    backend = CrashingBackend(default_backend(
        TrustEnvironment(clock=SimClock()), prover=Prover(),
        metrics=registry, tracer=tracer,
    ))
    issuer = KeyPrincipal(server_kp.public)
    minted = []
    for _ in range(sessions):
        mac_id, mac_key = backend.mint_session(rng)
        backend.digest_delegation(
            SignedCertificateStep(
                Certificate.issue(
                    server_kp, MacPrincipal(mac_key.fingerprint()),
                    Tag.all(), rng=rng,
                )
            )
        )
        minted.append((mac_id, mac_key))
    return backend, issuer, minted, registry, tracer


def _request(issuer, minted, index):
    mac_id, mac_key = minted[index % len(minted)]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


class TestStatsWire:
    def test_stats_round_trip_matches_the_in_process_registry(
        self, server_kp, rng
    ):
        backend, issuer, minted, registry, _ = _observed_backend(
            server_kp, rng
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            # Same session twice: the first check pays the prover, the
            # repeats ride the MAC fast path — both stages on the wire.
            for index in (0, 0, 1, 1):
                assert (
                    await client.check(_request(issuer, minted, index))
                ).granted
            reply = await client.stats_snapshot()
            await client.close()
            await listener.shutdown()
            return listener, reply

        listener, reply = asyncio.run(scenario())
        assert listener.metrics is registry
        assert reply.status == STATS_OK
        # The wire snapshot IS the registry's: same counters, verbatim.
        assert reply.data["counters"] == registry.snapshot()["counters"]
        assert reply.data["counters"]["guard.stage.fastpath"] == 2
        assert reply.data["counters"]["guard.stage.prover"] == 2
        # Replies are counted once, in the listener's own stats dict,
        # which rides along as a source.
        source = reply.data["sources"]["serve.%s" % listener.name]
        assert source["grants"] == 4
        assert listener.stats["stats_requests"] == 1
        histograms = reply.data["histograms"]
        assert histograms["serve.batch_size"]["count"] >= 4
        assert histograms["span.serve.request_ms"]["count"] == 4

    def test_stats_inside_a_pipelined_burst_sees_finished_spans(
        self, server_kp, rng
    ):
        # Spans finish before replies are written, so even a probe
        # racing a burst sees every granted request's span histogram.
        backend, issuer, minted, registry, _ = _observed_backend(
            server_kp, rng
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            await client.check_pipelined(
                [_request(issuer, minted, index) for index in range(6)]
            )
            reply = await client.stats_snapshot()
            await client.close()
            await listener.shutdown()
            return reply

        reply = asyncio.run(scenario())
        spans = reply.data["histograms"]["span.serve.request_ms"]
        assert spans["count"] == 6


    def test_codec_failures_count_on_the_listeners_own_registry(
        self, server_kp, rng
    ):
        # A listener handed ``metrics=`` must show its own malformed
        # frames in ``(stats)``; the process-wide registry sees nothing.
        backend, issuer, minted, _, _ = _observed_backend(server_kp, rng)
        mine = MetricsRegistry()
        request = _request(issuer, minted, 0)
        good = encode_check(3, request)
        names = ("serve.protocol.wire_errors",
                 "serve.protocol.decode_fallbacks")
        before = [default_registry().counter(name) for name in names]

        async def scenario():
            listener = ServeListener(backend, metrics=mine)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            writer = client.transport
            # Garbage; a check whose id header the byte path will not
            # read (and the full parser rejects); a check it will not
            # read but the full parser accepts (a display hint).
            writer.write(encode_frame(b"not an sexp"))
            writer.write(encode_frame(
                good.replace(b"(5:check1:3", b"(5:check+1:3")
            ))
            hinted = GuardRequest(
                SList([Atom("web"), Atom("x", hint=b"text/plain")]),
                issuer=issuer, transport="http",
            )
            refused = await client.check(hinted)
            assert (await client.check(request)).granted
            reply = await client.stats_snapshot()
            await client.close()
            await listener.shutdown()
            return refused, reply

        refused, reply = asyncio.run(scenario())
        # Decoded, and answered by the guard (it carries no credential).
        assert refused.status == "denied"
        counters = reply.data["counters"]
        assert counters["serve.protocol.wire_errors"] == 2
        assert counters["serve.protocol.decode_fallbacks"] == 2
        assert counters["serve.decode.field_misses"] > 0
        assert mine.counter("serve.protocol.wire_errors") == 2
        assert [default_registry().counter(name) for name in names] == before


def _spans_by_trace(tracer):
    """trace id -> the names of its retained spans, in finish order."""
    traces = defaultdict(list)
    for span in tracer.finished():
        traces[span.trace_id].append(span.name)
    return traces


def _assert_all_or_none(tracer, trace_ids):
    """Every trace in ``trace_ids`` kept whole (one serve and one guard
    span per attempt) or not at all, and no span of any other trace."""
    traces = _spans_by_trace(tracer)
    assert set(traces) <= set(trace_ids)  # no orphan root of its own
    for trace_id in trace_ids:
        names = traces.get(trace_id, [])
        assert names.count("serve.request") == names.count("guard.check")
        assert set(names) <= {"serve.request", "guard.check"}
        assert bool(names) == tracer.keeps(trace_id)
    return sum(1 for trace_id in set(trace_ids) if trace_id in traces)


class TestServerSampling:
    def test_counters_stay_exact_while_span_capture_thins(
        self, server_kp, rng
    ):
        # Server tracer at sample=4, client minting a trace id only for
        # its first request: the server mints the other seven.  Counters
        # count all 8 requests; spans are kept whole or not at all, by
        # each trace's id.
        backend, issuer, minted, registry, tracer = _observed_backend(
            server_kp, rng, sample=4
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(
                host, port, trace_sample=1000
            )
            requests = [_request(issuer, minted, 0)]  # birth 1: carried
            requests += [
                _request(issuer, minted, index) for index in range(1, 8)
            ]
            replies = await client.check_pipelined(requests)
            await client.close()
            await listener.shutdown()
            return replies, [request.trace for request in requests]

        replies, traces = asyncio.run(scenario())
        assert all(reply.granted for reply in replies)
        # Only the first client birth minted an id; the other frames
        # carried none.
        assert traces[0] is not None
        assert all(trace is None for trace in traces[1:])

        snapshot = registry.snapshot()
        assert snapshot["sources"]["serve.listener"]["grants"] == 8
        stage_counts = sum(
            snapshot["counters"].get("guard.stage.%s" % stage, 0)
            for stage in ("fastpath", "proof_cache", "prover")
        )
        assert stage_counts == 8
        assert backend.audit.recorded == 8
        # Every grant names its trace, kept or not; the server-minted
        # ids are the ones the audit trail carries.
        trace_ids = [record.trace_id for record in backend.audit.records]
        assert len(set(trace_ids)) == 8 and traces[0] in trace_ids
        kept = _assert_all_or_none(tracer, trace_ids)
        spans = snapshot["histograms"].get("span.serve.request_ms")
        assert (spans["count"] if spans else 0) == kept


class TestOneDecisionPerTrace:
    """A request's serve span and guard span are kept or dropped
    together.  The decision used to be a shared counter of trace roots:
    a dropped ``serve.request`` root left the request without an id, and
    ``Guard.check_many`` rolled the counter again for a ``guard.check``
    root of its own (400 serial requests at ``sample=4`` kept 1 serve
    span and 200 guard spans, 199 of them orphans)."""

    REQUESTS = 400

    def _serve(self, server_kp, rng, window):
        backend, issuer, minted, registry, tracer = _observed_backend(
            server_kp, rng, sample=4
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(
                host, port, trace_sample=10 * self.REQUESTS
            )
            replies = []
            for start in range(0, self.REQUESTS, window):
                requests = [
                    _request(issuer, minted, index)
                    for index in range(start, start + window)
                ]
                if window == 1:
                    replies.append(await client.check(requests[0]))
                else:
                    replies += await client.check_pipelined(requests)
            await client.close()
            await listener.shutdown()
            return replies, listener.stats

        replies, stats = asyncio.run(scenario())
        assert len(replies) == self.REQUESTS
        assert all(reply.granted for reply in replies)
        assert stats["batches"] == self.REQUESTS // window
        records = backend.audit.records
        assert len(records) == self.REQUESTS
        trace_ids = [record.trace_id for record in records]
        assert None not in trace_ids and len(set(trace_ids)) == self.REQUESTS
        kept = _assert_all_or_none(tracer, trace_ids)
        assert 0.15 <= kept / self.REQUESTS <= 0.35
        return tracer, registry

    def test_one_frame_per_recv(self, server_kp, rng):
        self._serve(server_kp, rng, window=1)

    def test_batches_of_eight(self, server_kp, rng):
        tracer, registry = self._serve(server_kp, rng, window=8)
        snapshot = registry.snapshot()
        assert snapshot["sources"]["serve.listener"]["grants"] == self.REQUESTS
        histograms = snapshot["histograms"]
        # Latency histograms are drawn from the kept traces alone.
        kept = len(_spans_by_trace(tracer))
        assert histograms["guard.admission_ms"]["count"] == kept
        assert histograms["span.guard.check_ms"]["count"] == kept

    def test_a_dropped_id_is_dropped_on_both_attempts_of_a_retry(
        self, server_kp, rng
    ):
        backend, issuer, minted, _, tracer = _observed_backend(
            server_kp, rng, sample=4
        )
        dropped = next(
            trace_id for trace_id in ("%016x" % n for n in range(64))
            if not tracer.keeps(trace_id)
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            assert (
                await client.check(_request(issuer, minted, 0))
            ).granted
            backend.crashes = 1
            request = _request(issuer, minted, 0)
            request.trace = dropped
            reply = await client.check(request)
            await client.close()
            await listener.shutdown()
            retries = client.metrics.counter("serve.client.retries")
            return reply, retries, listener.stats

        reply, client_retries, listener_stats = asyncio.run(scenario())
        assert reply.granted
        assert client_retries == 1 == listener_stats["retries"]
        # Neither the attempt that met the crash nor the resend left a
        # span; the grant still names the trace.
        assert tracer.spans_for(dropped) == []
        assert [record.trace_id for record in backend.audit.records
                if record.trace_id == dropped] == [dropped]


class TestPongVitals:
    def test_pong_reports_uptime_only(self, server_kp, rng):
        backend, issuer, minted, _, _ = _observed_backend(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            assert (
                await client.check(_request(issuer, minted, 0))
            ).granted
            reply = await client.ping()
            await client.close()
            await listener.shutdown()
            return reply

        reply = asyncio.run(scenario())
        assert reply.status == "pong"
        # There is no queue to report on (a frame is served in the
        # callback that received it), so a pong carries its uptime alone.
        assert isinstance(reply.uptime, float) and reply.uptime >= 0.0


class TestTraceAcrossRetry:
    def test_one_trace_covers_the_retry_and_the_resend(
        self, server_kp, rng
    ):
        backend, issuer, minted, _, tracer = _observed_backend(
            server_kp, rng
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            assert (
                await client.check(_request(issuer, minted, 0))
            ).granted
            backend.crashes = 1
            request = _request(issuer, minted, 0)
            reply = await client.check(request)
            await client.close()
            await listener.shutdown()
            retries = client.metrics.counter("serve.client.retries")
            return reply, request.trace, retries

        reply, trace, retries = asyncio.run(scenario())
        assert reply.granted
        assert retries == 1

        # One logical request, one trace id, two serve-layer spans: the
        # attempt the crash turned into RETRY and the resend that won.
        attempts = [
            span
            for span in tracer.spans_for(trace)
            if span.name == "serve.request"
        ]
        assert len(attempts) == 2
        first, second = attempts
        assert first.annotations["status"] == "retry"
        assert first.annotations["retry"] is True
        assert second.annotations["status"] == "ok"

        # The grant's audit record — read through the guard's
        # log — carries the same trace id, so trail and trace join.
        stamped = [
            record
            for record in backend.audit.records
            if record.trace_id == trace
        ]
        assert len(stamped) == 1
        assert "trace=%s" % trace in stamped[0].render()

    def test_sampled_request_keeps_one_trace_across_the_retry(
        self, server_kp, rng
    ):
        # Client-side sampling (trace_sample=2): births alternate
        # sampled / unsampled.  The retried request is birth 3 — sampled
        # — so the whole crash/RETRY/resend arc must land in one trace
        # even though its neighbors carry no trace id at all.
        backend, issuer, minted, _, tracer = _observed_backend(
            server_kp, rng
        )

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port, trace_sample=2)
            warm = _request(issuer, minted, 0)          # birth 1: sampled
            assert (await client.check(warm)).granted
            filler = _request(issuer, minted, 1)        # birth 2: not
            assert (await client.check(filler)).granted
            backend.crashes = 1
            retried = _request(issuer, minted, 0)       # birth 3: sampled
            reply = await client.check(retried)
            await client.close()
            await listener.shutdown()
            retries = client.metrics.counter("serve.client.retries")
            return reply, filler.trace, retried.trace, retries

        reply, filler_trace, trace, retries = asyncio.run(scenario())
        assert reply.granted
        assert retries == 1
        # The sampled-out neighbor really carried no id; the server
        # traced it on its own terms (or not), invisibly to the client.
        assert filler_trace is None
        assert trace is not None

        attempts = [
            span
            for span in tracer.spans_for(trace)
            if span.name == "serve.request"
        ]
        assert len(attempts) == 2
        first, second = attempts
        assert first.annotations["status"] == "retry"
        assert second.annotations["status"] == "ok"

    def test_fresh_checks_get_distinct_traces(self, server_kp, rng):
        backend, issuer, minted, _, _ = _observed_backend(server_kp, rng)

        async def scenario():
            listener = ServeListener(backend)
            host, port = await listener.start()
            client = await ServeClient.connect(host, port)
            first = _request(issuer, minted, 0)
            second = _request(issuer, minted, 1)
            assert (await client.check(first)).granted
            assert (await client.check(second)).granted
            await client.close()
            await listener.shutdown()
            return first.trace, second.trace

        first_trace, second_trace = asyncio.run(scenario())
        assert first_trace is not None
        assert second_trace is not None
        assert first_trace != second_trace
        records = backend.audit.records
        assert {record.trace_id for record in records} == {
            first_trace, second_trace,
        }
