"""Stage stamping: which pipeline stage granted, priced, and traced.

Every grant leaves three correlated marks behind: a ``guard.stage.*``
counter naming the stage (fastpath / proof_cache / prover), a matching
stage-latency histogram, and trace/span ids stamped into the
:class:`AuditRecord` so the audit trail joins the span store.
"""

import random

import pytest

from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.guard import (
    GuardRequest,
    ProofCredential,
    SessionCredential,
    default_backend,
)
from repro.guard.pipeline import stage_label
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry, Tracer
from repro.prover import Prover
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag


@pytest.fixture()
def world(server_kp, rng):
    registry = MetricsRegistry(timebase=SimClock())
    # Every trace kept, so every request is timed and spanned.
    tracer = Tracer(registry=registry, sample=1)
    guard = default_backend(
        TrustEnvironment(clock=SimClock()),
        prover=Prover(),
        metrics=registry,
        tracer=tracer,
    )
    mac_id, mac_key = guard.mint_session(rng)
    guard.digest_delegation(
        SignedCertificateStep(
            Certificate.issue(
                server_kp,
                MacPrincipal(mac_key.fingerprint()),
                Tag.all(),
                rng=rng,
            )
        )
    )
    return {
        "registry": registry,
        "tracer": tracer,
        "guard": guard,
        "issuer": KeyPrincipal(server_kp.public),
        "session": (mac_id, mac_key),
    }


def _session_request(world, index=0):
    mac_id, mac_key = world["session"]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical,
        issuer=world["issuer"],
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def _proof_request(world, server_kp, rng, index=0):
    logical = sexp(["web", ["method", "GET"], ["path", "/cold-%d" % index]])
    subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
    certificate = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
    wire = to_transport(SignedCertificateStep(certificate).to_sexp())
    return GuardRequest(
        logical,
        issuer=world["issuer"],
        credential=ProofCredential(subject, wire=wire),
        transport="http",
    )


class TestStageLabels:
    def test_label_taxonomy(self):
        assert stage_label("session", "cache") == "fastpath"
        assert stage_label("proof", "cache") == "proof_cache"
        assert stage_label("proof", "prover") == "prover"
        assert stage_label("session", "prover") == "prover"


class TestStageCounters:
    def test_session_checks_split_into_prover_then_fastpath(self, world):
        guard, registry = world["guard"], world["registry"]
        # First check on a fresh session pays the prover; repeats ride
        # the MAC fast path off the proof cache.
        assert guard.check(_session_request(world, 0)).granted
        assert guard.check(_session_request(world, 1)).granted
        assert guard.check(_session_request(world, 2)).granted
        assert registry.counter("guard.stage.prover") == 1
        assert registry.counter("guard.stage.fastpath") == 2
        histograms = registry.snapshot()["histograms"]
        assert histograms["guard.stage.prover_ms"]["count"] == 1
        assert histograms["guard.stage.fastpath_ms"]["count"] == 2
        assert histograms["guard.admission_ms"]["count"] == 3
        for name in ("guard.stage.prover_ms", "guard.stage.fastpath_ms"):
            row = histograms[name]
            assert row["p50"] <= row["p95"] <= row["p99"]

    def test_supplied_proof_credentials_label_as_proof_cache(
        self, world, server_kp, rng
    ):
        # A wire proof is verified at admission and cached there, so
        # the authorization stage finds it in the cache every time —
        # never the MAC fast path, never a prover search.
        guard, registry = world["guard"], world["registry"]
        assert guard.check(_proof_request(world, server_kp, rng)).granted
        assert guard.check(_proof_request(world, server_kp, rng)).granted
        assert registry.counter("guard.stage.proof_cache") == 2
        assert registry.counter("guard.stage.prover") == 0
        assert registry.counter("guard.stage.fastpath") == 0
        summary = registry.snapshot()["histograms"][
            "guard.stage.proof_cache_ms"
        ]
        assert summary["count"] == 2

    def test_a_dropped_trace_is_counted_but_not_timed(self, world):
        # Counters count every request; the latency histograms and the
        # span are the kept traces' alone.
        guard, registry = world["guard"], world["registry"]
        guard.tracer = Tracer(registry=registry, sample=4)
        kept, dropped = [], []
        index = 0
        while len(kept) < 2 or len(dropped) < 3:
            request = _session_request(world, index)
            request.trace = "%016x" % index
            (kept if guard.tracer.keeps(request.trace) else dropped).append(
                request
            )
            index += 1
        # The session's first check pays the prover, untimed.
        assert guard.check(dropped.pop()).granted
        assert registry.counter("guard.stage.prover") == 1
        assert "guard.stage.prover_ms" not in registry.snapshot()["histograms"]
        for request in kept[:2] + dropped[:2]:
            decision = guard.check(request)
            assert decision.granted
            assert decision.record.trace_id == request.trace
            assert (decision.record.span_id is None) == (request in dropped)
        assert registry.counter("guard.stage.fastpath") == 4
        histograms = registry.snapshot()["histograms"]
        assert histograms["guard.stage.fastpath_ms"]["count"] == 2
        assert histograms["guard.admission_ms"]["count"] == 2
        assert histograms["span.guard.check_ms"]["count"] == 2

    def test_check_many_observes_batch_size(self, world):
        guard, registry = world["guard"], world["registry"]
        decisions = guard.check_many(
            [_session_request(world, index) for index in range(5)]
        )
        assert all(decision.granted for decision in decisions)
        summary = registry.snapshot()["histograms"]["guard.batch_size"]
        assert summary["count"] == 1
        assert summary["max"] == 5


class TestAuditTraceStamping:
    def test_grant_stamps_the_current_span_into_the_audit_record(
        self, world
    ):
        guard, tracer = world["guard"], world["tracer"]
        assert guard.check(_session_request(world)).granted
        record = guard.audit.records[-1]
        span = tracer.finished()[-1]
        assert span.name == "guard.check"
        assert record.trace_id == span.trace_id
        assert record.span_id == span.span_id
        assert " trace=%s/%s" % (span.trace_id, span.span_id) in (
            record.render()
        )

    def test_request_trace_id_is_honored_not_replaced(self, world):
        guard = world["guard"]
        request = _session_request(world)
        request.trace = "feedfacefeedface"
        assert guard.check(request).granted
        record = guard.audit.records[-1]
        assert record.trace_id == "feedfacefeedface"

    def test_check_many_stamps_each_request_with_its_own_span(self, world):
        guard, tracer = world["guard"], world["tracer"]
        requests = [_session_request(world, index) for index in range(3)]
        for index, request in enumerate(requests):
            request.trace = "%016x" % (0xA0 + index)
        assert all(
            decision.granted for decision in guard.check_many(requests)
        )
        stamped = {
            record.trace_id: record.span_id
            for record in guard.audit.records[-3:]
        }
        assert set(stamped) == {"%016x" % (0xA0 + i) for i in range(3)}
        for trace_id, span_id in stamped.items():
            (span,) = tracer.spans_for(trace_id)
            assert span.span_id == span_id

    def test_uninstrumented_guard_still_works_without_a_tracer_span(
        self, world, server_kp, rng
    ):
        # A guard on the global seams (no injected registry) must not
        # fail: stage counters land on the process default registry.
        guard = default_backend(
            TrustEnvironment(clock=SimClock()), prover=Prover()
        )
        mac_id, mac_key = guard.mint_session(random.Random(9))
        guard.digest_delegation(
            SignedCertificateStep(
                Certificate.issue(
                    server_kp,
                    MacPrincipal(mac_key.fingerprint()),
                    Tag.all(),
                    rng=rng,
                )
            )
        )
        logical = sexp(["web", ["method", "GET"], ["path", "/x"]])
        message = to_canonical(logical)
        decision = guard.check(
            GuardRequest(
                logical,
                issuer=KeyPrincipal(server_kp.public),
                credential=SessionCredential(
                    mac_id, mac_key.tag(message), message
                ),
                transport="http",
            )
        )
        assert decision.granted
        assert guard.audit.records[-1].trace_id is not None
