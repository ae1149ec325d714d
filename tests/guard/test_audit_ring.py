"""The in-memory audit log is a ring: RAM holds the last ``retain``
records, a sink sees every one, and neither can turn a grant into a
failure."""

import random

import pytest

from repro.core.principals import KeyPrincipal, NamePrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.statements import SpeaksFor
from repro.guard import ChannelCredential, Guard, GuardRequest
from repro.guard.audit import AUDIT_RETAIN, AuditLog, AuditRecord
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.obs.trace import Tracer
from repro.prover import Prover
from repro.sexp import sexp
from repro.spki import Certificate
from repro.tags import Tag


@pytest.fixture()
def issuer(server_kp):
    return KeyPrincipal(server_kp.public)


def _record(issuer, index, transport="http"):
    """A grant by ``issuer.s<index % 3>`` at time ``index``."""
    speaker = NamePrincipal(issuer, "s%d" % (index % 3))
    proof = PremiseStep(SpeaksFor(speaker, issuer, Tag.all()))
    return AuditRecord(
        sexp(["req", str(index)]), speaker, issuer, proof, float(index),
        transport=transport,
    )


class TestRing:
    def test_every_record_joins_its_trace_while_kept(
        self, server_kp, alice_kp, rng
    ):
        assert AuditLog().retain == AUDIT_RETAIN == 2048
        # The two rings are sized apart: a record carries its trace id
        # whether or not the trace was kept, so it joins its span
        # exactly when the trace was kept and is still in the tracer's
        # ring.
        metrics = MetricsRegistry()
        tracer = Tracer(registry=metrics, rng=random.Random(5), sample=4,
                        max_spans=8)
        prover = Prover()
        issuer = KeyPrincipal(server_kp.public)
        client = KeyPrincipal(alice_kp.public)
        prover.add_proof(SignedCertificateStep(
            Certificate.issue(server_kp, client, Tag.all(), rng=rng)
        ))
        guard = Guard(TrustEnvironment(), prover=prover, metrics=metrics,
                      tracer=tracer)
        for index in range(64):
            assert guard.check(GuardRequest(
                ["web", "GET", str(index)], issuer=issuer,
                credential=ChannelCredential(client), transport="http",
            )).granted
        outcomes = []
        for record in guard.audit.records:
            assert record.trace_id is not None
            spans = tracer.spans_for(record.trace_id)
            if not tracer.keeps(record.trace_id):
                assert (spans, record.span_id) == ([], None)
                outcomes.append("dropped")
            elif spans:
                assert [span.span_id for span in spans] == [record.span_id]
                outcomes.append("joined")
            else:
                assert record.span_id is not None
                outcomes.append("left the ring")
        assert len(outcomes) == 64
        assert outcomes.count("joined") == 8
        assert {"dropped", "left the ring"} <= set(outcomes)

    def test_eviction_is_oldest_first_and_counted(self, issuer):
        metrics = MetricsRegistry()
        log = AuditLog(retain=4, metrics=metrics)
        records = [_record(issuer, index) for index in range(10)]
        for count, record in enumerate(records, 1):
            log.record(record)
            assert len(log) == min(count, 4)
            assert log.recorded - log.evicted == len(log)
        assert log.records == records[-4:]
        assert isinstance(log.records, list)
        assert (log.recorded, log.evicted) == (10, 6)
        # The log is the one count of its records: no registry copy.
        assert metrics.snapshot()["counters"] == {}

    def test_records_is_a_snapshot_not_the_ring(self, issuer):
        log = AuditLog(retain=2)
        log.record(_record(issuer, 0))
        snapshot = log.records
        snapshot.append("not a record")
        log.record(_record(issuer, 1))
        assert len(log.records) == 2 and len(snapshot) == 2

    def test_queries_read_a_wrapped_ring(self, issuer):
        log = AuditLog(retain=5)
        for index in range(12):
            log.record(
                _record(issuer, index, "smtp" if index % 2 else "http")
            )
        # Times 7..11 survive; the queries see exactly those, in order.
        assert [r.when for r in log.by_transport("smtp")] == [7.0, 9.0, 11.0]
        assert [r.when for r in log.by_transport("http")] == [8.0, 10.0]
        s1 = NamePrincipal(issuer, "s1")
        assert [r.when for r in log.involving(s1)] == [7.0, 10.0]
        assert log.involving(NamePrincipal(issuer, "nobody")) == []

    def test_retain_zero_keeps_nothing_but_feeds_the_sink(self, issuer):
        seen = []
        log = AuditLog(retain=0, sink=seen.append)
        for index in range(3):
            log.record(_record(issuer, index))
        assert log.records == [] and len(seen) == 3
        assert (log.recorded, log.evicted) == (3, 3)
        with pytest.raises(ValueError):
            AuditLog(retain=-1)


class TestSink:
    def test_sink_sees_every_record_in_order_before_the_ring(self, issuer):
        seen = []
        log = AuditLog(retain=3)

        def sink(record):
            # Called before the record enters the ring.
            assert record not in log.records
            seen.append(record)

        log.sink = sink
        records = [_record(issuer, index) for index in range(8)]
        for record in records:
            log.record(record)
        assert seen == records
        assert log.records == records[-3:]

    def test_a_raising_sink_is_counted_and_the_grant_stands(
        self, server_kp, alice_kp, rng
    ):
        metrics = MetricsRegistry()
        calls = []

        def sink(record):
            calls.append(record)
            raise OSError("disk full")

        trust = TrustEnvironment()
        prover = Prover()
        issuer = KeyPrincipal(server_kp.public)
        client = KeyPrincipal(alice_kp.public)
        prover.add_proof(SignedCertificateStep(
            Certificate.issue(server_kp, client, Tag.all(), rng=rng)
        ))
        guard = Guard(
            trust, prover=prover, metrics=metrics,
            audit=AuditLog(sink=sink, metrics=metrics),
        )
        request = GuardRequest(
            ["web", "GET"], issuer=issuer,
            credential=ChannelCredential(client), transport="http",
        )
        decision = guard.check(request)
        assert decision.granted
        assert calls == [decision.record]
        assert guard.audit.records == [decision.record]
        assert metrics.counter("guard.audit.sink_errors") == 1
        assert guard.audit.recorded == 1

    def test_a_guards_own_log_counts_on_the_guards_registry(self):
        metrics = MetricsRegistry()
        guard = Guard(TrustEnvironment(), metrics=metrics)
        assert guard.audit.metrics is metrics
        assert guard.audit.retain == AUDIT_RETAIN
