"""A sampled-out request pays for no span and no timing on any layer.

Counts that repeat exactly (every id is seeded), so the gate needs no
clock: ``K`` warm MAC checks cross ``ServeListener`` →
``AuthCluster(node_count=4)`` → ``Guard.check_many`` over loopback,
one in flight at a time, under a ``Tracer`` left at its defaults
(``sample=16``) with a seeded ``rng``.  Half the requests carry a
client-minted trace id, half arrive without one and are stamped by the
listener.

- ``Span`` constructions <= 2·K/16 plus a tolerance for the hash's
  spread (2·K when every request was traced);
- no orphan span: a trace has one ``serve.request`` and one
  ``guard.check`` span, or none;
- zero ``timebase.now()`` calls inside ``Guard.check_many`` for a
  request whose trace is dropped (six per request when every request
  was timed: the span's start and end, admission and authorization);
- ``guard.stage.fastpath`` == K: every request is still counted.
"""

import asyncio
import random
from collections import Counter, defaultdict

from repro.cluster import AuthCluster
from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.core.timebase import MonotonicTimebase
from repro.guard import GuardRequest, SessionCredential
from repro.guard.pipeline import Guard
from repro.obs import MetricsRegistry, Tracer
from repro.obs import trace as trace_module
from repro.serve import ServeClient, ServeListener
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

K = 512
SESSIONS = 4
#: Kept traces may exceed K/16 by this share (the ids hash unevenly
#: over a finite run; the seeded run reads well inside it).
SPREAD = 0.5


class CountingTimebase(MonotonicTimebase):
    calls = 0

    def now(self) -> float:
        self.calls += 1
        return super().now()


def _world(keypool, rng):
    timebase = CountingTimebase()
    registry = MetricsRegistry(timebase=timebase)
    tracer = Tracer(registry=registry, rng=random.Random(16))
    cluster = AuthCluster(node_count=4, clock=SimClock(), metrics=registry,
                          tracer=tracer)
    sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = cluster.mint_session(rng)
        cluster.add_delegation(SignedCertificateStep(Certificate.issue(
            keypool[0], MacPrincipal(mac_key.fingerprint()), Tag.all(),
            rng=rng,
        )))
        sessions.append((mac_id, mac_key))
    return cluster, sessions, registry, tracer, timebase


def _request(issuer, sessions, index):
    mac_id, mac_key = sessions[index % SESSIONS]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
    message = to_canonical(logical)
    return GuardRequest(
        logical, issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def test_a_dropped_trace_costs_no_span_and_no_clock(keypool, rng, monkeypatch):
    cluster, sessions, registry, tracer, timebase = _world(keypool, rng)
    issuer = KeyPrincipal(keypool[0].public)

    spans = []

    class CountingSpan(trace_module.Span):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    monkeypatch.setattr(trace_module, "Span", CountingSpan)

    clock_reads = []  # (trace id, now() calls) per Guard.check_many
    check_many = Guard.check_many

    def counted(guard, requests):
        requests = list(requests)
        before = timebase.calls
        try:
            return check_many(guard, requests)
        finally:
            (request,) = requests  # serial: a batch of one
            clock_reads.append((request.trace, timebase.calls - before))

    monkeypatch.setattr(Guard, "check_many", counted)

    async def scenario():
        listener = ServeListener(cluster)
        host, port = await listener.start()
        carried = await ServeClient.connect(host, port,
                                            rng=random.Random(61))
        bare = await ServeClient.connect(host, port, trace_sample=10 * K)
        for index in range(SESSIONS):  # warm: the prover runs once each
            assert (await carried.check(
                _request(issuer, sessions, index)
            )).granted
        del spans[:], clock_reads[:]
        fastpath = registry.counter("guard.stage.fastpath")
        for index in range(K):
            client = carried if index % 2 else bare
            assert (await client.check(
                _request(issuer, sessions, SESSIONS + index)
            )).granted
        fastpath = registry.counter("guard.stage.fastpath") - fastpath
        for client in (carried, bare):
            await client.close()
        await listener.shutdown()
        return fastpath

    fastpath = asyncio.run(scenario())
    assert fastpath == K

    traces = defaultdict(Counter)
    for span in spans:
        traces[span.trace_id][span.name] += 1
    orphans = [
        trace_id for trace_id, names in traces.items()
        if names != Counter({"serve.request": 1, "guard.check": 1})
    ]
    dropped_reads = [
        reads for trace_id, reads in clock_reads
        if not tracer.keeps(trace_id)
    ]
    kept_reads = [
        reads for trace_id, reads in clock_reads if tracer.keeps(trace_id)
    ]
    print(
        "spans built: %d for %d requests (%.3f per request), %d kept "
        "traces; now() per check_many: dropped %s, kept %s" % (
            len(spans), K, len(spans) / K, len(traces),
            sorted(set(dropped_reads)), sorted(set(kept_reads)),
        )
    )
    assert len(clock_reads) == K
    assert len(spans) <= 2 * K / 16 * (1 + SPREAD)
    assert not orphans
    assert dropped_reads and set(dropped_reads) == {0}
    assert kept_reads
