"""Sampling never changes a decision or a count.

The same check frames, cut into the same recv chunks, are served twice
by identically built guards: once under ``Tracer(sample=1)`` and once
under ``Tracer(sample=N)``.  Whatever the chunking and whichever frames
carry their own trace id, the replies are byte-identical, every counter
(``guard.stage.*`` and the listener's ``stats`` included) is equal,
every audit record names its trace, and every trace's spans are kept
whole or not at all.

A connection is driven through ``data_received`` on a transport that
only records writes, so a chunk is exactly one recv; chunks never exceed
``max_batch``, so no chunk leaves frames for a later loop turn.
"""

from __future__ import annotations

import random
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential, default_backend
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry, Tracer
from repro.prover import Prover
from repro.serve import ServeListener
from repro.serve.protocol import encode_check, encode_frame
from repro.serve.server import _Connection
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

SESSIONS = 4  # the last one has no delegation: its checks are challenged


class _RecordingTransport:
    def __init__(self):
        self.written = bytearray()
        self.closing = False

    def write(self, data) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def _world(server_kp, sample):
    """A guard built from one seed, so two builds hold the same
    sessions and delegations."""
    rng = random.Random(77)
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry, rng=random.Random(3), sample=sample,
                    max_spans=4096)
    guard = default_backend(
        TrustEnvironment(clock=SimClock()), prover=Prover(),
        metrics=registry, tracer=tracer,
    )
    sessions = []
    for index in range(SESSIONS):
        mac_id, mac_key = guard.mint_session(rng)
        if index < SESSIONS - 1:
            guard.digest_delegation(SignedCertificateStep(Certificate.issue(
                server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(),
                rng=rng,
            )))
        sessions.append((mac_id, mac_key))
    return guard, sessions, registry, tracer


def _frame(issuer, sessions, request_id, session, path, trace):
    mac_id, mac_key = sessions[session]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % path]])
    message = to_canonical(logical)
    return encode_frame(encode_check(request_id, GuardRequest(
        logical, issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http", trace=trace,
    )))


def _serve(guard, chunks):
    connection = _Connection(ServeListener(guard))
    transport = _RecordingTransport()
    connection.connection_made(transport)
    for chunk in chunks:
        connection.data_received(b"".join(chunk))
    return bytes(transport.written)


def _spans_by_trace(tracer):
    traces = defaultdict(list)
    for span in tracer.finished():
        traces[span.trace_id].append(span.name)
    return traces


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sampling_never_changes_a_reply_or_a_counter(keypool, data):
    server_kp = keypool[3]
    issuer = KeyPrincipal(server_kp.public)
    sample = data.draw(st.sampled_from([1, 2, 4, 16]))
    reference = _world(server_kp, 1)
    sampled = _world(server_kp, sample)
    sessions = reference[1]
    assert [mac_id for mac_id, _ in sampled[1]] == [
        mac_id for mac_id, _ in sessions
    ]

    specs = data.draw(st.lists(
        st.tuples(
            st.integers(0, SESSIONS - 1),
            st.integers(0, 5),  # few paths: repeated frames hit the LRU
            st.none() | st.integers(0, (1 << 64) - 1).map("%016x".__mod__),
        ),
        min_size=1, max_size=96,
    ))
    frames = [
        _frame(issuer, sessions, request_id, *spec)
        for request_id, spec in enumerate(specs, 1)
    ]
    chunks = []
    while len(frames) > sum(map(len, chunks)):
        done = sum(map(len, chunks))
        size = data.draw(st.integers(1, 64))
        chunks.append(frames[done:done + size])

    replies = [_serve(world[0], chunks) for world in (reference, sampled)]
    assert replies[0] == replies[1]

    snapshots = [world[2].snapshot() for world in (reference, sampled)]
    assert snapshots[0]["counters"] == snapshots[1]["counters"]
    listeners = [snapshot["sources"]["serve.listener"] for snapshot in snapshots]
    assert listeners[0] == listeners[1]
    grants = listeners[0]["grants"]
    assert grants == sum(1 for spec in specs if spec[0] < SESSIONS - 1)

    for guard, _, _, tracer in (reference, sampled):
        records = guard.audit.records
        assert len(records) == grants
        assert all(record.trace_id is not None for record in records)
        traces = _spans_by_trace(tracer)
        for trace_id, names in traces.items():
            assert tracer.keeps(trace_id)
            assert set(names) == {"serve.request", "guard.check"}
            assert names.count("serve.request") == names.count("guard.check")
        for record in records:
            assert (record.trace_id in traces) == tracer.keeps(
                record.trace_id
            )
    # Under sample=1 every check left both spans.
    assert sum(
        names.count("serve.request")
        for names in _spans_by_trace(reference[3]).values()
    ) == len(specs)
