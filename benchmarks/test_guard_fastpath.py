"""Guard pipeline throughput: cold proofs vs the session fast path vs
``check_many`` batching.

The paper's Section 7.2 numbers frame the comparison: a fresh proof costs
the server 190 ms of parsing and verification, while the steady-state
``checkAuth()`` — "finds a cached proof for that subject, and sees that
the proof has already been verified" — costs 5 ms.  The guard reproduces
both, and its batch entry point amortizes the checkAuth charge across
independent requests sharing one trusted-premise snapshot.

All assertions are on the simulated (metered) milliseconds, so they are
deterministic; wall-clock figures are printed for interest only.
"""

import time

from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.guard import ChannelCredential, Guard, GuardRequest
from repro.net.trust import TrustEnvironment
from repro.rmi.remote import invocation_sexp
from repro.sexp import to_canonical
from repro.sim import Meter
from repro.spki import Certificate
from repro.tags import Tag

ROUNDS = 32


def _world(keypool, rng):
    server_kp, client_kp = keypool[0], keypool[1]
    trust = TrustEnvironment()
    meter = Meter()
    guard = Guard(trust, meter=meter)
    issuer = KeyPrincipal(server_kp.public)
    channel = ChannelPrincipal.of_secret(b"bench-session")
    client = KeyPrincipal(client_kp.public)
    premise = SpeaksFor(channel, client, Tag.all())
    trust.vouch(premise)
    chain = TransitivityStep(
        PremiseStep(premise),
        SignedCertificateStep(
            Certificate.issue(server_kp, client, Tag.all(), rng=rng)
        ),
    )
    wire = to_canonical(chain.to_sexp())
    logical = invocation_sexp("bench", "read", [])

    def guard_request():
        return GuardRequest(
            logical,
            issuer=issuer,
            credential=ChannelCredential(channel),
            transport="rmi",
        )

    return guard, meter, wire, guard_request


def _span(meter, fn):
    before = meter.snapshot()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    return meter.snapshot() - before, wall


def test_session_fastpath_10x_over_cold(keypool, rng):
    guard, meter, wire, guard_request = _world(keypool, rng)

    # Cold: the server forgets its copy after each use (the paper's
    # experiment), so every request pays the 190 ms parse-and-verify.
    def cold():
        for _ in range(ROUNDS):
            guard.cache.forget()
            guard.submit_proof(wire)
            guard.check(guard_request())

    cold_ms, cold_wall = _span(meter, cold)

    # Warm: the session proved itself once; every request is a cache hit.
    guard.submit_proof(wire)

    def warm():
        for _ in range(ROUNDS):
            guard.check(guard_request())

    warm_ms, warm_wall = _span(meter, warm)

    # Batched: one pass, one snapshot, one checkAuth charge.
    batch = [guard_request() for _ in range(ROUNDS)]
    decisions = []
    batch_ms, batch_wall = _span(
        meter, lambda: decisions.extend(guard.check_many(batch))
    )
    assert len(decisions) == ROUNDS
    assert all(decision.granted for decision in decisions)

    per_cold = cold_ms / ROUNDS
    per_warm = warm_ms / ROUNDS
    per_batch = batch_ms / ROUNDS
    print(
        "\nguard fast path (simulated ms/request): cold=%.2f warm=%.2f "
        "batched=%.3f | wall us/request: cold=%.0f warm=%.0f batched=%.0f"
        % (
            per_cold, per_warm, per_batch,
            cold_wall / ROUNDS * 1e6,
            warm_wall / ROUNDS * 1e6,
            batch_wall / ROUNDS * 1e6,
        )
    )
    # The acceptance bar: session fast path >= 10x faster than cold full
    # verification (195 ms vs 5 ms simulated = 39x).
    assert per_cold >= 10 * per_warm
    # Batching amortizes the per-check charge below the fast path itself.
    assert per_batch < per_warm
    # The guard classified the work as expected.
    assert guard.stats["cache_hits"] >= 3 * ROUNDS


def test_batch_matches_sequential_decisions(keypool, rng):
    """check_many grants exactly what sequential checks grant."""
    guard, meter, wire, guard_request = _world(keypool, rng)
    guard.submit_proof(wire)
    sequential = [guard.check(guard_request()) for _ in range(8)]
    batched = guard.check_many([guard_request() for _ in range(8)])
    for one, many in zip(sequential, batched):
        assert one.proof.conclusion == many.proof.conclusion
        assert many.granted and many.stage == "cache"
