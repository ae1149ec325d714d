"""Count each event once: a fast-path grant makes one registry call.

A count gate, no clock.  ``K`` repeated MAC check frames are pipelined
over loopback into a warmed :class:`~repro.guard.Guard` whose audit
ring (``retain=16``) is already full.  Every frame hits the
listener's question memo (a hit walks no field, so it counts nothing on
the registry) and every check is a fast-path grant.  Every other
tally of such a request — its reply, its decode hit, its dispatch, its
audit record and that record's eviction — is held once, by the
listener's ``stats`` dict, by the ``guard.batch_size`` histogram or by
the ``AuditLog``, so:

- ``MetricsRegistry.inc`` is called exactly ``K`` times, every call for
  ``guard.stage.fastpath`` (the stage counter ``bench/layers.py`` reads);
- nothing observes ``cluster.shard_batch_size``: ``Guard.check_many``
  already observes the same value as ``guard.batch_size``.
"""

import asyncio
from collections import Counter

from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential, default_backend
from repro.guard.audit import AuditLog
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import Prover
from repro.serve import ServeClient, ServeListener
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

K = 512
SESSIONS = 4
RETAIN = 16


def _request(issuer, sessions, index):
    mac_id, mac_key = sessions[index % SESSIONS]
    logical = sexp(["web", ["method", "GET"], ["path", "/doc"]])
    message = to_canonical(logical)
    return GuardRequest(
        logical, issuer=issuer,
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
        transport="http",
    )


def test_a_fast_path_grant_makes_one_registry_call(keypool, rng, monkeypatch):
    registry = MetricsRegistry()
    guard = default_backend(
        TrustEnvironment(clock=SimClock()), prover=Prover(), metrics=registry,
        audit=AuditLog(retain=RETAIN, metrics=registry),
    )
    issuer = KeyPrincipal(keypool[0].public)
    sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = guard.mint_session(rng)
        guard.digest_delegation(SignedCertificateStep(Certificate.issue(
            keypool[0], MacPrincipal(mac_key.fingerprint()), Tag.all(),
            rng=rng,
        )))
        sessions.append((mac_id, mac_key))

    def window():
        return [_request(issuer, sessions, index) for index in range(K)]

    calls = Counter()
    inc = MetricsRegistry.inc

    def counted(self, name, by=1):
        calls[name] += 1
        return inc(self, name, by)

    async def scenario():
        listener = ServeListener(guard)
        host, port = await listener.start()
        # No client-minted trace ids: repeated frames are identical bytes.
        client = await ServeClient.connect(host, port, trace_sample=10 * K)
        warm = await client.check_pipelined(window())  # fills the ring
        assert all(reply.granted for reply in warm)
        hits = listener.stats["decode_hits"]
        monkeypatch.setattr(MetricsRegistry, "inc", counted)
        replies = await client.check_pipelined(window())
        monkeypatch.setattr(MetricsRegistry, "inc", inc)
        assert all(reply.granted for reply in replies)
        assert listener.stats["decode_hits"] - hits == K
        await client.close()
        await listener.shutdown()

    asyncio.run(scenario())
    assert guard.audit.evicted > 0
    print("registry inc calls for %d fast-path grants: %d %s" % (
        K, sum(calls.values()), dict(calls),
    ))
    assert calls == Counter({"guard.stage.fastpath": K})
    assert registry.histogram("cluster.shard_batch_size") is None
