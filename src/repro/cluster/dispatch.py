"""The cluster facade: one guard behind a ring of owners.

``AuthCluster`` is the subsystem's facade and a full
:class:`~repro.guard.backend.AuthBackend`, so every transport that can
front a single :class:`Guard` can front a cluster unchanged.  It holds
one :class:`Guard` — built once, through ``default_backend``, over the
cluster's one premise set, session table, delegation graph and audit
log — and a membership table whose ring names each speaker's owner.

Every call asks the ring for the owner first, so a crashed owner raises
the retryable ``NodeUnavailableError``; then the one guard decides.  A
batch is one ``Guard.check_many`` call, one premise snapshot, and an
invalidation is one guard call.  The ring decides only what a departure
loses: a leave, failure or crash forgets the cached chains of the
speakers the node owned; a drain forgets nothing; a join moves nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.membership import ClusterMembership
from repro.cluster.ring import (
    GuardNode,
    HashRing,
    principal_fingerprint,
    routing_key,
    shard_key_for,
)
from repro.core.principals import Principal
from repro.core.proofs import Proof, proof_from_canonical
from repro.core.statements import Says, SpeaksFor
from repro.crypto.mac import MacKey
from repro.crypto.rng import default_rng
from repro.guard import default_backend
from repro.guard.audit import AUDIT_RETAIN, AuditLog
from repro.guard.pipeline import GuardDecision
from repro.guard.request import GuardRequest
from repro.guard.sessions import SessionRegistry
from repro.net.trust import TrustEnvironment
from repro.obs.registry import default_registry
from repro.obs.trace import Tracer, default_tracer
from repro.prover import DelegationGraph, Prover
from repro.sexp import sexp
from repro.sim.clock import SimClock


class DrainReport:
    """What one drain kept warm, and how long it took.  A drain forgets
    nothing, so ``installed`` counts the cached chains of the speakers
    the departing node owned — still in the one cache when their new
    owner is asked."""

    __slots__ = ("node_id", "installed", "duration_ms")

    def __init__(self, node_id: str, installed: int, duration_ms: float):
        self.node_id = node_id
        self.installed = installed
        self.duration_ms = duration_ms

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class AuthCluster:
    """An authorization cluster (an ``AuthBackend``): one guard, and a
    ring that names each speaker's owner.

    The invariant: **the cluster holds its authority, and its derived
    state, once.**  One :class:`TrustEnvironment`, one
    :class:`SessionRegistry`, one :class:`DelegationGraph`, one
    :class:`AuditLog` and one proof cache, all in ``guard``; a node is a
    ring member with an id.

    - **ownership**: requests route by speaker fingerprint (a session by
      its id) on a consistent-hash ring, and every call asks the owner
      first, so a crashed owner refuses retryably until the sweep;
    - **invalidation**: :meth:`retract_delegation`, :meth:`revoke_serial`
      and :meth:`close_channel` are one guard call each: the event leaves
      the one graph or premise set, purges the one cache, and is
      tombstoned for good, so no later check — after any ring change — is
      granted over it;
    - **departure**: a leave, failure or crash forgets the departing
      node's speakers' cached chains, which re-derive on first miss; a
      drain forgets nothing; a join moves nothing.
    """

    def __init__(
        self,
        node_count: int = 1,
        clock: Optional[SimClock] = None,
        vnodes: int = 64,
        heartbeat_timeout: float = 30.0,
        session_ttl: Optional[float] = None,
        audit_retain: Optional[int] = None,
        audit_sink=None,
        rng=None,
        metrics=None,
        tracer=None,
    ):
        self.clock = clock if clock is not None else SimClock()
        # One registry/tracer pair for the whole subsystem: the guard and
        # (via source registration) the full ``stats_snapshot`` tree land
        # in the same scrape point.
        self.metrics = default_registry(metrics)
        if tracer is not None:
            self.tracer = tracer
        elif metrics is not None:
            self.tracer = Tracer(registry=self.metrics)
        else:
            self.tracer = default_tracer()
        self.metrics.register_source("cluster", self.stats_snapshot)
        self.membership = ClusterMembership(
            clock=self.clock,
            ring=HashRing(vnodes=vnodes),
            heartbeat_timeout=heartbeat_timeout,
        )
        self.trust = TrustEnvironment(clock=self.clock)
        self.sessions = SessionRegistry(ttl=session_ttl, clock=self.clock)
        self.graph = DelegationGraph()
        self.audit = AuditLog(
            retain=AUDIT_RETAIN if audit_retain is None else audit_retain,
            sink=audit_sink, metrics=self.metrics,
        )
        # The cluster serves real traffic, so its guard charges no cost
        # model: the paper's modeled figures build their own guards.
        self.guard = default_backend(
            self.trust,
            prover=Prover(graph=self.graph),
            sessions=self.sessions,
            audit=self.audit,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.rng = rng
        self._next_node = 0
        # The data plane's own tallies (the ``dispatch`` section of
        # ``stats_snapshot``): ``check_many`` calls, requests routed, and
        # guard batches (one a call; ``bench/layers.py`` reads it).
        self.dispatch_stats = {
            "dispatches": 0, "requests": 0, "shard_batches": 0,
        }
        self.stats = {"sessions_minted": 0, "sessions_swept": 0}
        # Invalidation tallies: guard applications, entries they removed,
        # and events published per kind.  They keep the ``bus`` name in
        # ``stats_snapshot`` for ``bench/layers.py``.
        self.invalidation_stats = {
            "delivered": 0,
            "dropped_entries": 0,
            "published_delegation_retracted": 0,
            "published_channel_closed": 0,
            "published_serial_revoked": 0,
        }
        # Drain tallies, under the ``handoff`` name ``bench/`` reads:
        # ``records_installed`` counts the cached chains drains kept warm;
        # nothing is refused, so ``records_refused_stale`` stays 0.
        self.drain_stats = {
            "records_installed": 0,
            "records_refused_stale": 0,
            "drains": 0,
            "last_drain_ms": 0.0,
        }
        for _ in range(node_count):
            self.add_node()

    # -- membership --------------------------------------------------------

    def add_node(self, node_id: Optional[str] = None) -> GuardNode:
        """Join a fresh node: it takes its ring points.  Nothing moves:
        a speaker whose shard it takes keeps its cached chains."""
        if node_id is None:
            node_id = "node-%d" % self._next_node
            self._next_node += 1
        node = GuardNode(node_id)
        self.membership.join(node)
        return node

    def _owned(self, node_id: str) -> List[object]:
        """The cached speakers ``node_id`` owns on the ring as it stands:
        one pass over the one cache."""
        ring = self.membership.ring
        return [
            speaker for speaker in self.guard.cache.buckets
            if ring.node_for(shard_key_for(speaker)) == node_id
        ]

    def _forget_owned(self, node_id: str) -> None:
        """What a departure loses: the cached chains of the speakers the
        node owned, forgotten before its ring points go."""
        for speaker in self._owned(node_id):
            self.guard.cache.forget(speaker)

    def remove_node(self, node_id: str) -> GuardNode:
        """Graceful leave, cold: the node's speakers' cached chains are
        forgotten and re-derive on first miss (:meth:`drain` keeps them)."""
        self._forget_owned(node_id)
        return self.membership.leave(node_id)

    def drain(self, node_id: str) -> DrainReport:
        """Planned departure, warm: the ordinary leave, forgetting
        nothing, so the node's speakers are answered from the one cache
        by their new owners.  Returns what stayed warm."""
        timebase = self.metrics.timebase
        started = timebase.now()
        buckets = self.guard.cache.buckets
        kept = sum(len(buckets[speaker]) for speaker in self._owned(node_id))
        self.membership.leave(node_id)
        duration_ms = (timebase.now() - started) * 1000.0
        tally = self.drain_stats
        tally["records_installed"] += kept
        tally["drains"] += 1
        tally["last_drain_ms"] = duration_ms
        return DrainReport(node_id, kept, duration_ms)

    def fail_node(self, node_id: str) -> GuardNode:
        """Declare a node dead (operator-driven; the heartbeat sweep is
        the detector-driven path): its speakers' cached chains are
        forgotten."""
        self._forget_owned(node_id)
        return self.membership.fail(node_id)

    def crash_node(self, node_id: str) -> GuardNode:
        """Kill a node without repairing the ring: its speakers' cached
        chains are forgotten, and its points linger, so requests that
        route onto the corpse raise
        :class:`~repro.core.errors.NodeUnavailableError` until
        :meth:`sweep_failures` (or the serving layer's repair path) runs.
        This is the mid-connection failure mode ``fail_node`` cannot
        model, because ``fail_node`` reassigns the shards atomically."""
        self._forget_owned(node_id)
        return self.membership.crash(node_id)

    def heartbeat(self, node_id: Optional[str] = None) -> int:
        """Record heartbeats (every live node when ``node_id`` is None)
        and pump the session sweep on the beat: the heartbeat is the
        cluster's clock-advance signal, so expired MAC sessions are
        reaped *now*, not on their next unlucky toucher.  Returns the
        number of sessions reaped."""
        if node_id is None:
            for node in self.membership.alive():
                self.membership.heartbeat(node.node_id)
        elif self.membership.get(node_id) is None:
            raise LookupError("unknown node %r" % node_id)
        else:
            self.membership.heartbeat(node_id)
        return self.sweep_sessions()

    def sweep_failures(self) -> List[str]:
        """Run the heartbeat failure detector: a lapsed node fails as
        :meth:`fail_node` fails it, and a crashed node's points go.  The
        sweep is also a clock-advance signal, so the session table is
        reaped in the same pass."""
        for node_id in self.membership.lapsed():
            self._forget_owned(node_id)
        lapsed = self.membership.sweep()
        self.sweep_sessions()
        return lapsed

    def sweep_sessions(self) -> int:
        """The backend-protocol sweep: reap the expired sessions."""
        reaped = self.sessions.sweep()
        self.stats["sessions_swept"] += reaped
        return reaped

    def nodes(self) -> List[GuardNode]:
        return self.membership.alive()

    def node_for_speaker(self, principal: Principal) -> GuardNode:
        return self.membership.node_for(principal_fingerprint(principal))

    def _serving(self) -> None:
        """Refuse (``LookupError``) when no node serves."""
        if not self.membership.alive():
            raise LookupError("the cluster has no live nodes")

    def _route(self, request: GuardRequest) -> GuardNode:
        """The owner of a request: its speaker's, asked on every call."""
        return self.membership.node_for(routing_key(request))

    # -- delegations and invalidation --------------------------------------

    def add_delegation(self, proof: Proof) -> None:
        """Digest a delegation into the cluster's one graph."""
        self.graph.digest(proof)

    def digest_delegation(self, proof: Proof) -> None:
        """The backend-protocol name for :meth:`add_delegation`."""
        self.add_delegation(proof)

    def outgoing_delegations(self, principal: Principal) -> int:
        """Delegation edges leaving ``principal`` in the cluster's graph."""
        return len(self.graph.outgoing(principal))

    def _invalidate(self, kind: str, apply) -> int:
        """Apply one invalidation to the cluster's guard, now: it leaves
        the one graph or premise set, the one cache is purged, and the
        guard tombstones it.  With no serving node it raises
        ``LookupError`` and changes nothing.  Returns the entries
        removed."""
        self._serving()
        removed = apply(self.guard)
        tally = self.invalidation_stats
        tally["published_" + kind] += 1
        tally["delivered"] += 1
        tally["dropped_entries"] += removed
        return removed

    def retract_delegation(self, proof_or_digest) -> int:
        """Retract a delegation (by proof or digest, and every edge
        embedding it)."""
        return self._invalidate(
            "delegation_retracted",
            lambda guard: guard.retract_delegation(proof_or_digest),
        )

    def revoke_serial(self, serial: bytes) -> int:
        """Apply a revocation: every edge and cached proof citing the
        serial goes."""
        return self._invalidate(
            "serial_revoked", lambda guard: guard.revoke_serial(serial)
        )

    def deliver_invalidations(self) -> int:
        """Kept for ``bench/`` (its ``revoke`` command calls it) until the
        rig is re-pointed: nothing is ever pending, so it returns 0."""
        return 0

    # -- channels and sessions ---------------------------------------------

    def open_channel(
        self, channel_principal: Principal, bound_principal: Principal
    ) -> SpeaksFor:
        """Vouch a completed key exchange in the cluster's premise set,
        once the channel's owner is up."""
        self.node_for_speaker(channel_principal)
        return self.guard.open_channel(channel_principal, bound_principal)

    def close_channel(self, premise: SpeaksFor) -> int:
        """Retract the binding and purge the chains cached over it."""
        return self._invalidate(
            "channel_closed", lambda guard: guard.close_channel(premise)
        )

    def mint_session(self, rng=None) -> Tuple[str, MacKey]:
        """Mint a MAC session in the cluster's session table."""
        minted = self.sessions.mint(
            default_rng(rng if rng is not None else self.rng)
        )
        self.stats["sessions_minted"] += 1
        return minted

    def install_session(
        self, mac_id: str, mac_key: MacKey, minted_at: Optional[float] = None
    ) -> None:
        """Adopt an externally minted session into the cluster's session
        table.  ``minted_at`` preserves the original stamp so a handover
        never extends the absolute TTL."""
        self.sessions.install(mac_id, mac_key, minted_at=minted_at)

    # -- the data plane ----------------------------------------------------

    def check(self, request: GuardRequest) -> GuardDecision:
        """Decide one request — a batch of one — raising exactly as
        ``Guard.check`` does."""
        return self.check_many([request])[0].granted_or_raise()

    def check_many(self, requests) -> List[GuardDecision]:
        """Decide a mixed stream in one ``Guard.check_many`` call — one
        premise snapshot.  Every request's owner is asked first, so a
        stream reaching a crashed owner raises ``NodeUnavailableError``
        before anything is decided."""
        requests = list(requests)
        for request in requests:
            self._route(request)
        tally = self.dispatch_stats
        tally["dispatches"] += 1
        tally["requests"] += len(requests)
        tally["shard_batches"] += 1
        return self.guard.check_many(requests)

    def authenticate(self, request: GuardRequest):
        """Resolve a request's credential to its speaker, once its owner
        is up."""
        self._route(request)
        return self.guard.authenticate(request)

    def deliver(self, request: GuardRequest) -> Principal:
        """Post-handshake transport delivery: admit the credential and
        *vouch* the utterance in the cluster's premise set, once the
        speaker's owner is up."""
        self._route(request)
        return self.guard.deliver(request)

    def retract_delivery(self, speaker: Principal, logical) -> None:
        """Withdraw a delivered utterance from the cluster's premise
        set."""
        self.trust.retract(Says(speaker, sexp(logical)))

    def submit_proof(self, proof_wire: bytes) -> Proof:
        """The proofRecipient path: once the subject's owner is up, the
        guard verifies the proof once and caches it for the subject."""
        # Decode once, here: routing needs the conclusion, and the guard
        # accepts the built proof so nothing is decoded twice.
        proof = proof_from_canonical(proof_wire, self.metrics)
        conclusion = proof.conclusion
        if isinstance(conclusion, SpeaksFor):
            self.node_for_speaker(conclusion.subject)
        else:
            self._serving()
        return self.guard.submit_proof(proof_wire, proof=proof)

    # -- introspection -----------------------------------------------------

    def context(self, now: Optional[float] = None):
        """A verification context on the cluster clock over the
        cluster's premise set."""
        return self.trust.context(now)

    def audit_authentication(self, logical, proof, transport: str = "unknown"):
        """Record a verified authentication, once the authenticated
        client's (the proof's issuer's) owner is up."""
        conclusion = proof.conclusion
        if isinstance(conclusion, SpeaksFor):
            self.node_for_speaker(conclusion.issuer)
        return self.guard.audit_authentication(
            logical, proof, transport=transport
        )

    def stats_snapshot(self) -> Dict[str, object]:
        """Every counter in the subsystem, one JSON-friendly tree (the
        ``repro.tools stats`` command dumps this).  ``nodes`` has one
        entry, the one guard's, because ``bench/layers.py`` sums over
        it."""
        guard = self.guard
        return {
            "cluster": dict(self.stats),
            "sessions": dict(self.sessions.stats),
            "graph": {
                "edges": self.graph.edge_count(),
                "invalidations": self.graph.invalidations,
                "generation": self.graph.generation,
            },
            "audit": {
                "recorded": self.audit.recorded,
                "evicted": self.audit.evicted,
            },
            "membership": dict(self.membership.stats),
            "dispatch": dict(self.dispatch_stats),
            "handoff": dict(self.drain_stats),
            "bus": dict(self.invalidation_stats),
            "ring": {
                "nodes": self.membership.ring.nodes(),
                "vnodes": self.membership.ring.vnodes,
            },
            "nodes": {
                "guard": {
                    "guard": dict(guard.stats),
                    "cache": dict(guard.cache.stats),
                    "prover": dict(guard.prover.stats),
                },
            },
        }
