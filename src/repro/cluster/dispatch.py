"""Shard-aware dispatch: one mixed request stream, one batch per shard.

``AuthCluster`` is the subsystem's facade.  Its data plane is
``check_many``: it groups a heterogeneous stream of
:class:`GuardRequest`\\ s by serving node and rides
``Guard.check_many()``, so each shard pays one trusted-premise snapshot
per batch instead of one per request — the cluster-scale version of the
batching the guard already does for a single process.  A single
``check`` is a batch of one.

Every check is served by its speaker's shard owner.  The control plane
owns the shared clock, the membership table, and everything the cluster
knows, held once: one premise set, one session table and one delegation
graph that every node's guard decides against, and one audit log every
node's guard records into.  It implements the full
:class:`~repro.guard.backend.AuthBackend` protocol, so every transport
that can front a single :class:`Guard` can front a cluster unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.handoff import DrainReport, HandoffCoordinator
from repro.cluster.membership import UP, ClusterMembership
from repro.cluster.ring import (
    GuardNode,
    HashRing,
    principal_fingerprint,
    routing_key,
)
from repro.core.errors import AuthorizationError
from repro.core.principals import Principal
from repro.core.proofs import Proof, proof_from_sexp
from repro.core.statements import Says, SpeaksFor
from repro.crypto.mac import MacKey
from repro.crypto.rng import default_rng
from repro.guard.audit import AUDIT_RETAIN, AuditLog
from repro.guard.pipeline import GuardDecision
from repro.guard.request import GuardRequest
from repro.guard.sessions import SessionRegistry
from repro.net.trust import TrustEnvironment
from repro.obs.registry import default_registry
from repro.obs.trace import Tracer, default_tracer
from repro.prover import DelegationGraph
from repro.sexp import parse_canonical, sexp
from repro.sim.clock import SimClock


class AuthCluster:
    """A sharded authorization cluster (an ``AuthBackend``).

    The invariant: **a node holds only its shard's proof-cache buckets;
    everything else the cluster knows — premises, sessions, delegations,
    grants — it holds once.**  The cluster builds one
    :class:`TrustEnvironment`, one :class:`SessionRegistry`, one
    :class:`DelegationGraph` and one :class:`AuditLog` and hands all four
    to every node, so each node's guard decides against the same premise
    set, session table and delegation graph and records into the same
    trail; a ring change moves work, never authority.

    - **sharding**: requests route by speaker fingerprint (a session by
      its id) on a consistent-hash ring, and the shard owner serves every
      check, so a speaker's cache bucket lives on one node;
    - **delegations**: :meth:`add_delegation` digests a proof once into
      ``graph``, which every node's prover searches (the speaks-for model
      makes any node able to verify any proof), so a node that joins
      later holds what the incumbents hold;
    - **invalidation**: **an invalidation is applied on every serving
      node before the call that publishes it returns.**
      :meth:`retract_delegation`, :meth:`revoke_serial` and
      :meth:`close_channel` hand the event to every serving node's guard
      in one call: the first application takes it out of the one graph
      or premise set, and each application purges that node's cached
      chains and tombstones what died, so no later check — on any node,
      after any ring change — is granted over it;
    - **departure**: a failed node's shards reassign by ring arithmetic
      and re-derive on first miss;
    - **planned departure**: :meth:`drain` hands the node's cached
      chains to the inheriting ring successors via
      :class:`~repro.cluster.handoff.HandoffCoordinator`, then leaves,
      so a planned topology change costs ~no re-derivations.
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
        # One registry/tracer pair for the whole subsystem: every node's
        # guard and (via source registration) the full ``stats_snapshot``
        # tree land in the same scrape point.
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
        # Everything the cluster knows, held once and shared by every
        # node: a node holds only its shard's proof-cache buckets.
        self.trust = TrustEnvironment(clock=self.clock)
        self.sessions = SessionRegistry(ttl=session_ttl, clock=self.clock)
        self.graph = DelegationGraph()
        self.audit = AuditLog(
            retain=AUDIT_RETAIN if audit_retain is None else audit_retain,
            sink=audit_sink, metrics=self.metrics,
        )
        self.rng = rng
        # The handoff plane: warm-state transfer for planned departures.
        self.handoff = HandoffCoordinator(self)
        self._next_node = 0
        # The data plane's own tallies (the ``dispatch`` section of
        # ``stats_snapshot``): ``check_many`` calls, requests routed, and
        # per-node batches handed to a guard.
        self.dispatch_stats = {
            "dispatches": 0, "requests": 0, "shard_batches": 0,
        }
        self.stats = {"sessions_minted": 0, "sessions_swept": 0}
        # The invalidation fan-out's tallies: node applications, entries
        # they removed, and events published per kind.  They keep the
        # ``bus`` name in ``stats_snapshot`` for ``bench/layers.py``.
        self.invalidation_stats = {
            "delivered": 0,
            "dropped_entries": 0,
            "published_delegation_retracted": 0,
            "published_channel_closed": 0,
            "published_serial_revoked": 0,
        }
        for _ in range(node_count):
            self.add_node()

    # -- membership --------------------------------------------------------

    def add_node(self, node_id: Optional[str] = None) -> GuardNode:
        """Join a fresh node: hand it what the cluster holds once and take
        its ring points.  This is the whole "adding a node" recipe —
        shards move to it by ring arithmetic on the next request, onto a
        node that holds nothing stale."""
        if node_id is None:
            node_id = "node-%d" % self._next_node
            self._next_node += 1
        node = GuardNode(
            node_id,
            trust=self.trust,
            sessions=self.sessions,
            graph=self.graph,
            audit=self.audit,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.membership.join(node)
        return node

    def remove_node(self, node_id: str) -> GuardNode:
        """Graceful leave: the node's shards reassign.  Called on an UP
        node this is the *cold* path — successors re-derive on first
        miss; :meth:`drain` is the warm path, and calls here to
        finalize."""
        return self.membership.leave(node_id)

    def drain(self, node_id: str) -> DrainReport:
        """Planned departure, warm: the node's cached chains into the
        inheriting successors' import hook, then the ordinary leave.
        Every invalidation was applied on the draining node when it was
        published, so it hands over nothing one reached.  Returns the
        transfer report."""
        if self.membership.state_of(node_id) != UP:
            raise ValueError("node %r is not up" % node_id)
        report = self.handoff.drain(self.membership.get(node_id))
        self.remove_node(node_id)
        return report

    def fail_node(self, node_id: str) -> GuardNode:
        """Declare a node dead (operator-driven; the heartbeat sweep is
        the detector-driven path)."""
        return self.membership.fail(node_id)

    def crash_node(self, node_id: str) -> GuardNode:
        """Kill a node without repairing the ring: its points linger, so
        requests that route onto the corpse raise
        :class:`~repro.core.errors.NodeUnavailableError` until
        :meth:`sweep_failures` (or the serving layer's repair path) runs.
        This is the mid-connection failure mode ``fail_node`` cannot
        model, because ``fail_node`` reassigns the shards atomically."""
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
        """Run the heartbeat failure detector (the lapsed nodes' shards
        move).  The sweep is also a clock-advance signal, so the session
        table is reaped in the same pass."""
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

    def _serving(self) -> List[GuardNode]:
        nodes = self.membership.alive()
        if not nodes:
            raise LookupError("the cluster has no live nodes")
        return nodes

    def _route(self, request: GuardRequest) -> GuardNode:
        """The serving node of a request: its speaker's shard owner."""
        return self.membership.node_for(routing_key(request))

    # -- delegations and invalidation --------------------------------------

    def add_delegation(self, proof: Proof) -> None:
        """Digest a delegation into the cluster's one graph.  Every node's
        prover searches it, so any node can complete proofs over it — the
        property that makes speaker-sharding safe."""
        self.graph.digest(proof)

    def digest_delegation(self, proof: Proof) -> None:
        """The backend-protocol name for :meth:`add_delegation`."""
        self.add_delegation(proof)

    def outgoing_delegations(self, principal: Principal) -> int:
        """Delegation edges leaving ``principal`` in the cluster's graph."""
        return len(self.graph.outgoing(principal))

    def _invalidate(self, kind: str, apply) -> int:
        """Apply one invalidation to every serving node's guard, now.
        The first application takes it out of the one graph or premise
        set (later ones find it gone there); every application purges
        and tombstones on its own node.  Returns the entries removed."""
        nodes = self._serving()
        removed = sum(apply(node.guard) for node in nodes)
        tally = self.invalidation_stats
        tally["published_" + kind] += 1
        tally["delivered"] += len(nodes)
        tally["dropped_entries"] += removed
        return removed

    def retract_delegation(self, proof_or_digest) -> int:
        """Retract a delegation (by proof or digest, and every edge
        embedding it) on every serving node."""
        return self._invalidate(
            "delegation_retracted",
            lambda guard: guard.retract_delegation(proof_or_digest),
        )

    def revoke_serial(self, serial: bytes) -> int:
        """Apply a revocation on every serving node: every edge and
        cached proof citing the serial goes."""
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
        through the channel's owning node."""
        owner = self.node_for_speaker(channel_principal)
        return owner.guard.open_channel(channel_principal, bound_principal)

    def close_channel(self, premise: SpeaksFor) -> int:
        """Retract the binding on every serving node, so a node that
        cached chains over it under an older ring layout drops them
        too."""
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
        """Decide one request — a batch of one, routed to its shard
        owner — raising exactly as ``Guard.check`` does."""
        return self.check_many([request])[0].granted_or_raise()

    def check_many(self, requests) -> List[GuardDecision]:
        """Batch-dispatch a mixed stream: one ``Guard.check_many`` call —
        one premise snapshot — per shard owner touched.  Decisions come
        back in the original stream order, and a failed request never
        interrupts its batch, so a caller cannot tell how the stream was
        partitioned — only the per-node ``batches`` counters can."""
        requests = list(requests)
        groups: Dict[GuardNode, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self._route(request), []).append(index)
        decisions: List[Optional[GuardDecision]] = [None] * len(requests)
        for node, indices in groups.items():
            batch = node.guard.check_many([requests[i] for i in indices])
            for i, decision in zip(indices, batch):
                decisions[i] = decision
        self.dispatch_stats["dispatches"] += 1
        self.dispatch_stats["requests"] += len(requests)
        self.dispatch_stats["shard_batches"] += len(groups)
        return decisions  # type: ignore[return-value]

    def authenticate(self, request: GuardRequest):
        """Resolve a request's credential to its speaker on its shard
        owner (so a session credential's chain is digested where its
        checks will land)."""
        return self._route(request).guard.authenticate(request)

    def deliver(self, request: GuardRequest) -> Principal:
        """Post-handshake transport delivery on the shard owner, which
        admits the credential and *vouches* the utterance in the
        cluster's premise set."""
        return self._route(request).guard.deliver(request)

    def retract_delivery(self, speaker: Principal, logical) -> None:
        """Withdraw a delivered utterance from the cluster's premise
        set, wherever the ring has moved its speaker since."""
        self.trust.retract(Says(speaker, sexp(logical)))

    def submit_proof(self, proof_wire: bytes) -> Proof:
        """The proofRecipient path, cluster-wide: the subject's shard
        owner verifies the proof once and memoizes it where the
        subject's checks are decided."""
        # Parse once, here: routing needs the conclusion, and the
        # verifying guard accepts the built proof so nothing is parsed
        # twice.
        proof = proof_from_sexp(parse_canonical(proof_wire))
        conclusion = proof.conclusion
        if isinstance(conclusion, SpeaksFor):
            owner = self.node_for_speaker(conclusion.subject)
        else:
            owner = self._serving()[0]
        return owner.guard.submit_proof(proof_wire, proof=proof)

    # -- introspection -----------------------------------------------------

    def context(self, now: Optional[float] = None):
        """A verification context on the cluster clock over the
        cluster's premise set."""
        return self.trust.context(now)

    def audit_authentication(self, logical, proof, transport: str = "unknown"):
        """Record a verified authentication on the authenticated
        client's shard (the proof's issuer), keeping a client's trail
        colocated with its decisions."""
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            raise AuthorizationError(
                "authentication proofs conclude speaks-for"
            )
        owner = self.node_for_speaker(conclusion.issuer)
        return owner.guard.audit_authentication(
            logical, proof, transport=transport
        )

    def stats_snapshot(self) -> Dict[str, object]:
        """Every counter in the subsystem, one JSON-friendly tree (the
        ``repro.tools stats`` command dumps this)."""
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
            "handoff": dict(self.handoff.stats),
            "bus": dict(self.invalidation_stats),
            "ring": {
                "nodes": self.membership.ring.nodes(),
                "vnodes": self.membership.ring.vnodes,
            },
            "nodes": {
                node.node_id: node.stats()
                for node in self.membership.alive()
            },
        }
