"""Shard-aware dispatch: one mixed request stream, one batch per shard.

``AuthCluster`` is the subsystem's facade.  Its data plane is
``check_many``: it groups a heterogeneous stream of
:class:`GuardRequest`\\ s by serving node and rides
``Guard.check_many()``, so each shard pays one trusted-premise snapshot
per batch instead of one per request — the cluster-scale version of the
batching the guard already does for a single process.  A single
``check`` is a batch of one.

Every check is served by its speaker's shard owner.  The control plane
owns the shared clock, the membership table, the invalidation bus, the
replicated delegation set, and the session directory used to re-mint a
failed node's sessions onto their new owners on first miss.  It
implements the full :class:`~repro.guard.backend.AuthBackend` protocol,
so every transport that can front a single :class:`Guard` can front a
cluster unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster.audit import ClusterAuditView
from repro.cluster.bus import InvalidationBus
from repro.cluster.handoff import DrainReport, HandoffCoordinator
from repro.cluster.membership import ClusterMembership
from repro.cluster.ring import (
    GuardNode,
    HashRing,
    principal_fingerprint,
    routing_key,
    session_routing_key,
)
from repro.core.errors import AuthorizationError
from repro.core.principals import Principal, QuotingPrincipal
from repro.core.proofs import (
    CitationIndex,
    Proof,
    proof_citations,
    proof_from_sexp,
)
from repro.core.statements import SpeaksFor
from repro.crypto.mac import MacKey
from repro.crypto.rng import default_rng
from repro.guard.audit import AUDIT_RETAIN, AuditLog
from repro.guard.pipeline import GuardDecision
from repro.obs.registry import default_registry
from repro.obs.trace import Tracer, default_tracer
from repro.guard.request import (
    ChannelCredential,
    GuardRequest,
    SessionCredential,
)
from repro.sexp import parse_canonical
from repro.sim.clock import SimClock


class AuthCluster:
    """A sharded, replicated authorization cluster (an ``AuthBackend``).

    - **sharding**: requests route by speaker fingerprint on a
      consistent-hash ring, and the shard owner serves every check; each
      node's guard keeps local caches exactly as a single-process guard
      would;
    - **replication**: delegations added through the cluster are digested
      into *every* node's prover (the speaks-for model makes any node
      able to verify any proof), and new nodes receive the current set at
      join;
    - **invalidation**: retractions, channel closes, and revocations are
      applied locally, then broadcast on the bus; one
      ``deliver_invalidations()`` round purges every other node's
      dependent cache entries and delegation edges;
    - **failure**: a failed node's shards reassign by ring arithmetic;
      its MAC sessions re-mint onto the new owners from the cluster
      directory on first miss, carrying their original mint stamp so
      the absolute TTL never restarts;
    - **planned departure**: :meth:`drain` marks the node DRAINING (still
      serving), hands its warm state — cached proofs, MAC sessions,
      channel bindings — to the inheriting ring successors via
      :class:`~repro.cluster.handoff.HandoffCoordinator`, then finalizes
      the leave, so a planned topology change costs ~no re-derivations.
    """

    def __init__(
        self,
        node_count: int = 1,
        clock: Optional[SimClock] = None,
        vnodes: int = 64,
        heartbeat_timeout: float = 30.0,
        session_ttl: Optional[float] = None,
        directory_cap: int = 4096,
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
        self.bus = InvalidationBus()
        self.membership = ClusterMembership(
            clock=self.clock,
            ring=HashRing(vnodes=vnodes),
            heartbeat_timeout=heartbeat_timeout,
        )
        self.session_ttl = session_ttl
        self.directory_cap = directory_cap
        self.rng = rng
        # One retention knob: ``audit_retain`` sizes each node's ring and
        # caps the merged view; ``audit_sink`` sees every node's records.
        self.audit_retain = audit_retain
        self.audit_sink = audit_sink
        self.audit = ClusterAuditView(self.membership, retain=audit_retain)
        # The handoff plane: warm-state transfer for planned departures.
        self.handoff = HandoffCoordinator(self)
        self._next_node = 0
        # Base term of ``invalidation_generation``: compensates for node
        # departures (a departing guard's counter leaves the sum) so the
        # cluster-wide generation never revisits an earlier value.
        self._generation_base = 0
        # The replicated set (digest -> delegation, replayed to a joining
        # node in arrival order), and what a revocation or a retraction
        # looks up in it: certificate serial / lemma digest -> digests of
        # the replicated delegations embedding it.
        self._delegations: Dict[bytes, Proof] = {}
        self._delegations_citing_serial = CitationIndex()
        self._delegations_embedding = CitationIndex()
        # channel fingerprint -> vouched premise, for live channels only
        # (entries die at close).  The channel analogue of the session
        # escrow: a node that comes to serve a channel speaker — after a
        # ring change, or for a quoting speaker that routes by its
        # compound fingerprint — is handed the binding on first miss.
        self._channel_directory: Dict[bytes, SpeaksFor] = {}
        # mac_id -> (secret, mint stamp); LRU-bounded by directory_cap.
        # The directory is the failover escrow, not an authority grant:
        # entries expire on the cluster TTL exactly as registry entries
        # do, so a re-mint can never outlive the original session.
        self._session_directory: "OrderedDict[str, Tuple[MacKey, float]]" = (
            OrderedDict()
        )
        # The data plane's own tallies (the ``dispatch`` section of
        # ``stats_snapshot``): ``check_many`` calls, requests routed, and
        # per-node batches handed to a guard.
        self.dispatch_stats = {
            "dispatches": 0, "requests": 0, "shard_batches": 0,
        }
        self.stats = {
            "sessions_minted": 0,
            "sessions_reminted": 0,
            "sessions_unescrowed": 0,
            "sessions_swept": 0,
            "directory_expired": 0,
            "channels_revouched": 0,
        }
        for _ in range(node_count):
            self.add_node()

    # -- membership --------------------------------------------------------

    def add_node(self, node_id: Optional[str] = None) -> GuardNode:
        """Join a fresh node: wire it to the bus, replay the replicated
        delegation set into its prover, and take its ring points.  This
        is the whole "adding a node" recipe — shards move to it by ring
        arithmetic on the next request."""
        if node_id is None:
            node_id = "node-%d" % self._next_node
            self._next_node += 1
        node = GuardNode(
            node_id,
            clock=self.clock,
            session_ttl=self.session_ttl,
            audit=AuditLog(
                retain=(
                    AUDIT_RETAIN if self.audit_retain is None
                    else self.audit_retain
                ),
                sink=self.audit_sink, metrics=self.metrics,
            ),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        node.guard.invalidation_hooks.append(
            lambda kind, payload, _origin=node_id: self.bus.publish(
                kind, payload, origin=_origin
            )
        )
        self.bus.subscribe(node)
        for proof in self._delegations.values():
            node.guard.digest_delegation(proof)
        self.membership.join(node)
        return node

    @property
    def invalidation_generation(self) -> int:
        """The cluster-wide invalidation generation: the sum of every
        live guard's counter plus a base term that absorbs departures.
        Any retraction, revocation, channel close, or membership change
        moves it, so a handoff record exported under one generation is
        fully re-verified when installed under another."""
        total = self._generation_base
        for node in self.membership.alive():
            total += node.guard.invalidation_generation
        return total

    def _absorb_departure(self, node: GuardNode) -> None:
        """Fold a departing node's counter into the base (+1 so the
        membership change itself reads as a new generation)."""
        self._generation_base += node.guard.invalidation_generation + 1

    def remove_node(self, node_id: str) -> GuardNode:
        """Graceful leave: shards reassign; the departing node stops
        receiving bus traffic.  Called on an UP node this is the *cold*
        path — successors re-derive on first miss; :meth:`drain` is the
        warm path, and calls here to finalize."""
        node = self.membership.leave(node_id)
        self.bus.unsubscribe(node_id)
        self._absorb_departure(node)
        return node

    def drain(self, node_id: str) -> DrainReport:
        """Planned departure, warm: mark the node DRAINING (it keeps its
        ring points and keeps serving — no wire-level RETRY for a planned
        leave), hand its warm state to the inheriting successors, then
        finalize with the ordinary leave.  Returns the transfer report;
        the per-shard flip happens at the final ring update, by which
        point every inheritor already holds the state it needs."""
        self.membership.begin_drain(node_id)
        node = self.membership.get(node_id)
        report = self.handoff.drain(node)
        self.remove_node(node_id)
        return report

    def fail_node(self, node_id: str) -> GuardNode:
        """Declare a node dead (operator-driven; the heartbeat sweep is
        the detector-driven path)."""
        node = self.membership.fail(node_id)
        self.bus.unsubscribe(node_id)
        self._absorb_departure(node)
        return node

    def crash_node(self, node_id: str) -> GuardNode:
        """Kill a node without repairing the ring: its points linger, so
        requests that route onto the corpse raise
        :class:`~repro.core.errors.NodeUnavailableError` until
        :meth:`sweep_failures` (or the serving layer's repair path) runs.
        This is the mid-connection failure mode ``fail_node`` cannot
        model, because ``fail_node`` reassigns the shards atomically."""
        node = self.membership.crash(node_id)
        self.bus.unsubscribe(node_id)
        return node

    def heartbeat(self, node_id: Optional[str] = None) -> int:
        """Record heartbeats (every live node when ``node_id`` is None)
        and pump the session sweep on the beat: the heartbeat is the
        cluster's clock-advance signal, so expired MAC sessions — and
        lapsed escrow-directory entries — are reaped *now*, not on their
        next unlucky toucher.  Returns the number of sessions reaped."""
        if node_id is None:
            for node in self.membership.alive():
                self.membership.heartbeat(node.node_id)
            return self.sweep_sessions()
        node = self.membership.get(node_id)
        if node is None:
            raise LookupError("unknown node %r" % node_id)
        self.membership.heartbeat(node.node_id)
        return self._reap([node])

    def sweep_failures(self) -> List[str]:
        """Run the heartbeat failure detector; unsubscribe the lapsed.
        The sweep is also a clock-advance signal, so survivor session
        registries and the escrow directory are reaped in the same
        pass."""
        lapsed = self.membership.sweep()
        for node_id in lapsed:
            self.bus.unsubscribe(node_id)
        self.sweep_sessions()
        return lapsed

    def sweep_sessions(self) -> int:
        """The backend-protocol sweep: reap expired sessions on every
        live node and in the escrow directory."""
        return self._reap(self.membership.alive())

    def _reap(self, nodes: List[GuardNode]) -> int:
        """The one sweep-accounting block: reap the given registries,
        lapse the escrow directory, count what fell."""
        reaped = sum(node.guard.sweep_sessions() for node in nodes)
        self._sweep_directory()
        self.stats["sessions_swept"] += reaped
        return reaped

    def _sweep_directory(self) -> None:
        if self.session_ttl is None:
            return
        now = self.clock.now()
        for mac_id, (_, minted_at) in list(self._session_directory.items()):
            self._lapse(mac_id, minted_at, now)

    def _lapse(self, mac_id: str, minted_at: float, now: float) -> bool:
        """Drop an escrow entry past the cluster TTL, counted — the one
        way an entry expires, whether a sweep or its next toucher finds
        it first.  Returns whether it was dropped."""
        if self.session_ttl is None or now - minted_at <= self.session_ttl:
            return False
        del self._session_directory[mac_id]
        self.stats["directory_expired"] += 1
        return True

    def nodes(self) -> List[GuardNode]:
        return self.membership.alive()

    def node_for_speaker(self, principal: Principal) -> GuardNode:
        return self.membership.node_for(principal_fingerprint(principal))

    def _via(self, node_id: Optional[str]) -> GuardNode:
        if node_id is None:
            nodes = self.membership.alive()
            if not nodes:
                raise LookupError("the cluster has no live nodes")
            return nodes[0]
        node = self.membership.get(node_id)
        if node is None:
            raise LookupError("unknown node %r" % node_id)
        return node

    def _route(self, request: GuardRequest) -> GuardNode:
        """The serving node of a request: its speaker's shard owner."""
        return self.membership.node_for(routing_key(request))

    # -- replicated delegations and invalidation ---------------------------

    def add_delegation(self, proof: Proof) -> None:
        """Digest a delegation into every live node's prover.  Any node
        can then complete proofs over it — the property that makes
        speaker-sharding safe."""
        digest = proof.digest()
        self._delegations[digest] = proof
        serials, lemma_digests, _ = proof_citations(proof)
        for serial in serials:
            self._delegations_citing_serial.add(serial, digest)
        for lemma_digest in lemma_digests:
            self._delegations_embedding.add(lemma_digest, digest)
        for node in self.membership.alive():
            node.guard.digest_delegation(proof)

    def _unreplicate(self, digests) -> None:
        """Take delegations out of the replicated set, so a node joining
        later is not handed them (or anything they embed) at replay."""
        for digest in digests:
            serials, lemma_digests, _ = proof_citations(
                self._delegations.pop(digest)
            )
            for serial in serials:
                self._delegations_citing_serial.discard(serial, digest)
            for lemma_digest in lemma_digests:
                self._delegations_embedding.discard(lemma_digest, digest)

    def digest_delegation(self, proof: Proof) -> None:
        """The backend-protocol name for :meth:`add_delegation`: a
        delegation digested into the cluster is replicated, full stop."""
        self.add_delegation(proof)

    def outgoing_delegations(self, principal: Principal) -> int:
        """Delegation edges leaving ``principal`` — answered by any live
        node, since the delegation set is replicated to all of them."""
        nodes = self.membership.alive()
        if not nodes:
            raise LookupError("the cluster has no live nodes")
        return nodes[0].guard.outgoing_delegations(principal)

    def retract_delegation(self, proof_or_digest, via: Optional[str] = None) -> int:
        """Retract a delegation *on one node*; the node's invalidation
        hook broadcasts it, and the next bus round purges the rest of the
        cluster.  Returns entries dropped on the originating node.

        Every replicated delegation embedding the retracted lemma leaves
        the replicated set with it: digesting such a chain at a later
        join would re-add the lemma itself.
        """
        digest = (
            proof_or_digest
            if isinstance(proof_or_digest, bytes)
            else proof_or_digest.digest()
        )
        # Resolve the originating node before touching the replicated
        # set: a bad `via` must fail with the cluster state unchanged.
        origin = self._via(via)
        self._unreplicate(self._delegations_embedding.holders(digest))
        return origin.guard.retract_delegation(digest)

    def revoke_serial(self, serial: bytes, via: Optional[str] = None) -> int:
        """Feed a revocation event in at one node; the bus spreads it.

        The revoked authority also leaves the replicated delegation set,
        so a node joining after the revocation is not handed it back at
        replay.
        """
        origin = self._via(via)
        self._unreplicate(self._delegations_citing_serial.holders(serial))
        return origin.guard.revoke_serial(serial)

    def deliver_invalidations(self) -> int:
        """Pump one invalidation-bus round.  (The ``AuthBackend`` protocol
        claims the plain ``deliver`` name for transport delivery, matching
        ``Guard.deliver``.)"""
        return self.bus.deliver()

    # -- channels and sessions ---------------------------------------------

    def open_channel(
        self, channel_principal: Principal, bound_principal: Principal
    ) -> SpeaksFor:
        """Vouch a completed key exchange on the channel's owning node.
        Close retracts on the owner and the bus round clears the rest."""
        fingerprint = principal_fingerprint(channel_principal)
        premise = self.membership.node_for(fingerprint).guard.open_channel(
            channel_principal, bound_principal
        )
        # Remember the binding for the channel's lifetime: a node that
        # comes to serve the speaker later is handed the premise on first
        # miss (see ``_ensure_channel``).
        self._channel_directory[fingerprint] = premise
        return premise

    def close_channel(self, premise: SpeaksFor) -> None:
        """Close on the current owner; the broadcast reaches any node
        that held dependent state under an older ring layout."""
        self._channel_directory.pop(
            principal_fingerprint(premise.subject), None
        )
        owner = self.node_for_speaker(premise.subject)
        owner.guard.close_channel(premise)

    def channel_bindings(self) -> List[Tuple[bytes, SpeaksFor]]:
        """The live channel directory as ``(fingerprint, premise)`` pairs
        — what the handoff plane enumerates when a draining node's channel
        shards move to their inheritors."""
        return list(self._channel_directory.items())

    def mint_session(self, rng=None) -> Tuple[str, MacKey]:
        """Mint a MAC session on its owning node and escrow the secret in
        the cluster directory (the failover source of truth)."""
        mac_key = MacKey.generate(
            default_rng(rng if rng is not None else self.rng)
        )
        mac_id = mac_key.fingerprint().digest.hex()
        minted_at = self.clock.now()
        owner = self.membership.node_for(session_routing_key(mac_id))
        owner.guard.sessions.install(mac_id, mac_key, minted_at=minted_at)
        self._escrow(mac_id, mac_key, minted_at)
        self.stats["sessions_minted"] += 1
        return mac_id, mac_key

    def install_session(
        self, mac_id: str, mac_key: MacKey, minted_at: Optional[float] = None
    ) -> None:
        """Adopt an externally minted session: install it on its ring
        owner and escrow it for failover.  ``minted_at`` preserves the
        original stamp so a handover never extends the absolute TTL."""
        minted_at = self.clock.now() if minted_at is None else minted_at
        owner = self.membership.node_for(session_routing_key(mac_id))
        owner.guard.sessions.install(mac_id, mac_key, minted_at=minted_at)
        self._escrow(mac_id, mac_key, minted_at)

    def _escrow(self, mac_id: str, mac_key: MacKey, minted_at: float) -> None:
        self._session_directory[mac_id] = (mac_key, minted_at)
        self._session_directory.move_to_end(mac_id)
        while len(self._session_directory) > self.directory_cap:
            # A capped-out escrow entry may cover a still-valid session:
            # that session keeps working on its owner but can no longer
            # fail over.  The counter makes an undersized cap visible.
            self._session_directory.popitem(last=False)
            self.stats["sessions_unescrowed"] += 1

    def _prepare(self, request: GuardRequest, node: GuardNode) -> None:
        """Everything a serving node may be missing before a decision:
        a session secret (from the escrow directory) or a live channel
        binding (from the channel directory)."""
        self._ensure_session(request, node)
        self._ensure_channel(request, node)

    def _ensure_channel(self, request: GuardRequest, node: GuardNode) -> None:
        """Hand a live channel's binding to the node about to serve it.

        ``open_channel`` vouches on the owner of the moment, but the
        ring can change under a live connection (a join, a failure)
        and a quoting speaker (``KCH|C``) routes by the *compound*
        fingerprint, not the channel's — either way the serving node may
        lack the premise every chain over the channel needs.  The
        directory keeps one entry per live channel, so the premise
        follows the traffic exactly as session secrets do."""
        credential = request.credential
        if not isinstance(credential, ChannelCredential):
            return
        self._ensure_channel_premise(credential.speaker, node)

    def _ensure_channel_premise(self, speaker, node: GuardNode) -> None:
        while isinstance(speaker, QuotingPrincipal):
            speaker = speaker.quoter
        premise = self._channel_directory.get(principal_fingerprint(speaker))
        if premise is None or node.trust.vouches_for(premise):
            return
        node.trust.vouch(premise)
        self.stats["channels_revouched"] += 1

    def _ensure_session(self, request: GuardRequest, node: GuardNode) -> None:
        """Re-mint a directory session onto the node about to serve it on
        first miss — the lazy half of failure rebalancing.  The re-mint
        carries the original mint stamp, so the session's absolute TTL
        holds across any number of serving nodes."""
        credential = request.credential
        if not isinstance(credential, SessionCredential):
            return
        # Steady state short-circuits on the serving node's registry
        # alone; the escrow directory is only consulted on a miss (mint,
        # failover, rebalance, or a genuinely unknown id).
        if node.guard.sessions.get(credential.session_id) is not None:
            return
        entry = self._session_directory.get(credential.session_id)
        if entry is None:
            return
        mac_key, minted_at = entry
        if self._lapse(credential.session_id, minted_at, self.clock.now()):
            return
        self._session_directory.move_to_end(credential.session_id)
        node.guard.sessions.install(
            credential.session_id, mac_key, minted_at=minted_at
        )
        self.stats["sessions_reminted"] += 1

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
            node = self._route(request)
            self._prepare(request, node)
            groups.setdefault(node, []).append(index)
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
        node = self._route(request)
        self._prepare(request, node)
        return node.guard.authenticate(request)

    def deliver(self, request: GuardRequest) -> Principal:
        """Post-handshake transport delivery on the shard owner: delivery
        *vouches* the utterance (mutable premise state), and premises
        live where the speaker's checks are decided."""
        owner = self._route(request)
        self._prepare(request, owner)
        return owner.guard.deliver(request)

    def retract_delivery(self, speaker: Principal, logical) -> None:
        """Withdraw a delivered utterance wherever it was vouched.

        The vouching node was the speaker's owner *at delivery time*; a
        ring change since then means today's owner lookup would miss it
        and strand the premise.  Retraction is a discard — a no-op on
        nodes that never held the utterance — so sweeping every live
        node is both correct and cheap, mirroring how the bus handles
        channel closes under older ring layouts."""
        for node in self.membership.alive():
            node.guard.retract_delivery(speaker, logical)

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
            # A chain over a live channel needs the binding premise
            # where it verifies — hand it over exactly as checks do.
            self._ensure_channel_premise(conclusion.subject, owner)
        else:
            owner = self._via(None)
        return owner.guard.submit_proof(proof_wire, proof=proof)

    # -- introspection -----------------------------------------------------

    def context(self, now: Optional[float] = None):
        """A verification context on the cluster clock.  Suitable for
        checking standalone delegation chains (signatures + validity);
        per-node premise sets are deliberately not merged here."""
        return self._via(None).guard.context(now)

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
            "membership": dict(self.membership.stats),
            "dispatch": dict(self.dispatch_stats),
            "handoff": dict(self.handoff.stats),
            "bus": dict(self.bus.stats),
            "ring": {
                "nodes": self.membership.ring.nodes(),
                "vnodes": self.membership.ring.vnodes,
            },
            "nodes": {
                node.node_id: node.stats()
                for node in self.membership.alive()
            },
        }
