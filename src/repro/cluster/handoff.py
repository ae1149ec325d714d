"""Warm shard handoff: planned topology changes without re-derivation storms.

A cold ``leave()`` is *correct* — every grant is re-derivable from first
principles, so successors re-prove and re-mint on first miss — but it is
not *free*: each inherited speaker pays a full Prover search plus real
signature verification before its first post-leave grant.  This module
makes a planned departure cost ~zero re-derivations: the draining node
enumerates its warm state (proof-cache entries, MAC sessions, channel
bindings) into :class:`HandoffRecord` objects and hands them, as they
are, to the ring successors that will inherit each shard.  Nothing is
encoded or parsed: the cluster's nodes share one process and one loop.

The safety argument is the guard's, not ours: **a handed-off proof is
never a handed-off decision**.  Every record is re-admitted through the
receiving guard's import hooks, which re-validate against the receiver's
own premise snapshot, clock, and invalidation tombstones — and when the
cluster's invalidation generation moved between export and install, the
whole tree is re-verified.  State revoked, retracted, closed, or lapsed
in transit is refused at install, and the next check for it takes the
full Prover path.

This module deliberately speaks only the guard's export/import surface:
it never imports the prover or the cache types directly, so the
transport-boundary lint (ARCH002) holds for the handoff plane exactly as
it does for the serving plane.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster.membership import UP
from repro.cluster.ring import (
    GuardNode,
    principal_fingerprint,
    session_routing_key,
)
from repro.core.principals import MacPrincipal

#: Record kinds, in install order: channel bindings must be vouched
#: before the cached chains leaning on them re-validate their premises.
KINDS = ("channel", "session", "proof")

#: Install-order rank per kind (see KINDS).
_KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


def shard_key_for(speaker) -> bytes:
    """The ring key a speaker's warm state routes by — which must agree
    with how the speaker's *requests* route, or a handoff would warm the
    wrong successor.  MAC principals route by session id (as their
    requests do); everything else by principal fingerprint."""
    if isinstance(speaker, MacPrincipal):
        return session_routing_key(speaker.mac_id.digest.hex())
    return principal_fingerprint(speaker)


class HandoffRecord:
    """One unit of warm state, handed to the inheritor as an object.

    ``kind`` is one of :data:`KINDS`; ``generation`` is the cluster-wide
    invalidation generation at export time (the receiver compares it to
    its own and escalates to full re-verification on mismatch);
    ``payload`` is kind-shaped: a :class:`Proof` for ``proof``, a
    ``(mac_id, MacKey, minted_at)`` triple for ``session``, a
    :class:`SpeaksFor` binding for ``channel``.  ``proof`` records also
    carry the exporting bucket's speaker (a MAC session's cache bucket is
    keyed by the MAC principal, not the chain subject).
    """

    __slots__ = ("kind", "generation", "speaker", "payload")

    def __init__(self, kind: str, generation: int, payload, speaker=None):
        if kind not in KINDS:
            raise ValueError("unknown handoff record kind %r" % kind)
        self.kind = kind
        self.generation = generation
        self.speaker = speaker
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HandoffRecord(%s gen=%d)" % (self.kind, self.generation)


class DrainReport:
    """What one planned departure transferred, and how long it took."""

    __slots__ = (
        "node_id", "offered", "installed", "refused", "duplicates",
        "successors", "duration_ms",
    )

    def __init__(self, node_id: str, offered: int, installed: int,
                 refused: int, duplicates: int, successors: List[str],
                 duration_ms: float):
        self.node_id = node_id
        self.offered = offered
        self.installed = installed
        self.refused = refused
        self.duplicates = duplicates
        self.successors = successors
        self.duration_ms = duration_ms

    def as_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "offered": self.offered,
            "installed": self.installed,
            "refused": self.refused,
            "duplicates": self.duplicates,
            "successors": list(self.successors),
            "duration_ms": self.duration_ms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DrainReport(%s %d/%d in %.1fms)" % (
            self.node_id, self.installed, self.offered, self.duration_ms,
        )


class HandoffCoordinator:
    """The cluster's handoff plane: export, hand over, re-admit.

    Owned by :class:`~repro.cluster.dispatch.AuthCluster`; a drain
    enumerates warm state into :class:`HandoffRecord` objects and
    installs those same objects on the receivers through the guard
    import hooks.
    """

    #: Reports kept for the aggregate view (newest last).
    REPORT_LIMIT = 64

    def __init__(self, cluster):
        self.cluster = cluster
        self.metrics = cluster.metrics
        self.reports: List[DrainReport] = []
        self.stats = {
            "records_installed": 0,
            "records_refused_stale": 0,
            "drains": 0,
            "last_drain_ms": 0.0,
        }

    # -- export ----------------------------------------------------------

    def export_node(self, node: GuardNode) -> "OrderedDict[str, List[HandoffRecord]]":
        """Plan a drain: every warm record on ``node``, grouped by the
        ring successor that inherits its shard (install order: channels,
        then sessions, then proofs — bindings must be vouched before the
        chains leaning on them re-validate)."""
        generation = self.cluster.invalidation_generation
        plan: "OrderedDict[str, List[HandoffRecord]]" = OrderedDict()

        def assign(key: bytes, record: HandoffRecord) -> None:
            inheritor = self._inheritor(key, node.node_id)
            if inheritor is None:
                return
            plan.setdefault(inheritor, []).append(record)

        ring = self.cluster.membership.ring
        for fingerprint, premise in self.cluster.channel_bindings():
            if ring.node_for(fingerprint) != node.node_id:
                continue
            assign(
                fingerprint,
                HandoffRecord("channel", generation, premise),
            )
        for mac_id, mac_key, minted_at in node.guard.export_sessions():
            assign(
                session_routing_key(mac_id),
                HandoffRecord(
                    "session", generation, (mac_id, mac_key, minted_at)
                ),
            )
        for speaker, proof in node.guard.export_proof_entries():
            assign(
                shard_key_for(speaker),
                HandoffRecord("proof", generation, proof, speaker=speaker),
            )
        for records in plan.values():
            records.sort(key=lambda record: _KIND_RANK[record.kind])
        return plan

    def _inheritor(self, key: bytes, draining_id: str) -> Optional[str]:
        """Who inherits ``key`` once ``draining_id`` leaves: the first
        serving successor that is not the departing node.  (For state the
        node holds on someone else's shard — left from an older ring
        layout — that is simply the owner; the install dedups.)"""
        membership = self.cluster.membership
        ring = membership.ring
        for node_id in ring.successors(key, len(ring)):
            if node_id == draining_id:
                continue
            if membership.state_of(node_id) == UP:
                return node_id
        return None

    # -- install ----------------------------------------------------------

    def install(
        self, receiver: GuardNode, records: List[HandoffRecord]
    ) -> Tuple[int, int, int]:
        """Re-admit records on ``receiver`` through its guard's import
        hooks; returns ``(installed, refused, duplicates)``.  A record
        whose export generation differs from the cluster's current one
        is re-verified in full — the tombstones catch known-stale state,
        the generation escalation catches anything they aged out."""
        current = self.cluster.invalidation_generation
        installed = refused = duplicates = 0
        for record in records:
            full_verify = record.generation != current
            outcome = self._install_one(receiver, record, full_verify)
            if outcome == "installed":
                installed += 1
            elif outcome == "duplicate":
                duplicates += 1
            else:
                refused += 1
        self.stats["records_installed"] += installed
        self.stats["records_refused_stale"] += refused
        return installed, refused, duplicates

    @staticmethod
    def _install_one(
        receiver: GuardNode, record: HandoffRecord, full_verify: bool
    ) -> str:
        guard = receiver.guard
        if record.kind == "channel":
            return guard.import_channel(record.payload)
        if record.kind == "session":
            mac_id, mac_key, minted_at = record.payload
            return guard.import_session(mac_id, mac_key, minted_at)
        return guard.import_proof_entry(
            record.payload,
            speaker=record.speaker,
            full_verify=full_verify,
        )

    # -- the drain ------------------------------------------------------------

    def drain(self, node: GuardNode) -> DrainReport:
        """Transfer a draining node's warm state to the inheriting
        successors, shard by shard.  The node is still serving while this
        runs (membership holds it DRAINING); the caller finalizes with
        ``leave()`` once the report returns."""
        timebase = self.metrics.timebase
        started = timebase.now()
        plan = self.export_node(node)
        offered = sum(len(records) for records in plan.values())
        installed = refused = duplicates = 0
        for successor_id, records in plan.items():
            receiver = self.cluster.membership.get(successor_id)
            got, bad, dup = self.install(receiver, records)
            installed += got
            refused += bad
            duplicates += dup
        duration_ms = (timebase.now() - started) * 1000.0
        report = DrainReport(
            node.node_id, offered, installed, refused, duplicates,
            list(plan.keys()), duration_ms,
        )
        self.reports.append(report)
        del self.reports[:-self.REPORT_LIMIT]
        self.stats["drains"] += 1
        self.stats["last_drain_ms"] = duration_ms
        return report
