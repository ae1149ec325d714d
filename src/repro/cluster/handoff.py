"""Warm shard handoff: planned departures without re-derivation storms.

A cold ``leave()`` is *correct* — every grant is re-derivable from first
principles, so successors re-prove on first miss — but it is not
*free*: each inherited speaker pays a full Prover search plus real
signature verification before its first post-leave grant.  A drain
makes a planned departure cost ~zero re-derivations: the draining
node's cached chains are handed, as objects, to the guard import hook of
the ring successors that inherit each shard.  Nothing is encoded or
parsed: the cluster's nodes share one process and one loop.  Nothing
else moves, because nothing else is the node's own: channel bindings
and MAC sessions live once, in the cluster, and a ring change moves
work, never authority.

The invariant: **a drain hands over only state that has seen every
published invalidation.**  ``AuthCluster.drain`` runs one bus round
before the hand-over, so the draining node has applied every
revocation, retraction and channel close any node published and holds
nothing they reached.  The drain is one synchronous call on the
cluster's loop, so nothing is published between that round and the last
import.  The import hook still re-validates each chain against the
receiver's own tombstones, clock and premise snapshot: *a handed-off
proof is never a handed-off decision*.

This module deliberately speaks only the guard's export/import surface:
it never imports the prover or the cache types directly, so the
transport-boundary lint (ARCH002) holds for the handoff plane exactly as
it does for the serving plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.membership import UP
from repro.cluster.ring import (
    GuardNode,
    principal_fingerprint,
    session_routing_key,
)
from repro.core.principals import MacPrincipal


def shard_key_for(speaker) -> bytes:
    """The ring key a speaker's warm state routes by — which must agree
    with how the speaker's *requests* route, or a handoff would warm the
    wrong successor.  MAC principals route by session id (as their
    requests do); everything else by principal fingerprint."""
    if isinstance(speaker, MacPrincipal):
        return session_routing_key(speaker.mac_id.digest.hex())
    return principal_fingerprint(speaker)


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
    """The cluster's handoff plane: a draining node's cached chains, in
    one pass, into the inheritors' guard import hook — and its tallies.
    Owned by :class:`~repro.cluster.dispatch.AuthCluster`, whose
    ``drain`` runs the bus round before and the leave after."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.stats = {
            "records_installed": 0,
            "records_refused_stale": 0,
            "drains": 0,
            "last_drain_ms": 0.0,
        }

    def drain(self, node: GuardNode) -> DrainReport:
        """Hand ``node``'s cached chains to the successors inheriting
        each shard."""
        timebase = self.cluster.metrics.timebase
        started = timebase.now()
        outcomes = {"installed": 0, "refused": 0, "duplicate": 0}
        successors: List[str] = []
        for speaker, proof in node.guard.export_proof_entries():
            heir = self._inheritor(shard_key_for(speaker), node.node_id)
            if heir is None:
                continue
            if heir not in successors:
                successors.append(heir)
            guard = self.cluster.membership.get(heir).guard
            outcomes[guard.import_proof_entry(proof, speaker=speaker)] += 1

        duration_ms = (timebase.now() - started) * 1000.0
        self.stats["records_installed"] += outcomes["installed"]
        self.stats["records_refused_stale"] += outcomes["refused"]
        self.stats["drains"] += 1
        self.stats["last_drain_ms"] = duration_ms
        return DrainReport(
            node.node_id, sum(outcomes.values()), outcomes["installed"],
            outcomes["refused"], outcomes["duplicate"], successors,
            duration_ms,
        )

    def _inheritor(self, key: bytes, draining_id: str) -> Optional[str]:
        """Who inherits ``key`` once ``draining_id`` leaves: the first
        serving successor that is not the departing node.  (For state the
        node holds on someone else's shard — left from an older ring
        layout — that is simply the owner; the import dedups.)"""
        membership = self.cluster.membership
        ring = membership.ring
        for node_id in ring.successors(key, len(ring)):
            if node_id == draining_id:
                continue
            if membership.state_of(node_id) == UP:
                return node_id
        return None
