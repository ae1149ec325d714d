"""A merged, time-ordered audit view over a cluster's per-node logs.

Each :class:`~repro.cluster.ring.GuardNode` keeps its own
:class:`~repro.guard.audit.AuditLog` — disjoint trails that are useless
for answering "what did the cluster grant, in order?".  This view merges
them on the shared cluster clock (every node stamps records with the
same injected :class:`~repro.sim.clock.SimClock`, so cross-node
timestamps are comparable), preserving each node's local append order on
ties.  Left and failed nodes stay in the merge: a node's shards move on,
its history does not.

**Bound.**  Every node's log is a ring of its last ``retain`` records
(:data:`~repro.guard.audit.AUDIT_RETAIN` when the cluster was built
without ``audit_retain``), so one merge touches at most *known nodes* ×
*ring size* records however long the cluster has served; the view then
yields the ``retain`` *most recent* of them.  Each call re-merges —
nothing is cached, because nothing tells the view a node has granted —
and ``len()`` adds the rings' lengths without merging.  The surface
mirrors :class:`~repro.guard.audit.AuditLog` (``records``,
``involving``, ``by_transport``, ``len``) so application code written
against a single guard's log reads a cluster's unchanged.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.guard.audit import AuditRecord


class ClusterAuditView:
    """Read-only merged log over the membership table's nodes."""

    def __init__(self, membership, retain: Optional[int] = None):
        if retain is not None and retain < 0:
            raise ValueError("retention cap cannot be negative")
        self.membership = membership
        self.retain = retain

    def _merged(self) -> List[AuditRecord]:
        # Eager keyed lists, not generator expressions: the loop
        # variables must be bound per stream, and each node's log is
        # snapshotted at call time.
        streams = [
            [
                (record.when, order, index, record)
                for index, record in enumerate(node.guard.audit.records)
            ]
            for order, node in enumerate(self.membership.known())
        ]
        # Per-node logs are append-ordered on the shared clock, so each
        # stream is sorted and an N-way heap merge is enough; the
        # (join-order, local-index) tiebreak keeps the merge stable and
        # never compares AuditRecord objects themselves.
        merged = [entry[3] for entry in heapq.merge(*streams)]
        if self.retain is not None and len(merged) > self.retain:
            merged = merged[len(merged) - self.retain:]
        return merged

    @property
    def records(self) -> List[AuditRecord]:
        return self._merged()

    def __len__(self) -> int:
        total = sum(
            len(node.guard.audit) for node in self.membership.known()
        )
        return total if self.retain is None else min(total, self.retain)

    @property
    def recorded(self) -> int:
        """Grants the cluster ever recorded, on any known node."""
        return sum(
            node.guard.audit.recorded for node in self.membership.known()
        )

    @property
    def evicted(self) -> int:
        """Recorded grants this view no longer yields: aged out of a
        node's ring, or beyond the view's own ``retain``."""
        return self.recorded - len(self)

    def record(self, record: AuditRecord) -> None:
        raise TypeError(
            "the merged view is read-only; grants land on their node's log"
        )

    def involving(self, principal) -> List[AuditRecord]:
        return [
            record
            for record in self._merged()
            if principal in record.involved_principals()
        ]

    def by_transport(self, transport: str) -> List[AuditRecord]:
        return [
            record
            for record in self._merged()
            if record.transport == transport
        ]

    def render(self) -> str:
        """The merged trail as text, one ``AuditRecord.render`` block per
        grant — what ``repro.tools audit --merge`` prints."""
        return "\n".join(record.render() for record in self._merged())
