"""The cross-node invalidation bus.

Sharding creates the one hazard the single-guard design never had:
derived state — a proof-cache entry — can outlive its justification *on
a different node* than the one that learned the justification died.
What the cluster holds once (premises, delegation edges) dies for every
node as the publishing node applies the event; the bus closes the gap
for the caches: a node that retracts a delegation, closes a channel, or
learns a revocation publishes an event, and one delivery round later
every other node has dropped its dependent cache entries.

Semantics, deliberately minimal and deterministic:

- **origin-excluded broadcast** — the publisher already applied the
  invalidation locally (the guard's hooks fire *after* local
  retraction), so delivery skips it; every other subscriber receives
  every event;
- **round-based delivery** — ``deliver()`` drains the events pending at
  the start of the round; events published during delivery wait for the
  next round.  Tests and simulations call it explicitly; a deployment
  would pump it from its event loop;
- **idempotent appliers** — events carry digests, premises, and serials,
  and the guard-side appliers are no-ops for state a node never held, so
  redelivery (or delivery racing a local retraction) is harmless.

Events are not acknowledged and the bus keeps no history: a node that
joins after a retraction never sees the event, which is safe because it
joins with an empty cache and the cluster's graph, which already lost
the retracted state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The event kinds the guard pipeline emits and consumes.
KINDS = ("delegation_retracted", "channel_closed", "serial_revoked")


class InvalidationEvent:
    """One broadcast invalidation: what died, and in which way.

    ``payload`` is kind-specific: a proof digest for retractions, the
    :class:`~repro.core.statements.SpeaksFor` premise for channel closes,
    a certificate serial for revocations.
    """

    __slots__ = ("kind", "payload", "origin")

    def __init__(self, kind: str, payload, origin: Optional[str] = None):
        if kind not in KINDS:
            raise ValueError("unknown invalidation kind %r" % kind)
        self.kind = kind
        self.payload = payload
        self.origin = origin  # node_id of the publisher, or None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "InvalidationEvent(%s from %s)" % (self.kind, self.origin)


class InvalidationBus:
    """A deterministic, round-delivered broadcast bus for guard nodes."""

    def __init__(self):
        self._subscribers: Dict[str, object] = {}  # node_id -> GuardNode
        self._pending: List[InvalidationEvent] = []
        self.stats = {"delivered": 0, "dropped_entries": 0}
        for kind in KINDS:
            self.stats["published_" + kind] = 0

    def subscribe(self, node) -> None:
        self._subscribers[node.node_id] = node

    def unsubscribe(self, node_id: str) -> None:
        self._subscribers.pop(node_id, None)

    def publish(self, kind: str, payload, origin: Optional[str] = None) -> None:
        """Queue an event for the next delivery round."""
        self._pending.append(InvalidationEvent(kind, payload, origin))
        self.stats["published_" + kind] += 1

    def pending(self) -> int:
        return len(self._pending)

    def deliver(self) -> int:
        """Run one delivery round; returns the number of deliveries made.

        Every event pending at the start of the round reaches every
        subscriber except its origin.  Entries dropped by the appliers
        accumulate in ``stats["dropped_entries"]`` — the cluster-wide
        count of stale state the round purged.
        """
        batch, self._pending = self._pending, []
        deliveries = 0
        for event in batch:
            for node_id, node in self._subscribers.items():
                if node_id == event.origin:
                    continue
                self.stats["dropped_entries"] += node.apply_event(event)
                deliveries += 1
        self.stats["delivered"] += deliveries
        return deliveries
