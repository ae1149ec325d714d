"""Cluster membership: who is on the ring, and what happens when that
changes.

Membership is explicit, as the cluster-computing literature prescribes:
nodes *join* (and take their ring points), *leave* gracefully, or are
declared *failed* — either by the operator or by the heartbeat sweep.
All timing runs on an injected :class:`~repro.sim.clock.SimClock`; the
wall clock never appears, so failure detection is deterministic in tests
and benchmarks.

Rebalancing is a property of the consistent-hash ring, not a procedure:
removing a node's points reassigns exactly its shards to the surviving
successors, and no state is copied at failure time.  Nothing a node
loses is authority: channel premises and MAC sessions live once, in the
cluster, and every node decides against them.  What a failed node's
shards lose is derived state — cached proofs — which re-derives lazily
on first miss from the cluster's one delegation graph.

*Planned* departures get a warmer deal, but no state of their own: a
drain is one synchronous call on the cluster's loop that hands the
node's cached proofs to the inheriting successors
(:mod:`repro.cluster.handoff`) and then calls ``leave()``, so the event
log shows it as its one ``leave``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.ring import GuardNode, HashRing
from repro.core.errors import NodeUnavailableError
from repro.sim.clock import SimClock

#: Node lifecycle states.
UP = "up"
LEFT = "left"
FAILED = "failed"
#: Died without a leave: still holds its ring points until the next
#: sweep, so lookups that land on it raise ``NodeUnavailableError``.
CRASHED = "crashed"


class MembershipEvent:
    """One membership transition, stamped with the cluster clock."""

    __slots__ = ("when", "action", "node_id")

    def __init__(self, when: float, action: str, node_id: str):
        self.when = when
        self.action = action  # "join" | "leave" | "fail" | "crash"
        self.node_id = node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MembershipEvent(%.3f %s %s)" % (
            self.when, self.action, self.node_id,
        )


class ClusterMembership:
    """The node table, the ring, and the failure detector.

    ``heartbeat_timeout`` is the liveness bound: a node whose last
    heartbeat is older than this (on the injected clock) is declared
    failed by :meth:`sweep` and its shards reassign to the survivors.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        ring: Optional[HashRing] = None,
        heartbeat_timeout: float = 30.0,
    ):
        self.clock = clock if clock is not None else SimClock()
        self.ring = ring if ring is not None else HashRing()
        self.heartbeat_timeout = heartbeat_timeout
        self._nodes: Dict[str, GuardNode] = {}
        self._state: Dict[str, str] = {}
        self._last_heartbeat: Dict[str, float] = {}
        self.events: List[MembershipEvent] = []
        # Every transition is in ``events``; ``stats`` tallies only the
        # failures (either detector) and the heartbeats.
        self.stats = {"failures": 0, "heartbeats": 0}

    # -- transitions -------------------------------------------------------

    def join(self, node: GuardNode) -> None:
        """Admit a node: it takes its ring points and starts heartbeating.
        A previously left or failed id may rejoin (fresh caches)."""
        if self._state.get(node.node_id) == UP:
            raise ValueError("node %r is already up" % node.node_id)
        self.ring.add(node.node_id)
        self._nodes[node.node_id] = node
        self._state[node.node_id] = UP
        self._last_heartbeat[node.node_id] = self.clock.now()
        self._record("join", node.node_id)

    def leave(self, node_id: str) -> GuardNode:
        """Graceful departure: the node's shards reassign deterministically
        to the ring successors; its state is returned to the caller.

        After a drain this flips each shard to an owner already holding
        the node's warm state (see :mod:`repro.cluster.handoff`).  A plain
        leave is the cold path — successors re-derive proofs on first
        miss."""
        node = self._checked_serving(node_id)
        self.ring.remove(node_id)
        self._state[node_id] = LEFT
        self._record("leave", node_id)
        return node

    def fail(self, node_id: str) -> GuardNode:
        """Declare a node dead.  Identical ring effect to a leave — the
        difference is bookkeeping (and that nothing could be handed over:
        the dead node's cached proofs re-derive on first miss)."""
        node = self._checked_serving(node_id)
        self.ring.remove(node_id)
        self._state[node_id] = FAILED
        self._record("fail", node_id)
        self.stats["failures"] += 1
        return node

    def crash(self, node_id: str) -> GuardNode:
        """Model a node dying *without* telling anyone: no leave, no
        handover — and, crucially, no ring update.  Its ring points stay
        where they are until :meth:`sweep` notices, so a lookup that
        lands on the corpse raises :class:`NodeUnavailableError` (the
        retryable condition the serving layer maps to its wire-level
        RETRY code).  This is the mid-connection failure a graceful
        :meth:`fail` cannot represent, because ``fail`` repairs the ring
        in the same breath."""
        node = self._checked_serving(node_id)
        self._state[node_id] = CRASHED
        self._record("crash", node_id)
        return node

    def _checked_serving(self, node_id: str) -> GuardNode:
        if self._state.get(node_id) != UP:
            raise ValueError("node %r is not up" % node_id)
        return self._nodes[node_id]

    def _record(self, action: str, node_id: str) -> None:
        self.events.append(
            MembershipEvent(self.clock.now(), action, node_id)
        )

    # -- failure detection -------------------------------------------------

    def heartbeat(self, node_id: str) -> None:
        self._checked_serving(node_id)
        self._last_heartbeat[node_id] = self.clock.now()
        self.stats["heartbeats"] += 1

    def sweep(self) -> List[str]:
        """Fail every up node whose heartbeat lapsed — and finalize every
        crashed node, whose heartbeat is by definition never coming:
        their lingering ring points are removed so their shards reassign
        to the survivors.  Returns the ids declared failed."""
        now = self.clock.now()
        lapsed = [
            node_id
            for node_id, state in self._state.items()
            if state == UP
            and now - self._last_heartbeat[node_id] > self.heartbeat_timeout
        ]
        for node_id in lapsed:
            self.fail(node_id)
        crashed = [
            node_id
            for node_id, state in self._state.items()
            if state == CRASHED
        ]
        for node_id in crashed:
            self.ring.remove(node_id)
            self._state[node_id] = FAILED
            self._record("fail", node_id)
            self.stats["failures"] += 1
        return lapsed + crashed

    # -- lookups -----------------------------------------------------------

    def node_for(self, key: bytes) -> GuardNode:
        """The live owner of ``key`` (ring lookup + dereference).

        Raises :class:`NodeUnavailableError` when the ring still points
        at a crashed node — the caller should trigger (or wait for) a
        sweep and retry, which is exactly what the serving layer's RETRY
        code tells a wire client to do.  A *planned* departure withdraws
        the ring points in the same step that flips the state, so a
        lookup never finds a cleanly-left node on the ring."""
        node_id = self.ring.node_for(key)
        if self._state.get(node_id) != UP:
            raise NodeUnavailableError(node_id)
        return self._nodes[node_id]

    def known(self) -> List[GuardNode]:
        """Every node ever admitted, in join order — including the left
        and the failed, whose audit trails must outlive their shards."""
        return list(self._nodes.values())

    def get(self, node_id: str) -> Optional[GuardNode]:
        return self._nodes.get(node_id)

    def state_of(self, node_id: str) -> Optional[str]:
        return self._state.get(node_id)

    def alive(self) -> List[GuardNode]:
        """The serving (UP) nodes."""
        return [
            self._nodes[node_id]
            for node_id, state in self._state.items()
            if state == UP
        ]
