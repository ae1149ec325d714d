"""Consistent-hash sharding of authorization work across guard nodes.

The speaks-for model makes horizontal partitioning safe: every node
decides against the cluster's one premise set and one delegation graph,
so any node can verify any proof, and the ring is free to place a
speaker wherever its fingerprint lands — correctness never depends on
which node answers, only performance does.
Sharding by *speaker* (rather than by resource) keeps each speaker's
derived state — its proof-cache bucket — on exactly one node, so the
per-speaker caches behave exactly as they do in a single-guard
deployment.

The ring is the classic consistent-hash construction: each node projects
``vnodes`` points onto a 2^64 circle, and a key is owned by the first
node point clockwise from the key's hash.  Adding or removing one node
therefore moves only ~1/N of the keyspace — the "deterministic
rebalancing" the membership layer leans on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Tuple

from repro.guard import default_backend
from repro.guard.audit import AuditLog
from repro.guard.request import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.guard.sessions import SessionRegistry
from repro.net.trust import TrustEnvironment
from repro.prover import DelegationGraph, Prover
from repro.sexp import to_canonical


def principal_fingerprint(principal) -> bytes:
    """The sharding key of a principal: the SHA-256 of its canonical
    s-expression (stable across processes and restarts)."""
    return hashlib.sha256(to_canonical(principal.to_sexp())).digest()


def session_routing_key(mac_id: str) -> bytes:
    """The ring key of a MAC session id (used at mint and per request,
    so a session and its traffic agree on an owner)."""
    return hashlib.sha256(mac_id.encode("ascii")).digest()


def routing_key(request: GuardRequest) -> bytes:
    """The ring key of a request: derived from whoever utters it.

    - channel credentials route by the channel principal's fingerprint;
    - session credentials route by the MAC session id (so a session's
      every request — including the first, which carries the delegation
      chain — lands on the node holding its secret);
    - subject-bound proof credentials route by the expected subject;
    - anything else falls back to the request's own canonical bytes.
    """
    credential = request.credential
    if isinstance(credential, ChannelCredential):
        return principal_fingerprint(credential.speaker)
    if isinstance(credential, SessionCredential):
        return session_routing_key(credential.session_id)
    if isinstance(credential, ProofCredential):
        if credential.expected_subject is not None:
            return principal_fingerprint(credential.expected_subject)
    return hashlib.sha256(to_canonical(request.logical)).digest()


def _point(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping byte keys onto node ids."""

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("a node needs at least one ring point")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []  # sorted (point, node_id)
        # Lookup tables ``(point_keys, points)`` for bisect, rebuilt by
        # ``_reindex`` on every add/remove.
        self._index: Tuple[Tuple[int, ...], Tuple[Tuple[int, str], ...]] = (
            (), ()
        )
        self._node_ids: List[str] = []

    def _reindex(self) -> None:
        self._points.sort()
        points = tuple(self._points)
        self._index = (tuple(point for point, _ in points), points)

    def add(self, node_id: str) -> None:
        if node_id in self._node_ids:
            raise ValueError("node %r is already on the ring" % node_id)
        self._node_ids.append(node_id)
        for replica in range(self.vnodes):
            point = _point(("%s#%d" % (node_id, replica)).encode("ascii"))
            self._points.append((point, node_id))
        self._reindex()

    def remove(self, node_id: str) -> None:
        if node_id not in self._node_ids:
            raise ValueError("node %r is not on the ring" % node_id)
        self._node_ids.remove(node_id)
        self._points = [
            entry for entry in self._points if entry[1] != node_id
        ]
        self._reindex()

    def node_for(self, key: bytes) -> str:
        """The node owning ``key``: first ring point clockwise from the
        key's hash (wrapping at the top of the circle)."""
        point_keys, points = self._index
        if not points:
            raise LookupError("the ring has no nodes")
        index = bisect_right(point_keys, _point(key))
        if index == len(points):
            index = 0
        return points[index][1]

    def successors(self, key: bytes, count: int = 1) -> List[str]:
        """Up to ``count`` *distinct* node ids walking clockwise from the
        key's hash.  The first entry is the owner (``node_for``); the
        rest are, in order, the nodes that would inherit the key's shard
        if those before them left — where a drain hands warm state.
        Fewer than ``count`` nodes on the ring yields them all."""
        if count < 1:
            raise ValueError("successors needs a count of at least one")
        point_keys, points = self._index
        if not points:
            raise LookupError("the ring has no nodes")
        index = bisect_right(point_keys, _point(key))
        result: List[str] = []
        total = len(points)
        for step in range(total):
            node_id = points[(index + step) % total][1]
            if node_id not in result:
                result.append(node_id)
                if len(result) == count:
                    break
        return result

    def nodes(self) -> List[str]:
        return list(self._node_ids)

    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._node_ids


class GuardNode:
    """One cluster member: a proof-cache shard.  Its :class:`Guard`
    decides against the cluster's premise set, session table and
    delegation graph, and records into the cluster's audit log; the node
    holds only its shard's proof-cache buckets, and its prover's own
    search counters.

    A node serves real traffic, so its guard charges no cost model: the
    paper's modeled figures build their own guards.  The shared trust
    environment carries the cluster clock, so certificate validity and
    session TTLs agree across nodes.
    """

    def __init__(
        self,
        node_id: str,
        trust: TrustEnvironment,
        sessions: SessionRegistry,
        graph: DelegationGraph,
        audit: AuditLog,
        metrics=None,
        tracer=None,
    ):
        self.node_id = node_id
        self.prover = Prover(graph=graph)
        # Even the cluster's own nodes go through the shared factory:
        # nothing in the tree constructs the default backend any other way.
        self.guard = default_backend(
            trust,
            prover=self.prover,
            sessions=sessions,
            audit=audit,
            metrics=metrics,
            tracer=tracer,
        )

    def apply_event(self, event) -> int:
        """Bus delivery: apply a remote invalidation to local caches."""
        return self.guard.apply_invalidation(event.kind, event.payload)

    def stats(self) -> Dict[str, object]:
        """The counters the ``stats`` CLI and benchmarks aggregate."""
        return {
            "guard": dict(self.guard.stats),
            "cache": dict(self.guard.cache.stats),
            "prover": dict(self.prover.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GuardNode(%s)" % self.node_id
