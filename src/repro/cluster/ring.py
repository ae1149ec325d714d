"""The consistent-hash ring: which node owns a speaker.

A cluster decides every check with its one guard, so the ring no longer
places work; it places *ownership*.  Requests shard by speaker — a
session by its id, a channel or subject-bound proof by the principal's
fingerprint — and the owner is asked first on every call: a crashed
owner raises the retryable ``NodeUnavailableError``, and a node that
leaves, fails or crashes takes the proof-cache buckets of the speakers
it owned with it (:func:`shard_key_for` names a bucket's owner).

The ring is the classic consistent-hash construction: each node projects
``vnodes`` points onto a 2^64 circle, and a key is owned by the first
node point clockwise from the key's hash.  Adding or removing one node
therefore moves only ~1/N of the keyspace — the "deterministic
rebalancing" the membership layer leans on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import List, Tuple

from repro.core.principals import MacPrincipal
from repro.guard.request import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.sexp import to_canonical


def principal_fingerprint(principal) -> bytes:
    """The sharding key of a principal: the SHA-256 of its canonical
    s-expression (stable across processes and restarts)."""
    return hashlib.sha256(to_canonical(principal.to_sexp())).digest()


def session_routing_key(mac_id: str) -> bytes:
    """The ring key of a MAC session id (used at mint and per request,
    so a session and its traffic agree on an owner).  UTF-8, so any id a
    client sends routes — an id no session has is then refused alone —
    and an ASCII id keeps the key it always had."""
    return hashlib.sha256(mac_id.encode("utf-8")).digest()


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


def shard_key_for(speaker) -> bytes:
    """The ring key of a proof-cache bucket's speaker, which agrees with
    how the speaker's *requests* route: MAC principals route by session
    id, everything else by principal fingerprint."""
    if isinstance(speaker, MacPrincipal):
        return session_routing_key(speaker.mac_id.digest.hex())
    return principal_fingerprint(speaker)


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

    def nodes(self) -> List[str]:
        return list(self._node_ids)

    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._node_ids


class GuardNode:
    """One cluster member: a ring member with an id.  In one process a
    node holds nothing of its own: the cluster's one guard decides every
    check, and the node's ring points say whose proof-cache buckets a
    departure of it forgets."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: str):
        self.node_id = node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GuardNode(%s)" % self.node_id
