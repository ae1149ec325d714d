"""The delegation graph: principals as nodes, proofs as edges.

Figure 2 of the paper: "Each node represents a principal, and each edge a
proof."  An edge from subject ``A`` to issuer ``B`` holds a proof that
``A =T=> B``.  Shortcut edges (the dotted lines of Figure 2) carry derived
multi-step proofs and "form a cache that eliminates most deep traversals."

The engine internals — dual issuer+subject indexing, tag-aware edge
buckets, the LRU-bounded shortcut cache, and invalidation generations —
are documented once, in the :mod:`repro.prover` package docstring.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.principals import Principal
from repro.core.proofs import CitationIndex, Proof, proof_citations
from repro.core.statements import SpeaksFor


def _tag_is_universal(tag) -> bool:
    """True when the tag is syntactically the universal set ``(tag (*))``."""
    from repro.tags.tag import TagStar

    return isinstance(tag.expr, TagStar)


class Edge:
    """One delegation edge: a proof of ``subject =tag=> issuer``."""

    __slots__ = ("proof", "shortcut", "key", "statement")

    def __init__(self, proof: Proof, shortcut: bool = False):
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            raise ValueError("graph edges must prove speaks-for statements")
        self.proof = proof
        self.shortcut = shortcut
        self.key = proof.digest()
        self.statement: SpeaksFor = conclusion

    @property
    def subject(self) -> Principal:
        return self.statement.subject

    @property
    def issuer(self) -> Principal:
        return self.statement.issuer

    def usable(self, request, min_tag, now: Optional[float]) -> bool:
        """May this edge appear in a chain meeting the requirement?

        A chain's tag is the intersection of its edges' tags, so any usable
        edge must individually cover the requirement; likewise for
        validity.  This prunes the walk without losing completeness
        relative to the final coverage check.
        """
        statement = self.statement
        if now is not None and not statement.validity.contains(now):
            return False
        if request is not None and not statement.tag.matches(request):
            return False
        if min_tag is not None and not min_tag.implies(statement.tag):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "~" if self.shortcut else "-"
        return "Edge[%s %s> %s]" % (
            self.subject.display(),
            marker,
            self.issuer.display(),
        )


class _Bucket:
    """Edges of one index entry, split by how cheaply they can be used."""

    __slots__ = ("shortcuts", "wildcard", "restricted")

    def __init__(self):
        self.shortcuts: List[Edge] = []
        self.wildcard: List[Edge] = []
        self.restricted: List[Edge] = []

    def insert(self, edge: Edge) -> None:
        if edge.shortcut:
            self.shortcuts.append(edge)
        elif _tag_is_universal(edge.statement.tag):
            self.wildcard.append(edge)
        else:
            self.restricted.append(edge)

    def discard(self, edge: Edge) -> None:
        for part in (self.shortcuts, self.wildcard, self.restricted):
            try:
                part.remove(edge)
                return
            except ValueError:
                continue

    def __len__(self) -> int:
        return len(self.shortcuts) + len(self.wildcard) + len(self.restricted)

    def parts(self):
        """Traversal order, the single source shared by views and the
        search: shortcuts first, newest first (the most recently derived
        proof is the likeliest prefix of the next query — "shortcuts ...
        eliminate most deep traversals", §4.4), then wildcard edges (whose
        universal tag needs no per-request check — the second element
        flags this), then restricted edges."""
        return (
            (reversed(self.shortcuts), False),
            (self.wildcard, True),
            (self.restricted, False),
        )

    def __iter__(self) -> Iterator[Edge]:
        for part, _ in self.parts():
            yield from part


class EdgeView(Sequence):
    """A read-only, allocation-free view of one index entry.

    Iteration order is the traversal order (shortcuts newest-first, then
    wildcard, then restricted edges).  The view resolves its bucket on
    every access, so it keeps tracking the live graph even across the
    principal's last edge being removed and re-added; callers that need a
    frozen copy can ``list()`` it.
    """

    __slots__ = ("_index", "_anchor")

    def __init__(self, index: Dict[Principal, _Bucket], anchor: Principal):
        self._index = index
        self._anchor = anchor

    def _bucket(self) -> Optional[_Bucket]:
        return self._index.get(self._anchor)

    def __len__(self) -> int:
        bucket = self._bucket()
        return 0 if bucket is None else len(bucket)

    def __iter__(self) -> Iterator[Edge]:
        bucket = self._bucket()
        if bucket is not None:
            yield from bucket

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        items = list(self)
        return items[index]


class DelegationGraph:
    """Dual-indexed adjacency with an LRU shortcut cache.

    ``max_shortcuts`` bounds only *derived* (shortcut) edges; collected
    delegations are never evicted.  ``generation`` increments whenever an
    edge is invalidated, so holders of derived state can cheaply detect
    that cached conclusions may have been retracted.
    """

    def __init__(self, max_shortcuts: int = 1024):
        self._incoming: Dict[Principal, _Bucket] = {}
        self._outgoing: Dict[Principal, _Bucket] = {}
        self._edges: Dict[bytes, Edge] = {}
        self._degree: Dict[Principal, int] = {}
        self._shortcut_lru: "OrderedDict[bytes, Edge]" = OrderedDict()
        # What an invalidation event looks up instead of walking every
        # edge: constituent-proof digest -> keys of the composite edges
        # built on it, and certificate serial -> keys of the edges whose
        # proofs cite it.  An edge is listed at ``add`` and unlisted only
        # in ``_unlink``, the one way an edge leaves the graph; both read
        # what to list it under off its proof (``_citations``).
        self._dependents = CitationIndex()
        self._citing_serial = CitationIndex()
        self.max_shortcuts = max_shortcuts
        self.generation = 0
        self.evictions = 0
        self.invalidations = 0
        self._shortcut_count = 0
        self._basic_count = 0
        self._bounded_count = 0  # edges with a finite not_after

    # -- insertion --------------------------------------------------------

    def add(self, proof: Proof, shortcut: bool = False) -> bool:
        """Insert an edge; returns False if an identical proof is present.

        Re-adding a derived shortcut as a collected delegation *promotes*
        it to a permanent base edge — collected delegations are never
        evicted, even when the search happened to derive them first.
        """
        key = proof.digest()
        existing = self._edges.get(key)
        if existing is not None:
            if existing.shortcut:
                if not shortcut:
                    self._promote(existing)
                else:
                    self._shortcut_lru.move_to_end(key)
            return False
        edge = Edge(proof, shortcut)
        self._edges[key] = edge
        self._incoming.setdefault(edge.issuer, _Bucket()).insert(edge)
        self._outgoing.setdefault(edge.subject, _Bucket()).insert(edge)
        for principal in (edge.issuer, edge.subject):
            self._degree[principal] = self._degree.get(principal, 0) + 1
        if edge.statement.validity.not_after is not None:
            self._bounded_count += 1
        # Leaves *and* interior lemmas, shortcut or not: removing any
        # constituent — another shortcut this proof embeds, a leaf of an
        # undigested composite stored as a base edge — cascades here.
        serials, constituents = self._citations(proof)
        for constituent in constituents:
            self._dependents.add(constituent, key)
        for serial in serials:
            self._citing_serial.add(serial, key)
        if shortcut:
            self._shortcut_count += 1
            self._shortcut_lru[key] = edge
            if self._shortcut_count > self.max_shortcuts:
                self._evict_one()
        else:
            self._basic_count += 1
        return True

    @staticmethod
    def _citations(
        proof: Proof,
    ) -> Tuple[Tuple[bytes, ...], Tuple[bytes, ...]]:
        """``(serials, constituents)``: what an edge over ``proof`` is
        listed under — the certificates it cites and every sub-lemma's
        digest but its own (which leads the walker's lemma digests).
        Derived from the proof at both ends of an edge's life rather
        than kept on every edge."""
        serials, digests, _ = proof_citations(proof)
        return serials, digests[1:]

    def _promote(self, edge: Edge) -> None:
        """Turn a derived shortcut into a permanent collected edge."""
        self._shortcut_lru.pop(edge.key, None)
        for index, anchor in (
            (self._incoming, edge.issuer),
            (self._outgoing, edge.subject),
        ):
            bucket = index.get(anchor)
            if bucket is not None:
                bucket.discard(edge)
        edge.shortcut = False
        self._shortcut_count -= 1
        self._basic_count += 1
        self._incoming[edge.issuer].insert(edge)
        self._outgoing[edge.subject].insert(edge)

    def touch(self, edge: Edge) -> None:
        """Refresh a shortcut's recency after a cache hit."""
        if edge.shortcut and edge.key in self._shortcut_lru:
            self._shortcut_lru.move_to_end(edge.key)

    # -- removal and invalidation -----------------------------------------

    def _unlink(self, edge: Edge) -> None:
        """Remove an edge from every index without cascading."""
        del self._edges[edge.key]
        for index, anchor in (
            (self._incoming, edge.issuer),
            (self._outgoing, edge.subject),
        ):
            bucket = index.get(anchor)
            if bucket is not None:
                bucket.discard(edge)
                if not len(bucket):
                    del index[anchor]
        for principal in (edge.issuer, edge.subject):
            remaining = self._degree.get(principal, 0) - 1
            if remaining <= 0:
                self._degree.pop(principal, None)
            else:
                self._degree[principal] = remaining
        if edge.statement.validity.not_after is not None:
            self._bounded_count -= 1
        if edge.shortcut:
            self._shortcut_count -= 1
            self._shortcut_lru.pop(edge.key, None)
        else:
            self._basic_count -= 1
        serials, constituents = self._citations(edge.proof)
        for constituent in constituents:
            self._dependents.discard(constituent, edge.key)
        for serial in serials:
            self._citing_serial.discard(serial, edge.key)

    def _evict_one(self) -> None:
        """Drop the least recently useful shortcut (cache pressure, not
        invalidation: the generation counter does not move)."""
        if not self._shortcut_lru:
            return
        edge = next(iter(self._shortcut_lru.values()))
        self._unlink(edge)
        self.evictions += 1

    def remove(self, proof_or_key, cascade: bool = True) -> int:
        """Invalidate an edge (and, by default, every shortcut derived from
        it).  Returns the number of edges removed."""
        key = proof_or_key if isinstance(proof_or_key, bytes) else proof_or_key.digest()
        edge = self._edges.get(key)
        if edge is None:
            return 0
        removed = self._invalidate(edge, cascade)
        if removed:
            self.generation += 1
        return removed

    def _invalidate(self, edge: Edge, cascade: bool = True) -> int:
        if edge.key not in self._edges:
            return 0
        dependents = self._dependents.holders(edge.key) if cascade else ()
        self._unlink(edge)
        self.invalidations += 1
        removed = 1
        for dependent_key in dependents:
            dependent = self._edges.get(dependent_key)
            if dependent is not None:
                removed += self._invalidate(dependent, cascade)
        return removed

    def invalidate_expired(self, now: float) -> int:
        """Remove every edge whose validity window has lapsed at ``now``,
        cascading into shortcuts derived from the removed delegations.

        Time-aware queries already skip expired edges; this sweep reclaims
        the space and guarantees that *time-oblivious* queries can no
        longer ride a cached shortcut whose underlying delegation died.
        """
        if not self._bounded_count:
            return 0
        dead = [
            edge
            for edge in self._edges.values()
            if edge.statement.validity.not_after is not None
            and now > edge.statement.validity.not_after
        ]
        removed = 0
        for edge in dead:
            removed += self._invalidate(edge)
        if removed:
            self.generation += 1
        return removed

    # -- queries ----------------------------------------------------------

    def incoming(self, issuer: Principal) -> EdgeView:
        """Edges proving that someone speaks for ``issuer`` (a cheap view)."""
        return EdgeView(self._incoming, issuer)

    def outgoing(self, subject: Principal) -> EdgeView:
        """Edges proving that ``subject`` speaks for someone (a cheap view)."""
        return EdgeView(self._outgoing, subject)

    def iter_usable(
        self,
        principal: Principal,
        request,
        min_tag,
        now: Optional[float],
        incoming: bool = True,
    ) -> Iterator[Edge]:
        """Usable edges of one index entry in traversal order.

        ``incoming=True`` walks edges into ``principal`` as an issuer (the
        backward wave); ``incoming=False`` walks edges out of it as a
        subject (the forward wave).  The wildcard bucket skips the
        per-edge tag test entirely — a universal tag matches any request
        and any minimum restriction set.
        """
        index = self._incoming if incoming else self._outgoing
        bucket = index.get(principal)
        if bucket is None:
            return
        for part, is_wildcard in bucket.parts():
            if is_wildcard:
                if now is None:
                    yield from part
                else:
                    for edge in part:
                        if edge.statement.validity.contains(now):
                            yield edge
            else:
                for edge in part:
                    if edge.usable(request, min_tag, now):
                        yield edge

    def principals(self) -> Iterator[Principal]:
        return iter(self._degree)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def citing_serial(self, serial: bytes) -> Tuple[bytes, ...]:
        """Keys of the edges whose proofs cite the certificate with
        ``serial``, oldest first (revocation lookups — see
        ``Prover.invalidate_serial``)."""
        return self._citing_serial.holders(serial)

    def find(self, digest: bytes) -> Optional[Edge]:
        """The edge whose proof has this digest, if present (lemma
        citation lookups — see ``Prover.lemma``)."""
        return self._edges.get(digest)

    def edge_count(self, include_shortcuts: bool = True) -> int:
        if include_shortcuts:
            return self._basic_count + self._shortcut_count
        return self._basic_count

    @property
    def shortcut_count(self) -> int:
        return self._shortcut_count

    @property
    def bounded_count(self) -> int:
        return self._bounded_count

    def __len__(self) -> int:
        return len(self._degree)

    def __contains__(self, proof_or_key) -> bool:
        key = proof_or_key if isinstance(proof_or_key, bytes) else proof_or_key.digest()
        return key in self._edges
