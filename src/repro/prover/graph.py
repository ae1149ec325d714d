"""The delegation graph: principals as nodes, proofs as edges.

Figure 2 of the paper: "Each node represents a principal, and each edge a
proof."  An edge from subject ``A`` to issuer ``B`` holds a proof that
``A =T=> B``.  Every edge is a collected delegation (or a lemma of one).
Figure 2's dotted edges, derived chains, are not kept here: a derived
chain is cached once, per speaker, in the guard's proof cache.

The engine internals — dual issuer+subject indexing, tag-aware edge
buckets, and the invalidation cascade — are documented once, in the
:mod:`repro.prover` package docstring.
"""

from __future__ import annotations

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

    __slots__ = ("proof", "key", "statement")

    def __init__(self, proof: Proof):
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            raise ValueError("graph edges must prove speaks-for statements")
        self.proof = proof
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
        return "Edge[%s -> %s]" % (
            self.subject.display(),
            self.issuer.display(),
        )


class _Bucket:
    """Edges of one index entry, split by how cheaply they can be used."""

    __slots__ = ("wildcard", "restricted")

    def __init__(self):
        self.wildcard: List[Edge] = []
        self.restricted: List[Edge] = []

    def insert(self, edge: Edge) -> None:
        if _tag_is_universal(edge.statement.tag):
            self.wildcard.append(edge)
        else:
            self.restricted.append(edge)

    def discard(self, edge: Edge) -> None:
        if _tag_is_universal(edge.statement.tag):
            self.wildcard.remove(edge)
        else:
            self.restricted.remove(edge)

    def __len__(self) -> int:
        return len(self.wildcard) + len(self.restricted)

    def parts(self):
        """Traversal order, the single source shared by views and the
        search: wildcard edges (whose universal tag needs no per-request
        check — the second element flags this), then restricted edges."""
        return ((self.wildcard, True), (self.restricted, False))

    def __iter__(self) -> Iterator[Edge]:
        for part, _ in self.parts():
            yield from part


class EdgeView(Sequence):
    """A read-only, allocation-free view of one index entry.

    Iteration order is the traversal order (wildcard, then restricted
    edges).  The view resolves its bucket on every access, so it keeps
    tracking the live graph even across the principal's last edge being
    removed and re-added; callers that need a frozen copy can ``list()``
    it.
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
    """Dual-indexed adjacency over collected delegations.

    An edge stays until it is invalidated; nothing is evicted.
    ``generation`` increments whenever an invalidation removes an edge.
    """

    def __init__(self):
        self._incoming: Dict[Principal, _Bucket] = {}
        self._outgoing: Dict[Principal, _Bucket] = {}
        self._edges: Dict[bytes, Edge] = {}
        self._degree: Dict[Principal, int] = {}
        # What an invalidation event looks up instead of walking every
        # edge: constituent-proof digest -> keys of the composite edges
        # built on it, and certificate serial -> keys of the edges whose
        # proofs cite it.  An edge is listed at ``add`` and unlisted only
        # in ``_unlink``, the one way an edge leaves the graph; both read
        # what to list it under off its proof (``_citations``).
        self._dependents = CitationIndex()
        self._citing_serial = CitationIndex()
        self.generation = 0
        self.invalidations = 0
        self._bounded_count = 0  # edges with a finite not_after

    # -- insertion --------------------------------------------------------

    def add(self, proof: Proof) -> bool:
        """Insert an edge; returns False if an identical proof is present."""
        key = proof.digest()
        if key in self._edges:
            return False
        edge = Edge(proof)
        self._edges[key] = edge
        self._incoming.setdefault(edge.issuer, _Bucket()).insert(edge)
        self._outgoing.setdefault(edge.subject, _Bucket()).insert(edge)
        for principal in (edge.issuer, edge.subject):
            self._degree[principal] = self._degree.get(principal, 0) + 1
        if edge.statement.validity.not_after is not None:
            self._bounded_count += 1
        # Leaves *and* interior lemmas: removing any constituent — a leaf
        # of a digested composite, or of an undigested one — cascades here.
        serials, constituents = self._citations(proof)
        for constituent in constituents:
            self._dependents.add(constituent, key)
        for serial in serials:
            self._citing_serial.add(serial, key)
        return True

    def digest(self, proof: Proof) -> None:
        """Store a collected proof, digested into its component edges.

        "When the Prover receives a delegation that is actually a proof
        involving several steps, the Prover 'digests' the proof into its
        component parts for storage in the graph."  Every speaks-for lemma
        becomes an edge, the composite ones included, and stays until an
        invalidation removes it (removing a leaf takes the composites
        built on it).  A chain the search *derives* is never stored: the
        guard caches it per speaker.
        """
        if not isinstance(proof.conclusion, SpeaksFor):
            raise ValueError("the graph stores speaks-for proofs")
        for lemma in proof.speaks_for_lemmas():
            self.add(lemma)

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
        serials, constituents = self._citations(edge.proof)
        for constituent in constituents:
            self._dependents.discard(constituent, edge.key)
        for serial in serials:
            self._citing_serial.discard(serial, edge.key)

    def remove(self, proof_or_key, cascade: bool = True) -> int:
        """Invalidate an edge (and, by default, every edge whose proof
        embeds it).  Returns the number of edges removed."""
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
        cascading into the composite edges built on them.

        Time-aware queries already skip expired edges; this sweep reclaims
        the space and guarantees that *time-oblivious* queries can no
        longer ride a delegation that died.
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

    def edge_count(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._degree)

    def __contains__(self, proof_or_key) -> bool:
        key = proof_or_key if isinstance(proof_or_key, bytes) else proof_or_key.digest()
        return key in self._edges
