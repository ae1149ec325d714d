"""Proof search over the delegation graph.

"The Prover traverses the graph breadth first to find proofs of delegation
required by the application.  For example, if the Prover must prove that a
channel KCH speaks for a server S, it works backwards from the node S ...
A is final, meaning that the Prover can make statements as A; therefore,
Prover simply issues a delegation KCH => A to complete the proof."

The search here is *bidirectional*: a backward wave from the issuer (over
the incoming index) and a forward wave from the subject (over the outgoing
index) meet in the middle, the narrower frontier stepping first, so a cold
query over a chain of depth ``d`` composes its proof after roughly ``d``
expansions instead of exploring the full backward fan-out of every chain
node, and a query with no answer ends when either wave runs dry.  The
search is still deliberately *incomplete* — the paper cites Abadi et al.'s
result that general access control with conjunction and quoting is
exponential — but, as in the paper, applications collect delegations in the
course of naming, so chains are short and the shortcut cache keeps repeat
queries constant-time.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ProofError
from repro.core.principals import Principal, QuotingPrincipal
from repro.core.proofs import Proof
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.prover.closures import Closure
from repro.prover.graph import DelegationGraph
from repro.sexp import SExp, sexp
from repro.spki.certificate import Certificate
from repro.tags import Tag


def _chain(left: Proof, right: Proof) -> Optional[Proof]:
    """``left`` then ``right`` by transitivity, or ``None`` when their
    validity windows are disjoint: that chain holds at no time, so it is
    no search state and never a shortcut."""
    try:
        return TransitivityStep(left, right)
    except ProofError:
        return None


class _Wave:
    """One frontier of the bidirectional search, seeded with the identity
    half-proof (``None``) at its endpoint."""

    __slots__ = ("queue", "reached", "visits", "backward")

    def __init__(self, seed: Principal, backward: bool):
        self.queue = deque([(seed, None, 0)])
        # principal -> [(half proof, edge count)]; None proof = identity
        self.reached: Dict[Principal, List[Tuple[Optional[Proof], int]]] = {
            seed: [(None, 0)]
        }
        self.visits: Dict[Principal, int] = {seed: 1}
        self.backward = backward


class Prover:
    """Collects delegations, caches proofs, and constructs new delegations."""

    def __init__(
        self,
        max_depth: int = 16,
        max_visits: int = 4,
        max_shortcuts: int = 1024,
    ):
        self.graph = DelegationGraph(max_shortcuts=max_shortcuts)
        self._closures: Dict[Principal, Closure] = {}
        self.max_depth = max_depth
        self.max_visits = max_visits
        # Canonical-suffix memo for derived transitivity chains, keyed by
        # the digests of the remaining leaves (see _canonical_chain);
        # flushed whenever the graph's invalidation generation moves and
        # cleared on overflow past max_shortcuts.
        self._suffixes: Dict[Tuple[bytes, ...], Proof] = {}
        self._suffix_generation = 0
        # Search statistics, reported by the prover-scaling benchmark.
        self.stats = {
            "searches": 0,
            "nodes_expanded": 0,
            "shortcut_hits": 0,
            "shortcut_cache_size": 0,
            "shortcut_evictions": 0,
            "invalidations": 0,
            "invalidate_examined": 0,
            "generation": 0,
        }

    # -- collection -------------------------------------------------------

    def add_proof(self, proof: Proof, digest: bool = True) -> None:
        """Store a proof; digest multi-step proofs into component edges.

        "When the Prover receives a delegation that is actually a proof
        involving several steps, the Prover 'digests' the proof into its
        component parts for storage in the graph.  Whenever it receives or
        computes a derived proof composed of smaller components, the Prover
        adds a shortcut edge to the graph to represent the proof."
        """
        if not isinstance(proof.conclusion, SpeaksFor):
            raise ValueError("the graph stores speaks-for proofs")
        if digest:
            for lemma in proof.speaks_for_lemmas():
                self.graph.add(lemma, shortcut=bool(lemma.premises))
        else:
            # An undigested proof is *collected*, not derived: store it as
            # a permanent base edge.  (Marking it an evictable shortcut
            # would lose its conclusion entirely under cache pressure,
            # since its component leaves are not in the graph.)
            self.graph.add(proof)

    def add_certificate(self, certificate: Certificate) -> None:
        from repro.core.proofs import SignedCertificateStep

        self.add_proof(SignedCertificateStep(certificate))

    def export_shortcuts(self):
        """Snapshot the shortcut cache as a list of derived proofs.

        Shortcuts are the expensive part of a prover's warm state: base
        delegations are replicated cluster-wide, but the derived chains
        a node accumulated are local, and a successor inheriting its
        shards would re-search for every one.  A draining node exports
        them here; the receiver re-admits each through its guard's
        import hook (which re-validates — an exported shortcut is never
        an exported decision)."""
        return [
            edge.proof for edge in list(self.graph.edges()) if edge.shortcut
        ]

    def lemma(self, digest: bytes) -> Optional[Proof]:
        """Resolve a lemma citation: the stored proof with this digest,
        or None.  Receivers of ``(lemma <digest>)`` handoff stubs call
        this to substitute their own trusted copy of a shared premise
        for the subtree the sender elided."""
        edge = self.graph.find(digest)
        return edge.proof if edge is not None else None

    def replicated(self, proof: Proof) -> bool:
        """True when ``proof`` is a collected base delegation here.

        Base (non-shortcut) edges are the ones the dispatch layer
        replicates to every serving node, so a sender may cite them by
        digest instead of restating them — any serving peer can resolve
        the citation from its own graph.  Derived shortcuts are local
        state and must always travel in full."""
        edge = self.graph.find(proof.digest())
        return edge is not None and not edge.shortcut

    def control(self, closure: Closure) -> None:
        """Register a principal this application can speak as (it is final)."""
        self._closures[closure.principal] = closure

    def controls(self, principal: Principal) -> bool:
        return principal in self._closures

    def closure_for(self, principal: Principal) -> Optional[Closure]:
        return self._closures.get(principal)

    # -- invalidation ------------------------------------------------------

    def invalidate_proof(self, proof_or_key) -> int:
        """Retract one delegation (by proof or digest) and every cached
        shortcut derived from it; returns the number of edges removed.

        This is the invalidation-bus listener: a retraction broadcast
        names the delegation's digest, and digests are canonical, so the
        same event invalidates the same edge on every replica holding it.
        """
        removed = self.graph.remove(proof_or_key)
        self._sync_cache_stats()
        return removed

    def invalidate_serial(self, serial: bytes) -> int:
        """Retract every edge whose proof cites the certificate with
        ``serial`` (revocation event), cascading into derived shortcuts.
        Returns the number of edges removed."""
        dead = self.graph.citing_serial(serial)
        self.stats["invalidate_examined"] += len(dead)
        removed = 0
        for key in dead:
            removed += self.graph.remove(key)
        self._sync_cache_stats()
        return removed

    def invalidate_expired(self, now: float) -> int:
        """Retract every delegation whose validity lapsed at ``now``, along
        with any cached shortcut derived from one.  Returns the number of
        edges removed.

        This is the only destructive time operation: queries treat their
        ``now`` as a hypothetical (they skip expired edges but never delete
        them), so probing a future time cannot destroy still-valid state.
        Applications with a real clock call this on clock advance."""
        removed = self.graph.invalidate_expired(now)
        self._sync_cache_stats()
        return removed

    # -- search -----------------------------------------------------------

    def find_proof(
        self,
        subject: Principal,
        issuer: Principal,
        request: Optional[SExp] = None,
        min_tag: Optional[Tag] = None,
        now: Optional[float] = None,
    ) -> Optional[Proof]:
        """Find an existing proof that ``subject`` speaks for ``issuer``.

        Coverage is specified either by a concrete ``request`` (the found
        conclusion's tag must match it) or a ``min_tag`` (the challenge's
        minimum restriction set, which must provably lie inside the found
        tag), or both.
        """
        return self._search(
            subject, issuer, request, min_tag, now, use_closures=False
        )

    def prove(
        self,
        subject: Principal,
        issuer: Principal,
        request: Optional[SExp] = None,
        min_tag: Optional[Tag] = None,
        now: Optional[float] = None,
        delegation_validity: Validity = Validity.ALWAYS,
    ) -> Optional[Proof]:
        """Find a proof, completing it with a fresh delegation if needed.

        If the backward wave reaches a *final* principal (one we hold a
        closure for) before meeting the forward wave, the closure delegates
        the needed restricted authority to ``subject`` and the chain is
        completed, exactly as in Figure 2's narration.
        """
        found = self._search(
            subject,
            issuer,
            request,
            min_tag,
            now,
            use_closures=True,
            delegation_validity=delegation_validity,
        )
        if found is None and isinstance(subject, QuotingPrincipal):
            found = self._prove_quoting(
                subject, issuer, request, min_tag, now, delegation_validity
            )
        return found

    def _prove_quoting(
        self,
        subject: "QuotingPrincipal",
        issuer: Principal,
        request,
        min_tag: Optional[Tag],
        now: Optional[float],
        delegation_validity: Validity,
    ) -> Optional[Proof]:
        """Quoting fallback: to prove ``A|Q => issuer``, find some known
        ``X|Q => issuer`` and lift a proof of ``A => X`` through quoting
        monotonicity.  This covers the gateway pattern (the delegation is
        to ``G|C``; the request arrives as ``KCH|C``) without a general —
        and exponential — compound-principal search.
        """
        from repro.core.rules import QuotingLeftMonotonicityStep

        for principal in list(self.graph.principals()):
            if (
                not isinstance(principal, QuotingPrincipal)
                or principal.quotee != subject.quotee
                or principal == subject
            ):
                continue
            tail = self._search(
                principal, issuer, request, min_tag, now, use_closures=True,
                delegation_validity=delegation_validity,
            )
            if tail is None:
                continue
            quoter_proof = self._search(
                subject.quoter, principal.quoter, None, None, now,
                use_closures=True, delegation_validity=delegation_validity,
            )
            if quoter_proof is None:
                continue
            lifted = QuotingLeftMonotonicityStep(quoter_proof, subject.quotee)
            combined = _chain(lifted, tail)
            if combined is not None and self._covers(
                combined.conclusion,
                sexp(request) if request is not None else None,
                min_tag, now,
            ):
                return self._cache(combined)
        return None

    def _search(
        self,
        subject: Principal,
        issuer: Principal,
        request: Optional[SExp],
        min_tag: Optional[Tag],
        now: Optional[float],
        use_closures: bool,
        delegation_validity: Validity = Validity.ALWAYS,
    ) -> Optional[Proof]:
        if request is not None:
            request = sexp(request)
        self.stats["searches"] += 1
        needed_tag = self._needed_tag(request, min_tag)
        try:
            # Trivial case: we control the issuer itself.
            if use_closures and subject != issuer:
                closure = self._closures.get(issuer)
                if closure is not None:
                    minted = closure.delegate(
                        subject, needed_tag, delegation_validity
                    )
                    self.add_proof(minted)
                    if self._covers(minted.conclusion, request, min_tag, now):
                        return minted
            return self._bidirectional(
                subject,
                issuer,
                request,
                min_tag,
                now,
                use_closures,
                needed_tag,
                delegation_validity,
            )
        finally:
            self._sync_cache_stats()

    def _bidirectional(
        self,
        subject: Principal,
        issuer: Principal,
        request: Optional[SExp],
        min_tag: Optional[Tag],
        now: Optional[float],
        use_closures: bool,
        needed_tag: Tag,
        delegation_validity: Validity,
    ) -> Optional[Proof]:
        """Meet-in-the-middle BFS.

        The backward wave carries proofs of ``principal => issuer``; the
        forward wave carries proofs of ``subject => principal`` (``None``
        is the identity at each seed).  Whenever one wave generates a node
        the other wave has reached, the two half-proofs compose — provided
        the combined chain stays within ``max_depth`` edges, preserving the
        seed semantics of a single depth-bounded backward walk.

        Two rules make the cost follow the answer, not the graph:

        1. *Stop when a wave runs dry.*  An exhausted wave has generated
           every node within ``max_depth`` of its seed and tested each one
           against the other side at generation — the other seed included,
           since a seed is ``reached`` from the start — so each wave alone
           is a complete depth-bounded search and nothing is left for the
           other to find.  A speaker holding no delegation is refused
           after one expansion however much the server holds.  The one
           exception: while this prover holds closures, an exhausted
           *forward* wave leaves the backward wave running, because the
           backward wave can still mint at a final principal it has not
           popped yet.
        2. *Walk the cheaper frontier.*  Each step expands the wave whose
           head node has fewer edges to walk (ties go to the backward
           wave), so a session under an issuer with hundreds of direct
           delegates is proved in ``depth`` expansions from its own side,
           and a warm repeat query still meets its shortcut edge on the
           first expansion from whichever end is narrower.

        Neither rule can grant more: they end a fruitless search early or
        pick a different chain over the same edges, and the caller still
        ``verify()``s whatever comes back.
        """
        graph = self.graph
        backward = _Wave(issuer, backward=True)
        forward = _Wave(subject, backward=False)
        may_mint = use_closures and bool(self._closures)
        while backward.queue and (forward.queue or may_mint):
            wave, other = backward, forward
            if forward.queue and len(
                graph.outgoing(forward.queue[0][0])
            ) < len(graph.incoming(backward.queue[0][0])):
                wave, other = forward, backward
            found = self._expand_wave(
                wave,
                other,
                subject,
                request,
                min_tag,
                now,
                use_closures,
                needed_tag,
                delegation_validity,
            )
            if found is not None:
                return found
        return None

    def _expand_wave(
        self,
        wave: "_Wave",
        other: "_Wave",
        subject: Principal,
        request: Optional[SExp],
        min_tag: Optional[Tag],
        now: Optional[float],
        use_closures: bool,
        needed_tag: Tag,
        delegation_validity: Validity,
    ) -> Optional[Proof]:
        """Expand one node of one wave; return a complete proof on a meet.

        A backward half-proof concludes ``principal => issuer`` (an edge
        *prepends* to it); a forward half-proof concludes
        ``subject => principal`` (an edge *appends*).  On a meet the
        forward half always composes before the backward half.
        """
        graph = self.graph
        stats = self.stats
        principal, half, depth = wave.queue.popleft()
        stats["nodes_expanded"] += 1

        # A final principal on the backward wave: mint the last hop.
        if (
            wave.backward
            and half is not None
            and use_closures
            and principal in self._closures
        ):
            completed = self._complete(
                subject, principal, half, needed_tag, delegation_validity
            )
            if completed is not None and self._covers(
                completed.conclusion, request, min_tag, now
            ):
                return self._cache(completed)

        if depth >= self.max_depth:
            return None
        for edge in graph.iter_usable(
            principal, request, min_tag, now, incoming=wave.backward
        ):
            nxt = edge.subject if wave.backward else edge.issuer
            count = wave.visits.get(nxt, 0)
            if count >= self.max_visits:
                continue
            if half is None:
                combined = edge.proof
            elif wave.backward:
                combined = _chain(edge.proof, half)
            else:
                combined = _chain(half, edge.proof)
            if combined is None:
                continue
            wave.visits[nxt] = count + 1
            if edge.shortcut:
                stats["shortcut_hits"] += 1
                graph.touch(edge)
            child_depth = depth + 1
            # Goal test at generation: meet the other wave at `nxt`.  The
            # combined chain must stay within max_depth edges, preserving
            # the depth bound of a single backward walk.
            for other_half, other_depth in other.reached.get(nxt, ()):
                if other_depth + child_depth > self.max_depth:
                    continue
                if other_half is None:
                    full = combined
                elif wave.backward:
                    full = _chain(other_half, combined)
                else:
                    full = _chain(combined, other_half)
                if full is not None and self._covers(
                    full.conclusion, request, min_tag, now
                ):
                    return self._cache(full)
            wave.reached.setdefault(nxt, []).append((combined, child_depth))
            wave.queue.append((nxt, combined, child_depth))
        return None

    # -- helpers ------------------------------------------------------------

    def _sync_cache_stats(self) -> None:
        graph = self.graph
        stats = self.stats
        stats["shortcut_cache_size"] = graph.shortcut_count
        stats["shortcut_evictions"] = graph.evictions
        stats["invalidations"] = graph.invalidations
        stats["generation"] = graph.generation

    @staticmethod
    def _needed_tag(request: Optional[SExp], min_tag: Optional[Tag]) -> Tag:
        if min_tag is not None:
            return min_tag
        if request is not None:
            # "The minimum restriction set T = {m} contains the singleton
            # request made by the invoker."
            return Tag.exactly(request)
        return Tag.all()

    @staticmethod
    def _covers(
        conclusion: SpeaksFor,
        request: Optional[SExp],
        min_tag: Optional[Tag],
        now: Optional[float],
    ) -> bool:
        if now is not None and not conclusion.validity.contains(now):
            return False
        if request is not None and not conclusion.tag.matches(request):
            return False
        if min_tag is not None and not min_tag.implies(conclusion.tag):
            return False
        return True

    def _complete(
        self,
        subject: Principal,
        final_principal: Principal,
        proof_to_issuer: Proof,
        needed_tag: Tag,
        delegation_validity: Validity,
    ) -> Optional[Proof]:
        if subject == final_principal:
            return proof_to_issuer
        # Reuse an existing delegation before minting a fresh one (a
        # public-key signature): the cache exists to avoid exactly this.
        for edge in self.graph.incoming(final_principal):
            if edge.subject == subject and needed_tag.implies(edge.statement.tag):
                reused = _chain(edge.proof, proof_to_issuer)
                if reused is not None:
                    return reused
        closure = self._closures[final_principal]
        minted = closure.delegate(subject, needed_tag, delegation_validity)
        self.add_proof(minted)
        return _chain(minted, proof_to_issuer)

    def _canonical_chain(self, proof: Proof) -> Proof:
        """Right-fold a derived transitivity chain over its leaf sequence.

        The bidirectional search composes the same logical chain in
        whatever association its waves happened to meet at, so two
        sessions under one delegation spine end up with structurally
        different trees.  Canonicalizing to the right-nested form —
        ``(l0 (l1 (l2 l3)))`` — makes every chain over the same upper
        hops share the suffix subproof *object* (memoized per leaf-digest
        tuple), which is what lets the handoff plane stream a working
        set's shared spine once and cite it by digest in every later
        record.  Transitivity's conclusion is a pure intersection, hence
        association-independent; if an exotic tag implementation ever
        intersects unassociatively we fall back to the original tree.
        """
        if not isinstance(proof, TransitivityStep):
            return proof
        if self._suffix_generation != self.graph.generation:
            self._suffixes.clear()
            self._suffix_generation = self.graph.generation
        leaves: List[Proof] = []
        stack = [proof]
        while stack:
            node = stack.pop()
            if isinstance(node, TransitivityStep):
                stack.append(node.premises[0])
                stack.append(node.premises[1])
            else:
                leaves.append(node)
        leaves.reverse()
        digests = [leaf.digest() for leaf in leaves]
        chain = leaves[-1]
        for index in range(len(leaves) - 2, -1, -1):
            key = tuple(digests[index:])
            cached = self._suffixes.get(key)
            if cached is None:
                cached = TransitivityStep(leaves[index], chain)
                # Clear-on-overflow under the shortcut bound: the memo
                # only buys sharing, and must not keep an evicted
                # shortcut's proof reachable.
                if len(self._suffixes) >= self.graph.max_shortcuts:
                    self._suffixes.clear()
                self._suffixes[key] = cached
            chain = cached
        if chain.conclusion != proof.conclusion:
            return proof
        return chain

    def _cache(self, proof: Proof) -> Proof:
        """Record a derived proof as a shortcut edge (Figure 2's dotted
        lines), in canonical chain form (see :meth:`_canonical_chain`) so
        equivalent derivations share structure — and digests — across
        cache entries and drain streams."""
        proof = self._canonical_chain(proof)
        if proof.premises:
            self.graph.add(proof, shortcut=True)
        return proof
