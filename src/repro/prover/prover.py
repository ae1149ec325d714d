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
course of naming, so chains are short.  A found chain is not stored back
into the graph: the guard caches it per speaker, so a served repeat never
reaches the search.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ProofError
from repro.core.principals import Principal, QuotingPrincipal
from repro.core.proofs import Proof
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.obs.registry import default_registry
from repro.prover.closures import Closure
from repro.prover.graph import DelegationGraph
from repro.sexp import SExp, sexp
from repro.spki.certificate import Certificate
from repro.tags import Tag


def _chain(left: Proof, right: Proof) -> Optional[Proof]:
    """``left`` then ``right`` by transitivity, or ``None`` when their
    validity windows are disjoint: that chain holds at no time, so it is
    no search state and never an answer."""
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
    """Collects delegations, finds proofs, and constructs new delegations."""

    def __init__(
        self,
        max_depth: int = 16,
        max_visits: int = 4,
        graph: Optional[DelegationGraph] = None,
    ):
        # A prover searches ``graph`` (which other provers may share)
        # or a graph of its own.
        self.graph = graph if graph is not None else DelegationGraph()
        self._closures: Dict[Principal, Closure] = {}
        self.max_depth = max_depth
        self.max_visits = max_visits
        # This prover's own work counts here (a guard points it at its
        # own registry); what the graph holds is counted on the graph.
        self.metrics = default_registry()

    # -- collection -------------------------------------------------------

    def add_proof(self, proof: Proof) -> None:
        """Store a collected proof, digested into component edges (see
        :meth:`DelegationGraph.digest`)."""
        self.graph.digest(proof)

    def add_certificate(self, certificate: Certificate) -> None:
        from repro.core.proofs import SignedCertificateStep

        self.add_proof(SignedCertificateStep(certificate))

    def control(self, closure: Closure) -> None:
        """Register a principal this application can speak as (it is final)."""
        self._closures[closure.principal] = closure

    def controls(self, principal: Principal) -> bool:
        return principal in self._closures

    def closure_for(self, principal: Principal) -> Optional[Closure]:
        return self._closures.get(principal)

    # -- invalidation ------------------------------------------------------

    def invalidate_proof(self, proof_or_key) -> int:
        """Retract one delegation (by proof or digest) and every edge
        embedding it; returns the number of edges removed.

        A retraction names the delegation's digest, and digests are
        canonical, so the same event names the same edge wherever it is
        applied; applied again to a graph that already lost the edge, it
        removes nothing.
        """
        return self.graph.remove(proof_or_key)

    def invalidate_serial(self, serial: bytes) -> int:
        """Retract every edge whose proof cites the certificate with
        ``serial`` (revocation event), cascading into the composites
        built on them.  Returns the number of edges removed."""
        dead = self.graph.citing_serial(serial)
        self.metrics.inc("prover.invalidate_examined", len(dead))
        removed = 0
        for key in dead:
            removed += self.graph.remove(key)
        return removed

    def invalidate_expired(self, now: float) -> int:
        """Retract every delegation whose validity lapsed at ``now``, along
        with every composite built on one.  Returns the number of edges
        removed.

        This is the only destructive time operation: queries treat their
        ``now`` as a hypothetical (they skip expired edges but never delete
        them), so probing a future time cannot destroy still-valid state.
        Applications with a real clock call this on clock advance."""
        return self.graph.invalidate_expired(now)

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
                return combined
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
        self.metrics.inc("prover.searches")
        needed_tag = self._needed_tag(request, min_tag)
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
           delegates is proved in ``depth`` expansions from its own side.

        Neither rule can grant more: they end a fruitless search early or
        pick a different chain over the same edges, and the caller still
        ``verify()``s whatever comes back.
        """
        graph = self.graph
        backward = _Wave(issuer, backward=True)
        forward = _Wave(subject, backward=False)
        may_mint = use_closures and bool(self._closures)
        found = None
        expanded = 0
        while found is None and backward.queue and (forward.queue or may_mint):
            wave, other = backward, forward
            if forward.queue and len(
                graph.outgoing(forward.queue[0][0])
            ) < len(graph.incoming(backward.queue[0][0])):
                wave, other = forward, backward
            expanded += 1
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
        self.metrics.inc("prover.nodes_expanded", expanded)
        return found

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
        principal, half, depth = wave.queue.popleft()

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
                return completed

        if depth >= self.max_depth:
            return None
        for edge in self.graph.iter_usable(
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
                    return full
            wave.reached.setdefault(nxt, []).append((combined, child_depth))
            wave.queue.append((nxt, combined, child_depth))
        return None

    # -- helpers ------------------------------------------------------------

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
