"""Inference rules of the logic, each as a self-verifying proof step.

Every step recomputes its own derivation in ``_check``, so a tampered
conclusion (or a reshuffled tree) fails verification.  The rule set follows
the paper and its companion semantics: transitivity and restriction
weakening for speaks-for chains; monotonicity of names, quoting, and
conjunction; hash identity (Figure 1's ``HKC => KC``); and the says
derivation that turns a channel's utterance plus a speaks-for proof into
the resource issuer's own statement.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import ProofError, VerificationError
from repro.core.principals import (
    ConjunctPrincipal,
    HashPrincipal,
    NamePrincipal,
    Principal,
    QuotingPrincipal,
    principal_from_sexp,
)
from repro.core.proofs import Proof, VerificationContext, register_rule
from repro.core.statements import Says, SpeaksFor, Validity
from repro.crypto.hashes import HashValue
from repro.sexp import Atom, SExp, SList
from repro.tags import Tag


def _speaks_for(proof: Proof, role: str) -> SpeaksFor:
    conclusion = proof.conclusion
    if not isinstance(conclusion, SpeaksFor):
        raise ProofError("%s premise must conclude a speaks-for" % role)
    return conclusion


def _joint_validity(first: Validity, second: Validity, error) -> Validity:
    """When two composed statements both hold.  Disjoint windows mean
    the composition holds at no time: the step is refused with
    ``error`` — there is no window to conclude it with."""
    try:
        return first.intersect(second)
    except ValueError:
        raise error("validity windows are disjoint: the step holds at no time")


@register_rule
class TransitivityStep(Proof):
    """``A =T1=> B`` and ``B =T2=> C`` yield ``A =T1∩T2=> C``.

    Restrictions intersect, so authority can only narrow along a chain;
    validity windows intersect the same way.
    """

    rule = "transitivity"

    def __init__(self, left: Proof, right: Proof):
        first = _speaks_for(left, "left")
        second = _speaks_for(right, "right")
        if first.issuer != second.subject:
            raise ProofError(
                "chain mismatch: %s does not connect to %s"
                % (first.display(), second.display())
            )
        conclusion = SpeaksFor(
            first.subject,
            second.issuer,
            first.tag.intersect(second.tag),
            _joint_validity(first.validity, second.validity, ProofError),
        )
        super().__init__(conclusion, (left, right))

    def _check(self, context: VerificationContext) -> None:
        first = _speaks_for(self.premises[0], "left")
        second = _speaks_for(self.premises[1], "right")
        if first.issuer != second.subject:
            raise VerificationError("transitivity chain does not connect")
        expected = SpeaksFor(
            first.subject,
            second.issuer,
            first.tag.intersect(second.tag),
            _joint_validity(first.validity, second.validity, VerificationError),
        )
        if expected != self.conclusion:
            raise VerificationError("transitivity conclusion was altered")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 2 or payload:
            raise ProofError("transitivity takes exactly two premises")
        return cls(premises[0], premises[1])


@register_rule
class ReflexivityStep(Proof):
    """``A =(*)=> A`` for any principal A (an axiom)."""

    rule = "reflexivity"

    def __init__(self, principal: Principal):
        super().__init__(SpeaksFor(principal, principal, Tag.all()))

    def _check(self, context: VerificationContext) -> None:
        conclusion = _speaks_for(self, "self")
        if conclusion.subject != conclusion.issuer:
            raise VerificationError("reflexivity relates a principal to itself")
        if conclusion.tag != Tag.all() or not conclusion.validity.is_unbounded():
            raise VerificationError("reflexivity is unrestricted and unexpiring")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if premises or payload:
            raise ProofError("reflexivity is an axiom")
        if not isinstance(conclusion, SpeaksFor):
            raise ProofError("reflexivity concludes a speaks-for")
        return cls(conclusion.subject)


@register_rule
class RestrictionWeakeningStep(Proof):
    """From ``A =T=> B``, conclude ``A =T'=> B`` for any provable T' ⊆ T.

    Also permits narrowing the validity window.  This is how a broad
    delegation is quoted down to the "minimum restriction set" a server
    challenge demands.
    """

    rule = "weakening"

    def __init__(self, premise: Proof, tag: Tag, validity: Optional[Validity] = None):
        base = _speaks_for(premise, "weakening")
        if validity is None:
            validity = base.validity
        if not tag.implies(base.tag):
            raise ProofError(
                "weakened tag %s is not within %s"
                % (tag.to_sexp().to_advanced(), base.tag.to_sexp().to_advanced())
            )
        if not _window_within(validity, base.validity):
            raise ProofError("weakened validity extends beyond the original")
        super().__init__(
            SpeaksFor(base.subject, base.issuer, tag, validity), (premise,)
        )

    def _check(self, context: VerificationContext) -> None:
        base = _speaks_for(self.premises[0], "weakening")
        conclusion = _speaks_for(self, "self")
        if conclusion.subject != base.subject or conclusion.issuer != base.issuer:
            raise VerificationError("weakening changed the principals")
        if not conclusion.tag.implies(base.tag):
            raise VerificationError("weakening widened the restriction")
        if not _window_within(conclusion.validity, base.validity):
            raise VerificationError("weakening widened the validity window")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 1 or payload:
            raise ProofError("weakening takes exactly one premise")
        if not isinstance(conclusion, SpeaksFor):
            raise ProofError("weakening concludes a speaks-for")
        return cls(premises[0], conclusion.tag, conclusion.validity)


def _window_within(inner: Validity, outer: Validity) -> bool:
    if outer.not_before is not None:
        if inner.not_before is None or inner.not_before < outer.not_before:
            return False
    if outer.not_after is not None:
        if inner.not_after is None or inner.not_after > outer.not_after:
            return False
    return True


@register_rule
class NameMonotonicityStep(Proof):
    """From ``A =T=> B``, conclude ``A·N =T=> B·N`` (Figure 1's rule)."""

    rule = "name-monotonicity"

    def __init__(self, premise: Proof, label: str):
        base = _speaks_for(premise, "naming")
        self.label = label
        super().__init__(
            SpeaksFor(
                NamePrincipal(base.subject, label),
                NamePrincipal(base.issuer, label),
                base.tag,
                base.validity,
            ),
            (premise,),
        )

    def _check(self, context: VerificationContext) -> None:
        base = _speaks_for(self.premises[0], "naming")
        conclusion = _speaks_for(self, "self")
        expected = SpeaksFor(
            NamePrincipal(base.subject, self.label),
            NamePrincipal(base.issuer, self.label),
            base.tag,
            base.validity,
        )
        if expected != conclusion:
            raise VerificationError("name-monotonicity conclusion was altered")

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return [Atom(self.label)]

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 1 or len(payload) != 1 or not isinstance(payload[0], Atom):
            raise ProofError("name-monotonicity takes one premise and a label")
        return cls(premises[0], payload[0].text())


@register_rule
class QuotingLeftMonotonicityStep(Proof):
    """From ``A =T=> B``, conclude ``A|C =T=> B|C``.

    The gateway path: the server's channel from the gateway (``CH``)
    speaks for the gateway (``G``); therefore ``CH|Alice`` speaks for
    ``G|Alice``, connecting the channel's quoted request to the delegation
    Alice granted to ``G|Alice``.
    """

    rule = "quoting-left"

    def __init__(self, premise: Proof, quotee: Principal):
        base = _speaks_for(premise, "quoting")
        self.quotee = quotee
        super().__init__(
            SpeaksFor(
                QuotingPrincipal(base.subject, quotee),
                QuotingPrincipal(base.issuer, quotee),
                base.tag,
                base.validity,
            ),
            (premise,),
        )

    def _check(self, context: VerificationContext) -> None:
        base = _speaks_for(self.premises[0], "quoting")
        conclusion = _speaks_for(self, "self")
        expected = SpeaksFor(
            QuotingPrincipal(base.subject, self.quotee),
            QuotingPrincipal(base.issuer, self.quotee),
            base.tag,
            base.validity,
        )
        if expected != conclusion:
            raise VerificationError("quoting-left conclusion was altered")

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return [self.quotee.to_sexp()]

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 1 or len(payload) != 1:
            raise ProofError("quoting-left takes one premise and a quotee")
        return cls(premises[0], principal_from_sexp(payload[0]))


@register_rule
class QuotingRightMonotonicityStep(Proof):
    """From ``A =T=> B``, conclude ``C|A =T=> C|B``."""

    rule = "quoting-right"

    def __init__(self, premise: Proof, quoter: Principal):
        base = _speaks_for(premise, "quoting")
        self.quoter = quoter
        super().__init__(
            SpeaksFor(
                QuotingPrincipal(quoter, base.subject),
                QuotingPrincipal(quoter, base.issuer),
                base.tag,
                base.validity,
            ),
            (premise,),
        )

    def _check(self, context: VerificationContext) -> None:
        base = _speaks_for(self.premises[0], "quoting")
        conclusion = _speaks_for(self, "self")
        expected = SpeaksFor(
            QuotingPrincipal(self.quoter, base.subject),
            QuotingPrincipal(self.quoter, base.issuer),
            base.tag,
            base.validity,
        )
        if expected != conclusion:
            raise VerificationError("quoting-right conclusion was altered")

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return [self.quoter.to_sexp()]

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 1 or len(payload) != 1:
            raise ProofError("quoting-right takes one premise and a quoter")
        return cls(premises[0], principal_from_sexp(payload[0]))


@register_rule
class QuotingCollapseStep(Proof):
    """``A|A =(*)=> A``: a principal quoting itself is itself."""

    rule = "quoting-collapse"

    def __init__(self, principal: Principal):
        super().__init__(
            SpeaksFor(QuotingPrincipal(principal, principal), principal, Tag.all())
        )

    def _check(self, context: VerificationContext) -> None:
        conclusion = _speaks_for(self, "self")
        subject = conclusion.subject
        if (
            not isinstance(subject, QuotingPrincipal)
            or subject.quoter != conclusion.issuer
            or subject.quotee != conclusion.issuer
        ):
            raise VerificationError("quoting-collapse relates A|A to A")
        if conclusion.tag != Tag.all() or not conclusion.validity.is_unbounded():
            raise VerificationError("quoting-collapse is unrestricted")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if premises or payload:
            raise ProofError("quoting-collapse is an axiom")
        if not isinstance(conclusion, SpeaksFor):
            raise ProofError("quoting-collapse concludes a speaks-for")
        return cls(conclusion.issuer)


@register_rule
class ConjunctionIntroStep(Proof):
    """From ``R =T1=> A`` and ``R =T2=> B``, conclude ``R =T1∩T2=> A∧B``.

    The disk-block configuration of Section 2.3: a request authorized by
    both Alice and the file-system-quoting-Alice speaks for the conjunction
    the sysadmin delegated the blocks to.
    """

    rule = "conjunction-intro"

    def __init__(self, left: Proof, right: Proof):
        first = _speaks_for(left, "left")
        second = _speaks_for(right, "right")
        if first.subject != second.subject:
            raise ProofError("conjunction-intro premises must share a subject")
        conclusion = SpeaksFor(
            first.subject,
            ConjunctPrincipal.of(first.issuer, second.issuer),
            first.tag.intersect(second.tag),
            _joint_validity(first.validity, second.validity, ProofError),
        )
        super().__init__(conclusion, (left, right))

    def _check(self, context: VerificationContext) -> None:
        first = _speaks_for(self.premises[0], "left")
        second = _speaks_for(self.premises[1], "right")
        if first.subject != second.subject:
            raise VerificationError("conjunction-intro premises diverge")
        expected = SpeaksFor(
            first.subject,
            ConjunctPrincipal.of(first.issuer, second.issuer),
            first.tag.intersect(second.tag),
            _joint_validity(first.validity, second.validity, VerificationError),
        )
        if expected != self.conclusion:
            raise VerificationError("conjunction-intro conclusion was altered")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 2 or payload:
            raise ProofError("conjunction-intro takes exactly two premises")
        return cls(premises[0], premises[1])


@register_rule
class ConjunctionProjectionStep(Proof):
    """``A∧B =(*)=> A`` for each member: joint speech is each member's speech."""

    rule = "conjunction-projection"

    def __init__(self, conjunct: ConjunctPrincipal, member: Principal):
        if not isinstance(conjunct, ConjunctPrincipal):
            raise ProofError("projection needs a conjunction subject")
        if member not in conjunct.members:
            raise ProofError("projection target is not a member")
        self.member = member
        super().__init__(SpeaksFor(conjunct, member, Tag.all()))

    def _check(self, context: VerificationContext) -> None:
        conclusion = _speaks_for(self, "self")
        subject = conclusion.subject
        if (
            not isinstance(subject, ConjunctPrincipal)
            or conclusion.issuer not in subject.members
        ):
            raise VerificationError("projection issuer must be a conjunct member")
        if conclusion.tag != Tag.all() or not conclusion.validity.is_unbounded():
            raise VerificationError("projection is unrestricted")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if premises or payload:
            raise ProofError("conjunction-projection is an axiom")
        if not isinstance(conclusion, SpeaksFor):
            raise ProofError("projection concludes a speaks-for")
        if not isinstance(conclusion.subject, ConjunctPrincipal):
            raise ProofError("projection subject must be a conjunction")
        return cls(conclusion.subject, conclusion.issuer)


@register_rule
class ThresholdIntroStep(Proof):
    """A quorum speaks for the threshold: from ``R =Ti=> member_i`` for k
    distinct members, conclude ``R =∩Ti=> Threshold(k, members)``.

    Sound because the threshold says a statement when ≥ k members say it:
    if R says s within every Ti, each quorum member says s, which meets
    the threshold.
    """

    rule = "threshold-intro"

    def __init__(self, premises: List[Proof], threshold: "ThresholdPrincipal"):
        from repro.core.principals import ThresholdPrincipal

        if not isinstance(threshold, ThresholdPrincipal):
            raise ProofError("threshold-intro needs a ThresholdPrincipal")
        if len(premises) != threshold.k:
            raise ProofError(
                "need exactly k=%d member premises, got %d"
                % (threshold.k, len(premises))
            )
        conclusions = [_speaks_for(p, "member") for p in premises]
        subjects = {c.subject for c in conclusions}
        if len(subjects) != 1:
            raise ProofError("threshold-intro premises must share a subject")
        issuers = [c.issuer for c in conclusions]
        if len(set(issuers)) != len(issuers):
            raise ProofError("quorum members must be distinct")
        if not set(issuers) <= threshold.members:
            raise ProofError("quorum includes a non-member")
        self.threshold = threshold
        subject = conclusions[0].subject
        tag = conclusions[0].tag
        validity = conclusions[0].validity
        for conclusion in conclusions[1:]:
            tag = tag.intersect(conclusion.tag)
            validity = _joint_validity(
                validity, conclusion.validity, ProofError
            )
        super().__init__(
            SpeaksFor(subject, threshold, tag, validity), tuple(premises)
        )

    def _check(self, context: VerificationContext) -> None:
        from repro.core.principals import ThresholdPrincipal

        conclusions = [_speaks_for(p, "member") for p in self.premises]
        subjects = {c.subject for c in conclusions}
        issuers = [c.issuer for c in conclusions]
        conclusion = _speaks_for(self, "self")
        threshold = conclusion.issuer
        if not isinstance(threshold, ThresholdPrincipal):
            raise VerificationError("threshold-intro concludes to a threshold")
        if len(subjects) != 1 or next(iter(subjects)) != conclusion.subject:
            raise VerificationError("threshold-intro premises diverge")
        if len(self.premises) != threshold.k:
            raise VerificationError("quorum size is not k")
        if len(set(issuers)) != len(issuers) or not set(issuers) <= threshold.members:
            raise VerificationError("quorum is not k distinct members")
        tag = conclusions[0].tag
        validity = conclusions[0].validity
        for later in conclusions[1:]:
            tag = tag.intersect(later.tag)
            validity = _joint_validity(
                validity, later.validity, VerificationError
            )
        expected = SpeaksFor(conclusion.subject, threshold, tag, validity)
        if expected != conclusion:
            raise VerificationError("threshold-intro conclusion was altered")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if not premises or payload:
            raise ProofError("threshold-intro takes member premises only")
        if not isinstance(conclusion, SpeaksFor):
            raise ProofError("threshold-intro concludes a speaks-for")
        from repro.core.principals import ThresholdPrincipal

        if not isinstance(conclusion.issuer, ThresholdPrincipal):
            raise ProofError("threshold-intro issuer must be a threshold")
        return cls(list(premises), conclusion.issuer)


@register_rule
class HashIdentityStep(Proof):
    """A hash and its preimage are the same principal (Figure 1's
    ``hash identity`` leaf: ``HKC => KC``).

    ``reverse=False`` concludes ``H(P) =(*)=> P``; ``reverse=True``
    concludes ``P =(*)=> H(P)``.  Verification recomputes the digest from
    the carried preimage, so the step cannot relate a hash to anything but
    its actual preimage.
    """

    rule = "hash-identity"

    def __init__(self, preimage: SExp, reverse: bool = False, algorithm: str = "md5"):
        self.preimage = preimage
        self.reverse = reverse
        self.algorithm = algorithm
        principal = principal_from_sexp(preimage)
        hashed = HashPrincipal(HashValue.of_sexp(preimage, algorithm))
        if reverse:
            conclusion = SpeaksFor(principal, hashed, Tag.all())
        else:
            conclusion = SpeaksFor(hashed, principal, Tag.all())
        super().__init__(conclusion)

    def _check(self, context: VerificationContext) -> None:
        principal = principal_from_sexp(self.preimage)
        hashed = HashPrincipal(HashValue.of_sexp(self.preimage, self.algorithm))
        if self.reverse:
            expected = SpeaksFor(principal, hashed, Tag.all())
        else:
            expected = SpeaksFor(hashed, principal, Tag.all())
        if expected != self.conclusion:
            raise VerificationError("hash-identity conclusion was altered")

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return [
            self.preimage,
            Atom("reverse" if self.reverse else "forward"),
            Atom(self.algorithm),
        ]

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(payload) != 3 or premises:
            raise ProofError("hash-identity carries preimage, direction, algorithm")
        direction = payload[1]
        algorithm = payload[2]
        if not isinstance(direction, Atom) or not isinstance(algorithm, Atom):
            raise ProofError("bad hash-identity payload")
        return cls(payload[0], direction.text() == "reverse", algorithm.text())


@register_rule
class DerivedSaysStep(Proof):
    """From ``B says r`` and ``B =T=> A`` with ``r ∈ T``, conclude ``A says r``.

    This is the server's final inference: the channel uttered the request,
    the proof connects the channel to the resource issuer, therefore the
    issuer itself (logically) makes the request — authorized.  Validity is
    checked against the context clock here, because *using* a delegation is
    the time-sensitive act.
    """

    rule = "derived-says"

    def __init__(self, says_proof: Proof, speaks_for_proof: Proof):
        utterance = says_proof.conclusion
        if not isinstance(utterance, Says):
            raise ProofError("first premise must conclude a says")
        delegation = _speaks_for(speaks_for_proof, "second")
        if delegation.subject != utterance.speaker:
            raise ProofError("speaks-for subject must be the utterer")
        if not delegation.tag.matches(utterance.request):
            raise ProofError("request is outside the delegated restriction set")
        super().__init__(
            Says(delegation.issuer, utterance.request),
            (says_proof, speaks_for_proof),
        )

    def _check(self, context: VerificationContext) -> None:
        utterance = self.premises[0].conclusion
        delegation = _speaks_for(self.premises[1], "second")
        if not isinstance(utterance, Says):
            raise VerificationError("derived-says needs a says premise")
        if delegation.subject != utterance.speaker:
            raise VerificationError("derived-says premises do not connect")
        if not delegation.tag.matches(utterance.request):
            raise VerificationError("request escapes the restriction set")
        if not delegation.validity.contains(context.now):
            raise VerificationError("delegation expired or not yet valid")
        # The conclusion must be ``issuer says request``.  Compared part
        # by part, by value (equality tests identity first), rather than
        # by building that ``Says`` and encoding both: canonical form is
        # injective, so equal parts are equal encodings.
        conclusion = self.conclusion
        if not (
            isinstance(conclusion, Says)
            and conclusion.speaker == delegation.issuer
            and (conclusion.request is utterance.request
                 or conclusion.request == utterance.request)
        ):
            raise VerificationError("derived-says conclusion was altered")

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(premises) != 2 or payload:
            raise ProofError("derived-says takes exactly two premises")
        return cls(premises[0], premises[1])
