"""Unit tests for every inference rule."""

import pytest

from repro.core.errors import ProofError, VerificationError
from repro.core.principals import (
    ConjunctPrincipal,
    HashPrincipal,
    KeyPrincipal,
    NamePrincipal,
    QuotingPrincipal,
)
from repro.core.proofs import (
    PremiseStep,
    SignedCertificateStep,
    VerificationContext,
    proof_from_sexp,
)
from repro.core.rules import (
    ConjunctionIntroStep,
    ConjunctionProjectionStep,
    DerivedSaysStep,
    HashIdentityStep,
    NameMonotonicityStep,
    QuotingCollapseStep,
    QuotingLeftMonotonicityStep,
    QuotingRightMonotonicityStep,
    ReflexivityStep,
    RestrictionWeakeningStep,
    TransitivityStep,
)
from repro.core.statements import Says, SpeaksFor, Validity
from repro.sexp import parse_canonical, to_canonical
from repro.spki.certificate import Certificate
from repro.tags import Tag, parse_tag


@pytest.fixture()
def A(alice_kp):
    return KeyPrincipal(alice_kp.public)


@pytest.fixture()
def B(bob_kp):
    return KeyPrincipal(bob_kp.public)


@pytest.fixture()
def C(carol_kp):
    return KeyPrincipal(carol_kp.public)


def premise(subject, issuer, tag=None, validity=Validity.ALWAYS):
    return PremiseStep(
        SpeaksFor(subject, issuer, tag or Tag.all(), validity)
    )


def trusting_context(*steps, now=0.0):
    return VerificationContext(
        now=now, trusted_premises=[step.conclusion for step in steps]
    )


class TestTransitivity:
    def test_composes_and_intersects_tags(self, A, B, C):
        left = premise(C, B, parse_tag("(tag (web (method GET)))"))
        right = premise(B, A, parse_tag("(tag (web))"))
        chain = TransitivityStep(left, right)
        conclusion = chain.conclusion
        assert conclusion.subject == C and conclusion.issuer == A
        assert conclusion.tag.matches(["web", ["method", "GET"]])
        assert not conclusion.tag.matches(["ftp"])
        chain.verify(trusting_context(left, right))

    def test_intersects_validity(self, A, B, C):
        left = premise(C, B, validity=Validity(0, 100))
        right = premise(B, A, validity=Validity(50, 200))
        chain = TransitivityStep(left, right)
        assert chain.conclusion.validity == Validity(50, 100)

    def test_rejects_disconnected_chain(self, A, B, C):
        with pytest.raises(ProofError):
            TransitivityStep(premise(C, B), premise(C, A))

    def test_restriction_never_widens(self, A, B, C):
        left = premise(C, B, parse_tag("(tag read)"))
        right = premise(B, A, parse_tag("(tag write)"))
        chain = TransitivityStep(left, right)
        assert chain.conclusion.tag.is_empty()


class TestReflexivity:
    def test_holds_for_any_principal(self, A):
        step = ReflexivityStep(A)
        step.verify(VerificationContext())
        assert step.conclusion.subject == step.conclusion.issuer == A

    def test_roundtrip(self, A):
        step = ReflexivityStep(A)
        restored = proof_from_sexp(parse_canonical(to_canonical(step.to_sexp())))
        restored.verify(VerificationContext())


class TestWeakening:
    def test_narrows_tag(self, A, B):
        broad = premise(B, A, parse_tag("(tag (web))"))
        narrow = RestrictionWeakeningStep(
            broad, parse_tag("(tag (web (method GET)))")
        )
        narrow.verify(trusting_context(broad))
        assert not narrow.conclusion.tag.matches(["web", ["method", "POST"]])

    def test_rejects_widening(self, A, B):
        narrow = premise(B, A, parse_tag("(tag (web (method GET)))"))
        with pytest.raises(ProofError):
            RestrictionWeakeningStep(narrow, Tag.all())

    def test_narrows_validity(self, A, B):
        broad = premise(B, A, validity=Validity(0, 100))
        narrow = RestrictionWeakeningStep(
            broad, Tag.all(), Validity(10, 20)
        )
        narrow.verify(trusting_context(broad))

    def test_rejects_validity_extension(self, A, B):
        bounded = premise(B, A, validity=Validity(0, 100))
        with pytest.raises(ProofError):
            RestrictionWeakeningStep(bounded, Tag.all(), Validity(0, 200))


class TestNameMonotonicity:
    def test_lifts_names(self, A, B):
        base = premise(B, A)
        lifted = NameMonotonicityStep(base, "inbox")
        assert lifted.conclusion.subject == NamePrincipal(B, "inbox")
        assert lifted.conclusion.issuer == NamePrincipal(A, "inbox")
        lifted.verify(trusting_context(base))

    def test_roundtrip(self, A, B):
        base = premise(B, A)
        lifted = NameMonotonicityStep(base, "inbox")
        restored = proof_from_sexp(parse_canonical(to_canonical(lifted.to_sexp())))
        restored.verify(trusting_context(base))


class TestQuoting:
    def test_left_monotonicity(self, A, B, C):
        base = premise(B, A)
        lifted = QuotingLeftMonotonicityStep(base, C)
        assert lifted.conclusion.subject == QuotingPrincipal(B, C)
        assert lifted.conclusion.issuer == QuotingPrincipal(A, C)
        lifted.verify(trusting_context(base))

    def test_right_monotonicity(self, A, B, C):
        base = premise(B, A)
        lifted = QuotingRightMonotonicityStep(base, C)
        assert lifted.conclusion.subject == QuotingPrincipal(C, B)
        assert lifted.conclusion.issuer == QuotingPrincipal(C, A)
        lifted.verify(trusting_context(base))

    def test_collapse(self, A):
        step = QuotingCollapseStep(A)
        step.verify(VerificationContext())
        assert step.conclusion.subject == QuotingPrincipal(A, A)
        assert step.conclusion.issuer == A

    def test_quoting_roundtrip(self, A, B, C):
        base = premise(B, A)
        lifted = QuotingLeftMonotonicityStep(base, C)
        restored = proof_from_sexp(parse_canonical(to_canonical(lifted.to_sexp())))
        restored.verify(trusting_context(base))


class TestConjunction:
    def test_intro(self, A, B, C):
        to_a = premise(C, A, parse_tag("(tag (blocks))"))
        to_b = premise(C, B, parse_tag("(tag (blocks (disk 1)))"))
        joint = ConjunctionIntroStep(to_a, to_b)
        assert joint.conclusion.issuer == (A & B)
        assert joint.conclusion.tag.matches(["blocks", ["disk", "1"]])
        joint.verify(trusting_context(to_a, to_b))

    def test_intro_requires_shared_subject(self, A, B, C):
        with pytest.raises(ProofError):
            ConjunctionIntroStep(premise(C, A), premise(B, A))

    def test_projection(self, A, B):
        joint = ConjunctPrincipal.of(A, B)
        step = ConjunctionProjectionStep(joint, A)
        step.verify(VerificationContext())
        assert step.conclusion.issuer == A

    def test_projection_requires_membership(self, A, B, C):
        with pytest.raises(ProofError):
            ConjunctionProjectionStep(ConjunctPrincipal.of(A, B), C)

    def test_projection_roundtrip(self, A, B):
        step = ConjunctionProjectionStep(ConjunctPrincipal.of(A, B), A)
        restored = proof_from_sexp(parse_canonical(to_canonical(step.to_sexp())))
        restored.verify(VerificationContext())


class TestHashIdentity:
    def test_forward(self, alice_kp, A):
        step = HashIdentityStep(alice_kp.public.to_sexp())
        step.verify(VerificationContext())
        assert step.conclusion.subject == A.hash_principal()
        assert step.conclusion.issuer == A

    def test_reverse(self, alice_kp, A):
        step = HashIdentityStep(alice_kp.public.to_sexp(), reverse=True)
        step.verify(VerificationContext())
        assert step.conclusion.subject == A
        assert step.conclusion.issuer == A.hash_principal()

    def test_roundtrip(self, alice_kp):
        step = HashIdentityStep(alice_kp.public.to_sexp(), reverse=True)
        restored = proof_from_sexp(parse_canonical(to_canonical(step.to_sexp())))
        restored.verify(VerificationContext())

    def test_tampered_preimage_rejected(self, alice_kp, bob_kp):
        step = HashIdentityStep(alice_kp.public.to_sexp())
        step.preimage = bob_kp.public.to_sexp()
        with pytest.raises(VerificationError):
            step.verify(VerificationContext())


class TestDerivedSays:
    def test_derivation(self, A, B):
        utterance = PremiseStep(Says(B, ["read", "x"]))
        delegation = premise(B, A, parse_tag("(tag (read))"))
        derived = DerivedSaysStep(utterance, delegation)
        assert derived.conclusion == Says(A, ["read", "x"])
        derived.verify(trusting_context(utterance, delegation))

    def test_request_outside_tag_rejected(self, A, B):
        utterance = PremiseStep(Says(B, ["write", "x"]))
        delegation = premise(B, A, parse_tag("(tag (read))"))
        with pytest.raises(ProofError):
            DerivedSaysStep(utterance, delegation)

    def test_speaker_mismatch_rejected(self, A, B, C):
        utterance = PremiseStep(Says(C, ["read", "x"]))
        delegation = premise(B, A, parse_tag("(tag (read))"))
        with pytest.raises(ProofError):
            DerivedSaysStep(utterance, delegation)

    def test_expired_delegation_fails_at_use_time(self, A, B):
        utterance = PremiseStep(Says(B, ["read", "x"]))
        delegation = premise(
            B, A, parse_tag("(tag (read))"), validity=Validity(0, 10)
        )
        derived = DerivedSaysStep(utterance, delegation)
        derived.verify(trusting_context(utterance, delegation, now=5.0))
        with pytest.raises(VerificationError):
            derived.verify(trusting_context(utterance, delegation, now=50.0))

    @pytest.mark.parametrize("altered", ["speaker", "request", "kind"])
    def test_an_altered_conclusion_fails_verification(self, altered, A, B, C):
        utterance = PremiseStep(Says(B, ["read", "x"]))
        delegation = premise(B, A, parse_tag("(tag (read))"))
        derived = DerivedSaysStep(utterance, delegation)
        derived._conclusion = {
            "speaker": Says(C, ["read", "x"]),
            "request": Says(A, ["read", "y"]),
            "kind": SpeaksFor(B, A, parse_tag("(tag (read))")),
        }[altered]
        with pytest.raises(VerificationError):
            derived.verify(trusting_context(utterance, delegation))
