"""Unit tests for proof steps, verification, and wire transfer."""

import pytest

from repro.core.errors import ProofError, VerificationError
from repro.core.principals import KeyPrincipal, NamePrincipal
from repro.core.proofs import (
    CitationIndex,
    PremiseStep,
    SignedCertificateStep,
    VerificationContext,
    proof_citations,
    proof_from_sexp,
)
from repro.core.rules import (
    ConjunctionIntroStep,
    DerivedSaysStep,
    NameMonotonicityStep,
    QuotingLeftMonotonicityStep,
    QuotingRightMonotonicityStep,
    TransitivityStep,
)
from repro.core.statements import Says, SpeaksFor, Validity
from repro.sexp import Atom, SList, parse_canonical, to_canonical
from repro.spki.certificate import Certificate
from repro.tags import Tag, parse_tag


@pytest.fixture()
def A(alice_kp):
    return KeyPrincipal(alice_kp.public)


@pytest.fixture()
def B(bob_kp):
    return KeyPrincipal(bob_kp.public)


class TestPremiseStep:
    def test_verifies_when_vouched(self, A, B):
        statement = SpeaksFor(B, A, Tag.all())
        context = VerificationContext(trusted_premises=[statement])
        PremiseStep(statement).verify(context)

    def test_fails_when_not_vouched(self, A, B):
        statement = SpeaksFor(B, A, Tag.all())
        with pytest.raises(VerificationError):
            PremiseStep(statement).verify(VerificationContext())

    def test_adversary_shipped_premise_proves_nothing(self, A, B):
        # A premise serialized by an attacker deserializes fine but fails
        # verification at any party that does not vouch for it.
        step = PremiseStep(SpeaksFor(B, A, Tag.all()))
        shipped = proof_from_sexp(parse_canonical(to_canonical(step.to_sexp())))
        with pytest.raises(VerificationError):
            shipped.verify(VerificationContext())

    def test_says_premise(self, A):
        statement = Says(A, "ping")
        context = VerificationContext(trusted_premises=[statement])
        PremiseStep(statement).verify(context)

    def test_a_freed_node_hands_its_mark_to_no_one(self, A):
        # The allocator hands a freed node's address to the next node of
        # its size; a mark kept by address alone would go with it.
        vouched, unvouched = Says(A, "ping"), Says(A, "pong")
        context = VerificationContext(trusted_premises=[vouched])
        for _ in range(200):
            step = PremiseStep(vouched)
            step.verify(context)
            del step
            with pytest.raises(VerificationError):
                PremiseStep(unvouched).verify(context)


class TestSignedCertificateStep:
    def test_verifies(self, alice_kp, B, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        SignedCertificateStep(cert).verify(VerificationContext())

    def test_conclusion_is_certificate_statement(self, alice_kp, B, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        step = SignedCertificateStep(cert)
        conclusion = step.conclusion
        assert isinstance(conclusion, SpeaksFor)
        assert conclusion.subject == B
        assert conclusion.issuer == KeyPrincipal(alice_kp.public)

    def test_tampered_tag_fails(self, alice_kp, B, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        cert.tag = parse_tag("(tag (*))")  # widen authority after signing
        with pytest.raises(VerificationError):
            SignedCertificateStep(cert).verify(VerificationContext())

    def test_tampered_subject_fails(self, alice_kp, B, carol_kp, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        cert.subject = KeyPrincipal(carol_kp.public)
        with pytest.raises(VerificationError):
            SignedCertificateStep(cert).verify(VerificationContext())

    def test_verification_memoized(self, alice_kp, B, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        step = SignedCertificateStep(cert)
        context = VerificationContext()
        step.verify(context)
        assert context.was_verified(step)
        step.verify(context)  # second call is the cached path


def _link(subject, issuer):
    return PremiseStep(SpeaksFor(subject, issuer, Tag.all()))


#: The rule steps whose constructor derives the conclusion from the
#: premises and payload, built over premise leaves: ``(B, A, N)`` where
#: ``N`` is a name under ``A``.
DERIVING_RULES = {
    "transitivity": lambda B, A, N: TransitivityStep(_link(B, A), _link(A, N)),
    "name-monotonicity": lambda B, A, N: NameMonotonicityStep(_link(B, A), "n"),
    "quoting-left": lambda B, A, N: QuotingLeftMonotonicityStep(_link(B, A), N),
    "quoting-right": lambda B, A, N: QuotingRightMonotonicityStep(
        _link(B, A), N
    ),
    "conjunction-intro": lambda B, A, N: ConjunctionIntroStep(
        _link(B, A), _link(B, N)
    ),
    "derived-says": lambda B, A, N: DerivedSaysStep(
        PremiseStep(Says(B, "ping")), _link(B, A)
    ),
}


class TestWireTransfer:
    def test_roundtrip_preserves_structure(self, alice_kp, bob_kp, B, carol_kp, rng):
        C = KeyPrincipal(carol_kp.public)
        first = Certificate.issue(bob_kp, C, parse_tag("(tag read)"), rng=rng)
        second = Certificate.issue(alice_kp, B, parse_tag("(tag (*))"), rng=rng)
        chain = TransitivityStep(
            SignedCertificateStep(first), SignedCertificateStep(second)
        )
        restored = proof_from_sexp(parse_canonical(to_canonical(chain.to_sexp())))
        assert restored == chain
        restored.verify(VerificationContext())

    def test_tampered_conclusion_rejected_at_parse(self, alice_kp, B, rng):
        cert = Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        node = SignedCertificateStep(cert).to_sexp()
        # Rewrite the claimed conclusion to a broader tag.
        items = list(node.items)
        for index, item in enumerate(items):
            if isinstance(item, SList) and item.head() == "conclusion":
                broad = SpeaksFor(B, KeyPrincipal(alice_kp.public), Tag.all())
                items[index] = SList([Atom("conclusion"), broad.to_sexp()])
        with pytest.raises(ProofError):
            proof_from_sexp(SList(items))

    @pytest.mark.parametrize("rule", sorted(DERIVING_RULES))
    def test_missing_conclusion_rejected_at_parse(self, rule, A, B):
        """Every step states its conclusion on the wire, even one the
        step could re-derive: a decoded proof's digest is the sha256 of
        the bytes it arrived as, so a shortened encoding would be a
        second name for the same proof."""
        proof = DERIVING_RULES[rule](B, A, NamePrincipal(A, "n"))
        node = proof.to_sexp()
        assert proof_from_sexp(node) == proof
        stripped = SList([
            item for item in node.items
            if not (isinstance(item, SList) and item.head() == "conclusion")
        ])
        assert len(stripped) == len(node) - 1
        with pytest.raises(ProofError):
            proof_from_sexp(parse_canonical(to_canonical(stripped)))

    def test_unknown_rule_rejected(self):
        from repro.sexp import parse

        with pytest.raises(ProofError):
            proof_from_sexp(
                parse('(proof alchemy (conclusion (says (pseudo) ok)))')
            )


class TestLemmas:
    def test_lemma_iteration(self, alice_kp, bob_kp, B, carol_kp, rng):
        C = KeyPrincipal(carol_kp.public)
        first = SignedCertificateStep(
            Certificate.issue(bob_kp, C, parse_tag("(tag read)"), rng=rng)
        )
        second = SignedCertificateStep(
            Certificate.issue(alice_kp, B, parse_tag("(tag (*))"), rng=rng)
        )
        chain = TransitivityStep(first, second)
        lemmas = list(chain.lemmas())
        assert chain in lemmas and first in lemmas and second in lemmas
        assert len(lemmas) == 3

    def test_speaks_for_lemmas_filter(self, A, alice_kp, B, rng):
        cert = SignedCertificateStep(
            Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        )
        says = PremiseStep(Says(B, "read"))
        from repro.core.rules import DerivedSaysStep

        derived = DerivedSaysStep(says, cert)
        speaks = list(derived.speaks_for_lemmas())
        assert cert in speaks
        assert says not in speaks

    def test_display_tree_renders_every_step(self, alice_kp, B, rng):
        cert = SignedCertificateStep(
            Certificate.issue(alice_kp, B, parse_tag("(tag read)"), rng=rng)
        )
        text = cert.display_tree()
        assert "signed-certificate" in text


class TestCitations:
    def test_a_chain_cites_every_serial_lemma_and_premise_under_it(
        self, A, alice_kp, B, carol_kp, rng
    ):
        C = KeyPrincipal(carol_kp.public)
        binding = PremiseStep(SpeaksFor(C, B, Tag.all()))
        cert = SignedCertificateStep(
            Certificate.issue(alice_kp, B, Tag.all(), rng=rng)
        )
        chain = TransitivityStep(binding, cert)
        serials, digests, premises = proof_citations(chain)
        assert serials == (cert.certificate.serial,)
        # Outermost first: a proof's own digest leads its citations.
        assert digests == (chain.digest(), binding.digest(), cert.digest())
        assert premises == (binding.conclusion,)
        assert proof_citations(cert) == (serials, (cert.digest(),), ())

    def test_index_lists_holders_in_arrival_order(self):
        index = CitationIndex()
        assert index.holders(b"s") == ()
        for holder in (b"k2", b"k1", b"k3", b"k1"):
            index.add(b"s", holder)
        assert index.holders(b"s") == (b"k2", b"k1", b"k3")
        index.discard(b"s", b"k2")
        index.discard(b"s", b"absent")
        assert index.holders(b"s") == (b"k1", b"k3")

    def test_index_forgets_a_thing_with_its_last_holder(self):
        index = CitationIndex()
        index.add(b"s", b"k1")
        index.add(b"s", b"k2")
        index.add(b"t", b"k1")
        index.discard(b"s", b"k1")
        index.discard(b"t", b"other")
        assert sorted(index) == [b"s", b"t"]
        index.discard(b"s", b"k2")
        index.discard(b"t", b"k1")
        assert len(index) == 0 and index.holders(b"s") == ()
