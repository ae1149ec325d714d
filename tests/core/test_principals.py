"""Unit tests for the principal forms of Section 4.2."""

import pytest

from repro.core.principals import (
    ChannelPrincipal,
    ConjunctPrincipal,
    HashPrincipal,
    KeyPrincipal,
    MacPrincipal,
    NamePrincipal,
    PseudoPrincipal,
    QuotingPrincipal,
    principal_from_sexp,
    substitute,
)
from repro.crypto.hashes import HashValue


@pytest.fixture()
def A(alice_kp):
    return KeyPrincipal(alice_kp.public)


@pytest.fixture()
def B(bob_kp):
    return KeyPrincipal(bob_kp.public)


class TestKeyPrincipal:
    def test_roundtrip(self, A):
        assert principal_from_sexp(A.to_sexp()) == A

    def test_hash_principal(self, A, alice_kp):
        assert A.hash_principal() == HashPrincipal(alice_kp.public.fingerprint())

    def test_immutable(self, A):
        with pytest.raises(AttributeError):
            A.key = None

    def test_display_is_short(self, A):
        assert len(A.display()) < 20


class TestHashPrincipal:
    def test_of_bytes(self):
        p = HashPrincipal.of_bytes(b"document")
        assert principal_from_sexp(p.to_sexp()) == p

    def test_distinct_content_distinct_principal(self):
        assert HashPrincipal.of_bytes(b"a") != HashPrincipal.of_bytes(b"b")

    def test_requires_hashvalue(self):
        with pytest.raises(TypeError):
            HashPrincipal(b"raw")


class TestNamePrincipal:
    def test_construction_and_roundtrip(self, A):
        named = A.name("calendar")
        assert isinstance(named, NamePrincipal)
        assert principal_from_sexp(named.to_sexp()) == named

    def test_nested_names(self, A):
        deep = A.name("group").name("member")
        assert principal_from_sexp(deep.to_sexp()) == deep

    def test_display(self, A):
        assert A.name("N").display().endswith(".N")


class TestConjunctPrincipal:
    def test_operator(self, A, B):
        both = A & B
        assert isinstance(both, ConjunctPrincipal)
        assert both.members == frozenset({A, B})

    def test_commutative_by_construction(self, A, B):
        assert (A & B) == (B & A)

    def test_flattening(self, A, B, carol_kp):
        C = KeyPrincipal(carol_kp.public)
        assert ConjunctPrincipal.of(A, B & C) == ConjunctPrincipal.of(A, B, C)

    def test_idempotent_collapses(self, A):
        assert ConjunctPrincipal.of(A, A) == A

    def test_needs_two_members(self, A):
        with pytest.raises(ValueError):
            ConjunctPrincipal([A])

    def test_deterministic_wire_form(self, A, B):
        assert (A & B).to_sexp() == (B & A).to_sexp()

    def test_roundtrip(self, A, B):
        assert principal_from_sexp((A & B).to_sexp()) == (A & B)


class TestQuotingPrincipal:
    def test_operator(self, A, B):
        assert (A | B) == QuotingPrincipal(A, B)

    def test_not_commutative(self, A, B):
        assert (A | B) != (B | A)

    def test_roundtrip(self, A, B):
        assert principal_from_sexp((A | B).to_sexp()) == (A | B)

    def test_display(self, A, B):
        assert "|" in (A | B).display()


class TestChannelAndMac:
    def test_channel_of_secret(self):
        ch = ChannelPrincipal.of_secret(b"session-secret")
        assert principal_from_sexp(ch.to_sexp()) == ch

    def test_channel_identity_is_secret_hash(self):
        assert ChannelPrincipal.of_secret(b"x") == ChannelPrincipal(
            HashValue.of_bytes(b"x")
        )

    def test_mac_roundtrip(self):
        mac = MacPrincipal(HashValue.of_bytes(b"mac-secret"))
        assert principal_from_sexp(mac.to_sexp()) == mac

    def test_channel_vs_mac_not_equal(self):
        h = HashValue.of_bytes(b"s")
        assert ChannelPrincipal(h) != MacPrincipal(h)


class TestPseudoAndSubstitute:
    def test_pseudo_roundtrip(self):
        assert principal_from_sexp(PseudoPrincipal().to_sexp()) == PseudoPrincipal()

    def test_substitute_in_quoting(self, A, B):
        template = A | PseudoPrincipal()
        assert substitute(template, B) == (A | B)

    def test_substitute_in_conjunct(self, A, B):
        template = ConjunctPrincipal.of(A, PseudoPrincipal())
        assert substitute(template, B) == (A & B)

    def test_substitute_in_name(self, A, B):
        template = NamePrincipal(PseudoPrincipal(), "inbox")
        assert substitute(template, B) == B.name("inbox")

    def test_substitute_leaves_others(self, A, B):
        assert substitute(A, B) == A

    def test_substitute_nested(self, A, B):
        template = (A | PseudoPrincipal()) | PseudoPrincipal()
        result = substitute(template, B)
        assert result == (A | B) | B


class TestParsingErrors:
    def test_unknown_form(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            principal_from_sexp(parse("(alien k)"))

    def test_atom_rejected(self):
        from repro.sexp import Atom

        with pytest.raises(ValueError):
            principal_from_sexp(Atom("k"))

    def test_malformed_quoting(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            principal_from_sexp(parse("(quoting (pseudo))"))

    def test_threshold_member_count_must_be_an_atom(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            principal_from_sexp(
                parse("(threshold 1 (x) (pseudo) (pseudo) (pseudo))")
            )
