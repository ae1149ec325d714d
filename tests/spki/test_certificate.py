"""Unit tests for SPKI certificates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.principals import HashPrincipal, KeyPrincipal, NamePrincipal
from repro.core.statements import Validity
from repro.crypto.rsa import RsaPublicKey
from repro.sexp import Atom, SList, parse_canonical, to_canonical
from repro.spki import Certificate
from repro.tags import Tag, parse_tag
from repro.tags.tag import (
    TagAnd,
    TagAtom,
    TagList,
    TagPrefix,
    TagRange,
    TagSet,
    TagStar,
)


class TestIssuance:
    def test_signature_verifies(self, alice_kp, bob_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"), rng=rng
        )
        assert cert.verify_signature()

    def test_statement_fields(self, alice_kp, bob_kp, rng):
        tag = parse_tag("(tag read)")
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), tag, Validity(1, 2), rng=rng
        )
        statement = cert.statement()
        assert statement.subject == KeyPrincipal(bob_kp.public)
        assert statement.issuer == KeyPrincipal(alice_kp.public)
        assert statement.tag == tag
        assert statement.validity == Validity(1, 2)

    def test_serials_unique(self, alice_kp, bob_kp, rng):
        B = KeyPrincipal(bob_kp.public)
        a = Certificate.issue(alice_kp, B, Tag.all(), rng=rng)
        b = Certificate.issue(alice_kp, B, Tag.all(), rng=rng)
        assert a.serial != b.serial

    def test_explicit_serial(self, alice_kp, bob_kp):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), Tag.all(), serial=b"\x01\x02"
        )
        assert cert.serial == b"\x01\x02"

    def test_propagate_default_true(self, alice_kp, bob_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), Tag.all(), rng=rng
        )
        assert cert.propagate

    def test_no_propagate(self, alice_kp, bob_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), Tag.all(),
            propagate=False, rng=rng,
        )
        assert not cert.propagate
        assert cert.verify_signature()


class TestTampering:
    def test_any_field_change_breaks_signature(self, alice_kp, bob_kp, carol_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"),
            Validity(0, 10), rng=rng,
        )
        cert.tag = parse_tag("(tag (*))")
        assert not cert.verify_signature()

        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"), rng=rng
        )
        cert.subject = KeyPrincipal(carol_kp.public)
        assert not cert.verify_signature()

        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"),
            Validity(0, 10), rng=rng,
        )
        cert.validity = Validity(0, 10**9)
        assert not cert.verify_signature()

    def test_propagate_bit_is_signed(self, alice_kp, bob_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), Tag.all(),
            propagate=False, rng=rng,
        )
        cert.propagate = True
        assert not cert.verify_signature()


class TestWireForm:
    def test_roundtrip(self, alice_kp, bob_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"),
            Validity(0, 99), propagate=False, rng=rng,
        )
        restored = Certificate.from_sexp(
            parse_canonical(to_canonical(cert.to_sexp()))
        )
        assert restored == cert
        assert restored.verify_signature()

    def test_rejects_malformed(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            Certificate.from_sexp(parse("(signed-cert (cert))"))

    @pytest.mark.parametrize("head,replacement", [
        ("signature", "(signature (x))"),
        ("serial", "(serial (x))"),
        ("issuer-name", "(issuer-name (x))"),
        ("not-before", "(not-before (x))"),
        ("not-after", "(not-after (x))"),
        ("not-after", "(not-after inf)"),
        ("issuer", "(issuer)"),
        ("subject", "(subject)"),
    ])
    def test_a_malformed_field_is_a_value_error(
        self, alice_kp, bob_kp, rng, head, replacement
    ):
        """A list where an atom belongs, a bound no window can hold, an
        empty field: each refuses the certificate with ``ValueError``,
        which a guard turns into a denial of that one request."""
        from repro.sexp import parse

        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"),
            Validity(0, 99), rng=rng, issuer_name="N",
        )
        node = _replace_first(cert.to_sexp(), head, parse(replacement))
        with pytest.raises(ValueError):
            Certificate.from_sexp(node).statement().canonical_key()


def _replace_first(node, head, replacement):
    """``node`` with its first list headed ``head`` (depth first)
    replaced by ``replacement``."""
    done = []

    def walk(item):
        if not isinstance(item, SList) or done:
            return item
        if item.head() == head:
            done.append(item)
            return replacement
        return SList([walk(child) for child in item.items])

    rebuilt = walk(node)
    assert done, head
    return rebuilt


class TestNameCertificates:
    def test_issuer_is_compound_name(self, alice_kp, server_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(server_kp.public), Tag.all(),
            issuer_name="N", rng=rng,
        )
        A = KeyPrincipal(alice_kp.public)
        assert cert.issuer_principal() == NamePrincipal(A, "N")
        assert cert.verify_signature()

    def test_issuer_via_hash(self, alice_kp, server_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(server_kp.public), Tag.all(),
            issuer_name="N", issuer_via_hash=True, rng=rng,
        )
        HKC = KeyPrincipal(alice_kp.public).hash_principal()
        assert cert.issuer_principal() == NamePrincipal(HKC, "N")

    def test_name_cert_roundtrip(self, alice_kp, server_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(server_kp.public), Tag.all(),
            issuer_name="N", issuer_via_hash=True, rng=rng,
        )
        restored = Certificate.from_sexp(
            parse_canonical(to_canonical(cert.to_sexp()))
        )
        assert restored == cert
        assert restored.issuer_principal() == cert.issuer_principal()
        assert restored.verify_signature()

    def test_name_field_is_signed(self, alice_kp, server_kp, rng):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(server_kp.public), Tag.all(),
            issuer_name="N", rng=rng,
        )
        cert.issuer_name = "M"
        assert not cert.verify_signature()


_atom = st.binary(max_size=6)
_tag_expr = st.recursive(
    st.one_of(
        st.builds(TagAtom, _atom),
        st.just(TagStar()),
        st.builds(TagPrefix, _atom),
        st.builds(
            TagRange,
            st.sampled_from(["alpha", "numeric", "time", "binary", "date"]),
            st.none() | _atom, st.sampled_from(["g", "ge"]),
            st.none() | _atom, st.sampled_from(["l", "le"]),
        ),
    ),
    lambda inner: st.one_of(
        st.builds(TagList, st.lists(inner, max_size=3)),
        st.builds(TagSet, st.lists(inner, max_size=3)),
        st.builds(TagAnd, st.lists(inner, min_size=2, max_size=3)),
    ),
    max_leaves=6,
)
_bound = st.none() | st.integers(0, 10**12) | st.floats(
    0, 1e9, allow_nan=False, allow_infinity=False
)
_key = st.builds(
    RsaPublicKey, st.integers(2**63, 2**520), st.sampled_from([3, 65537])
)
_subject = st.one_of(
    st.builds(KeyPrincipal, _key),
    st.builds(HashPrincipal.of_bytes, st.binary(max_size=8)),
    st.builds(
        NamePrincipal, st.builds(KeyPrincipal, _key), st.text(max_size=5)
    ),
)


@st.composite
def _validity(draw):
    first, second = draw(_bound), draw(_bound)
    if first is not None and second is not None and first > second:
        first, second = second, first
    return Validity(first, second)


class TestAssembledBody:
    """The signature is checked over bytes joined from what the parts
    memoize; those bytes must be exactly the body tree's encoding, which
    is what ``issue`` signs."""

    @settings(max_examples=300, deadline=None)
    @given(
        issuer_key=_key,
        subject=_subject,
        expr=_tag_expr,
        validity=_validity(),
        serial=st.binary(max_size=16),
        propagate=st.booleans(),
        issuer_name=st.none() | st.text(max_size=6),
        issuer_via_hash=st.booleans(),
    )
    def test_body_bytes_equal_the_encoded_body_tree(
        self, issuer_key, subject, expr, validity, serial, propagate,
        issuer_name, issuer_via_hash,
    ):
        cert = Certificate(
            issuer_key, subject, Tag(expr), validity, serial, propagate,
            b"\x01", issuer_name, issuer_via_hash,
        )
        assert cert.body_canonical() == to_canonical(cert.body_sexp())

    def test_a_decoded_certificate_verifies_without_building_a_tree(
        self, alice_kp, bob_kp, rng, monkeypatch
    ):
        cert = Certificate.issue(
            alice_kp, KeyPrincipal(bob_kp.public), parse_tag("(tag read)"),
            Validity(0, 99), rng=rng, issuer_name="N",
        )
        restored = Certificate.from_sexp(
            parse_canonical(to_canonical(cert.to_sexp()))
        )
        restored.statement().canonical_key()  # what decoding a proof does
        built = []
        for node_type in (Atom, SList):
            original = node_type.__init__

            def counted(self, *args, _original=original, **kwargs):
                built.append(type(self))
                _original(self, *args, **kwargs)

            monkeypatch.setattr(node_type, "__init__", counted)
        assert restored.verify_signature()
        assert built == []
