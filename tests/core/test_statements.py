"""Unit tests for statements and validity windows."""

import pytest

from repro.core.principals import KeyPrincipal
from repro.core.statements import Says, SpeaksFor, Validity, statement_from_sexp
from repro.sexp import sexp
from repro.tags import Tag, parse_tag


@pytest.fixture()
def A(alice_kp):
    return KeyPrincipal(alice_kp.public)


@pytest.fixture()
def B(bob_kp):
    return KeyPrincipal(bob_kp.public)


class TestValidity:
    def test_always_contains_everything(self):
        assert Validity.ALWAYS.contains(0.0)
        assert Validity.ALWAYS.contains(1e12)

    def test_window(self):
        v = Validity(10.0, 20.0)
        assert v.contains(10.0) and v.contains(20.0) and v.contains(15.0)
        assert not v.contains(9.9) and not v.contains(20.1)

    def test_half_open(self):
        assert Validity(not_after=5.0).contains(-100.0)
        assert not Validity(not_before=5.0).contains(4.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Validity(10.0, 5.0)

    def test_intersect_narrows(self):
        v = Validity(0.0, 100.0).intersect(Validity(50.0, 200.0))
        assert v.not_before == 50.0 and v.not_after == 100.0

    def test_intersect_disjoint_is_unsatisfiable_for_future(self):
        # Disjoint windows share no instant, so there is no window to
        # return — not even a single instant at a bound, which would
        # contain that bound.
        with pytest.raises(ValueError):
            Validity(0.0, 10.0).intersect(Validity(20.0, 30.0))
        assert Validity(0.0, 10.0).intersect(Validity(10.0, 30.0)) == (
            Validity(10.0, 10.0)
        )

    def test_intersect_with_always(self):
        v = Validity(1.0, 2.0)
        merged = v.intersect(Validity.ALWAYS)
        assert merged == v

    def test_roundtrip(self):
        v = Validity(10.0, 20.5)
        assert Validity.from_sexp(v.to_sexp()) == v

    def test_unbounded_roundtrip_fields(self):
        v = Validity(not_after=9.0)
        restored = Validity.from_sexp(v.to_sexp())
        assert restored.not_before is None and restored.not_after == 9.0

    def test_rejects_unknown_fields(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            Validity.from_sexp(parse("(valid (sometimes 3))"))


class TestSpeaksFor:
    def test_roundtrip(self, A, B):
        statement = SpeaksFor(B, A, parse_tag("(tag (web))"), Validity(0, 10))
        assert statement_from_sexp(statement.to_sexp()) == statement

    def test_roundtrip_unbounded(self, A, B):
        statement = SpeaksFor(B, A, Tag.all())
        restored = statement_from_sexp(statement.to_sexp())
        assert restored.validity.is_unbounded()

    def test_equality_includes_tag(self, A, B):
        a = SpeaksFor(B, A, parse_tag("(tag read)"))
        b = SpeaksFor(B, A, parse_tag("(tag write)"))
        assert a != b

    def test_type_checks(self, A):
        with pytest.raises(TypeError):
            SpeaksFor("bob", A, Tag.all())
        with pytest.raises(TypeError):
            SpeaksFor(A, A, "(tag read)")

    def test_display_mentions_both(self, A, B):
        text = SpeaksFor(B, A, Tag.all()).display()
        assert B.display() in text and A.display() in text


class TestSays:
    def test_roundtrip(self, A):
        statement = Says(A, ["invoke", ["method", "read"]])
        assert statement_from_sexp(statement.to_sexp()) == statement

    def test_request_coerced(self, A):
        statement = Says(A, "ping")
        assert statement.request == sexp("ping")

    def test_speaker_type_checked(self):
        with pytest.raises(TypeError):
            Says("alice", "ping")

    def test_distinct_requests_distinct_statements(self, A):
        assert Says(A, "x") != Says(A, "y")


class TestStatementParsing:
    def test_unknown_form_rejected(self):
        from repro.sexp import parse

        with pytest.raises(ValueError):
            statement_from_sexp(parse("(believes x y)"))
