"""Unit tests for tag parsing and ground matching."""

import pytest

from repro.sexp import parse, parse_canonical, sexp
from repro.sexp.intern import INTERN_LIMIT
from repro.tags import tag as tag_module
from repro.tags import (
    Tag,
    TagAtom,
    TagList,
    TagPrefix,
    TagRange,
    TagSet,
    TagStar,
    TagAnd,
    TagError,
    parse_tag,
)


class TestParsing:
    def test_atom(self):
        assert parse_tag("(tag read)").expr == TagAtom("read")

    def test_star(self):
        assert parse_tag("(tag (*))").expr == TagStar()

    def test_set(self):
        tag = parse_tag("(tag (* set read write))")
        assert isinstance(tag.expr, TagSet)
        assert len(tag.expr.elements) == 2

    def test_prefix(self):
        assert parse_tag('(tag (* prefix "/pub/"))').expr == TagPrefix("/pub/")

    def test_range(self):
        tag = parse_tag("(tag (* range numeric (ge 1) (le 10)))")
        assert isinstance(tag.expr, TagRange)
        assert tag.expr.lower == b"1" and tag.expr.upper == b"10"

    def test_and_extension(self):
        tag = parse_tag('(tag (* and (* prefix a) (* range alpha (le az))))')
        assert isinstance(tag.expr, TagAnd)

    def test_list(self):
        tag = parse_tag("(tag (web (method GET)))")
        assert isinstance(tag.expr, TagList)

    def test_rejects_non_tag(self):
        with pytest.raises(TagError):
            Tag.from_sexp(parse("(web (method GET))"))

    def test_rejects_unknown_star_form(self):
        with pytest.raises(TagError):
            parse_tag("(tag (* wildcard))")

    def test_rejects_bad_range_ordering(self):
        with pytest.raises(TagError):
            parse_tag("(tag (* range sideways (ge 1)))")

    def test_rejects_single_element_and(self):
        with pytest.raises(TagError):
            TagAnd([TagStar()])

    def test_roundtrip(self):
        text = "(tag (web (method GET) (resourcePath (* prefix /pub))))"
        tag = parse_tag(text)
        assert Tag.from_sexp(tag.to_sexp()) == tag


class TestMatching:
    def test_atom_matches_exactly(self):
        tag = parse_tag("(tag read)")
        assert tag.matches("read")
        assert not tag.matches("write")
        assert not tag.matches(["read"])

    def test_star_matches_everything(self):
        tag = Tag.all()
        assert tag.matches("x")
        assert tag.matches(["deeply", ["nested", "form"]])

    def test_empty_set_matches_nothing(self):
        assert not Tag.none().matches("x")
        assert Tag.none().is_empty()

    def test_set_is_union(self):
        tag = parse_tag("(tag (* set read write))")
        assert tag.matches("read") and tag.matches("write")
        assert not tag.matches("delete")

    def test_prefix_on_atoms_only(self):
        tag = parse_tag("(tag (* prefix /pub))")
        assert tag.matches("/pub/x")
        assert tag.matches("/pub")
        assert not tag.matches("/private")
        assert not tag.matches(["/pub/x"])

    def test_list_allows_longer_requests(self):
        # RFC 2693: the request may be longer than the pattern.
        tag = parse_tag("(tag (web (method GET)))")
        assert tag.matches(parse('(web (method GET) (resourcePath "/x"))'))

    def test_list_rejects_shorter_requests(self):
        tag = parse_tag("(tag (web (method GET) (service s)))")
        assert not tag.matches(parse("(web (method GET))"))

    def test_list_elementwise(self):
        tag = parse_tag("(tag (web (method (* set GET HEAD))))")
        assert tag.matches(parse("(web (method GET))"))
        assert tag.matches(parse("(web (method HEAD))"))
        assert not tag.matches(parse("(web (method POST))"))

    def test_numeric_range(self):
        tag = parse_tag("(tag (* range numeric (ge 10) (l 20)))")
        assert tag.matches("10") and tag.matches("19")
        assert not tag.matches("20")
        assert not tag.matches("9")
        assert not tag.matches("abc")

    def test_numeric_range_is_numeric_not_lexicographic(self):
        tag = parse_tag("(tag (* range numeric (ge 9)))")
        assert tag.matches("10")  # lexicographically "10" < "9"

    def test_alpha_range(self):
        tag = parse_tag("(tag (* range alpha (ge b) (le d)))")
        assert tag.matches("b") and tag.matches("cat")
        assert not tag.matches("a") and not tag.matches("e")

    def test_time_range(self):
        tag = parse_tag(
            "(tag (* range time (ge 2000-01-01_00:00:00) (le 2000-12-31_23:59:59)))"
        )
        assert tag.matches("2000-06-15_12:00:00")
        assert not tag.matches("2001-01-01_00:00:00")

    def test_binary_range(self):
        tag = parse_tag("(tag (* range binary (ge |AQ==|) (le |Ag==|)))")
        assert tag.matches(sexp(b"\x01"))
        assert tag.matches(sexp(b"\x02"))
        assert not tag.matches(sexp(b"\x03"))

    def test_strict_bounds(self):
        tag = parse_tag("(tag (* range numeric (g 1) (l 3)))")
        assert tag.matches("2")
        assert not tag.matches("1") and not tag.matches("3")

    def test_and_matches_conjunction(self):
        tag = parse_tag("(tag (* and (* prefix ab) (* range alpha (le abz))))")
        assert tag.matches("abc")
        assert not tag.matches("abzz")  # prefix ok, range exceeded
        assert not tag.matches("aac")  # range ok, prefix wrong


class TestTagHelpers:
    def test_exactly_is_singleton(self):
        request = sexp(["invoke", ["method", "m"]])
        tag = Tag.exactly(request)
        assert tag.matches(request)
        assert not tag.matches(sexp(["invoke", ["method", "other"]]))

    def test_exactly_allows_longer_requests_like_spki_lists(self):
        # Tag.exactly produces list patterns, so SPKI prefix semantics
        # apply: a request with extra qualifiers still matches.
        tag = Tag.exactly(sexp(["invoke", ["method", "m"]]))
        assert tag.matches(sexp(["invoke", ["method", "m"], ["arg", "x"]]))

    def test_equality_and_hash(self):
        a = parse_tag("(tag (web))")
        b = parse_tag("(tag (web))")
        assert a == b and hash(a) == hash(b)

    def test_is_empty_on_lists_with_empty_member(self):
        tag = Tag(TagList([TagAtom("web"), TagSet()]))
        assert tag.is_empty()


class TestDecodedTags:
    """A decoded tag re-encodes to the bytes it was decoded from, or the
    decode is refused; and one distinct encoding decodes to one object."""

    # ``([x]* foo)``: a hinted ``*`` is not ``*``, so it would read as a
    # plain list and write ``(* foo)``, which does not decode.
    # ``([x]foo)``: the hint would be dropped, and a certificate's
    # signature checked over bytes without it.
    HINTED = [b"(3:tag([1:x]1:*3:foo))", b"(3:tag([1:x]3:foo))"]

    @pytest.mark.parametrize("wire", HINTED)
    def test_a_display_hint_in_the_body_is_refused(self, wire):
        with pytest.raises(TagError):
            Tag.from_sexp(parse_canonical(wire))

    @pytest.mark.parametrize(
        "text", ["(tag ([x]* foo))", "(tag ([x]foo))"]
    )
    def test_a_display_hint_in_advanced_form_is_refused(self, text):
        with pytest.raises(TagError):
            parse_tag(text)

    @pytest.mark.parametrize("text", [
        "(tag (* [x]prefix /a))",
        "(tag (* prefix [x]/a))",
        "(tag (* range [x]alpha (ge a)))",
        "(tag (* range alpha ([x]ge a)))",
        "(tag (* range alpha (ge [x]a)))",
        "(tag (* set a (b [x]c)))",
    ])
    def test_a_display_hint_inside_a_star_form_is_refused(self, text):
        with pytest.raises(TagError):
            parse_tag(text)

    def test_equal_bytes_decode_to_one_tag(self):
        wire = b"(3:tag(3:web(6:method3:GET)))"
        first = Tag.from_sexp(parse_canonical(wire))
        assert Tag.from_sexp(parse_canonical(wire)) is first
        assert Tag.interned(wire) is first
        assert first.canonical_key() == wire
        assert Tag.interned(b"(3:tag(12:never-parsed))") is None

    def test_the_intern_table_is_bounded(self):
        for index in range(INTERN_LIMIT + 3):
            Tag.from_sexp(parse_canonical(
                b"(3:tag(4:path%d:%d))" % (len(str(index)), index)
            ))
            assert len(tag_module._DECODED_TAGS) <= INTERN_LIMIT
