"""Tag expression AST, parsing, and ground matching.

A :class:`Tag` denotes a set of ground S-expressions (requests).  The
central operations are:

- ``matches(request)`` — is this concrete request in the set?
- ``intersect(other)`` — the tag denoting the set intersection (total,
  thanks to the ``(* and ...)`` extension);
- ``implies(other)`` — conservative subset test (True only when provable).

Requests themselves are plain S-expressions such as the paper's Figure 5
minimum tag ``(tag (web (method GET) (service ...) (resourcePath "")))``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.sexp import Atom, SExp, SList, parse, sexp, to_canonical
from repro.sexp.intern import InternTable


class TagError(ValueError):
    """Raised on malformed tag expressions."""


class TagExpr:
    """Base class for tag-set expressions (the body inside ``(tag ...)``)."""

    __slots__ = ()

    def matches(self, node: SExp) -> bool:
        raise NotImplementedError

    def to_sexp(self) -> SExp:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagExpr):
            return NotImplemented
        return self.to_sexp() == other.to_sexp()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.to_sexp())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({})".format(type(self).__name__, self.to_sexp().to_advanced())


class TagAtom(TagExpr):
    """A byte-string literal; matches exactly itself."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, Atom):
            value = value.value
        if isinstance(value, str):
            value = value.encode("utf-8")
        if not isinstance(value, bytes):
            raise TagError("TagAtom needs bytes/str, got %r" % (value,))
        self.value = value

    def matches(self, node: SExp) -> bool:
        return isinstance(node, Atom) and node.value == self.value

    def to_sexp(self) -> SExp:
        return Atom(self.value)


class TagList(TagExpr):
    """A list pattern.

    Per RFC 2693, a list tag matches a list S-expression that is *at least*
    as long; extra trailing elements in the request are permitted (they
    further qualify the request, never widen it).
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[TagExpr]):
        self.elements = tuple(elements)
        for element in self.elements:
            if not isinstance(element, TagExpr):
                raise TagError("TagList elements must be TagExpr")

    def matches(self, node: SExp) -> bool:
        if not isinstance(node, SList):
            return False
        if len(node) < len(self.elements):
            return False
        return all(
            pattern.matches(item)
            for pattern, item in zip(self.elements, node.items)
        )

    def to_sexp(self) -> SExp:
        return SList(element.to_sexp() for element in self.elements)


class TagStar(TagExpr):
    """``(*)`` — matches every S-expression (the universal set)."""

    __slots__ = ()

    def matches(self, node: SExp) -> bool:
        return True

    def to_sexp(self) -> SExp:
        return SList([Atom("*")])


class TagSet(TagExpr):
    """``(* set e1 ... en)`` — union; with no elements, the empty set."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[TagExpr] = ()):
        self.elements = tuple(elements)

    def is_empty_literal(self) -> bool:
        return not self.elements

    def matches(self, node: SExp) -> bool:
        return any(element.matches(node) for element in self.elements)

    def to_sexp(self) -> SExp:
        return SList(
            [Atom("*"), Atom("set")] + [e.to_sexp() for e in self.elements]
        )


class TagPrefix(TagExpr):
    """``(* prefix bytes)`` — matches atoms with the given byte prefix."""

    __slots__ = ("prefix",)

    def __init__(self, prefix):
        if isinstance(prefix, Atom):
            prefix = prefix.value
        if isinstance(prefix, str):
            prefix = prefix.encode("utf-8")
        self.prefix = prefix

    def matches(self, node: SExp) -> bool:
        return isinstance(node, Atom) and node.value.startswith(self.prefix)

    def to_sexp(self) -> SExp:
        return SList([Atom("*"), Atom("prefix"), Atom(self.prefix)])


_ORDERINGS = ("alpha", "numeric", "time", "binary", "date")
_BOUND_OPS = ("g", "ge", "l", "le")


class TagRange(TagExpr):
    """``(* range ordering (ge lo) (le hi))`` — an interval of atoms.

    Orderings: ``alpha`` (bytewise), ``numeric`` (decimal integers/floats),
    ``time``/``date`` (ISO-ish strings; lexicographic order is value order),
    ``binary`` (big-endian magnitude).
    """

    __slots__ = ("ordering", "lower", "lower_op", "upper", "upper_op")

    def __init__(
        self,
        ordering: str,
        lower: Optional[bytes] = None,
        lower_op: str = "ge",
        upper: Optional[bytes] = None,
        upper_op: str = "le",
    ):
        if ordering not in _ORDERINGS:
            raise TagError("unknown range ordering %r" % ordering)
        if lower_op not in ("g", "ge") or upper_op not in ("l", "le"):
            raise TagError("bad range bound ops %r/%r" % (lower_op, upper_op))
        self.ordering = ordering
        self.lower = _coerce_bound(lower)
        self.lower_op = lower_op
        self.upper = _coerce_bound(upper)
        self.upper_op = upper_op

    def _key(self, value: bytes):
        if self.ordering == "numeric":
            try:
                text = value.decode("ascii")
                return float(text) if "." in text else int(text)
            except (UnicodeDecodeError, ValueError):
                return None
        if self.ordering == "binary":
            return int.from_bytes(value, "big") if value else 0
        return value  # alpha, time, date: bytewise order is value order

    def matches(self, node: SExp) -> bool:
        if not isinstance(node, Atom):
            return False
        key = self._key(node.value)
        if key is None:
            return False
        if self.lower is not None:
            low = self._key(self.lower)
            if low is None:
                return False
            if self.lower_op == "ge" and not key >= low:
                return False
            if self.lower_op == "g" and not key > low:
                return False
        if self.upper is not None:
            high = self._key(self.upper)
            if high is None:
                return False
            if self.upper_op == "le" and not key <= high:
                return False
            if self.upper_op == "l" and not key < high:
                return False
        return True

    def to_sexp(self) -> SExp:
        items = [Atom("*"), Atom("range"), Atom(self.ordering)]
        if self.lower is not None:
            items.append(SList([Atom(self.lower_op), Atom(self.lower)]))
        if self.upper is not None:
            items.append(SList([Atom(self.upper_op), Atom(self.upper)]))
        return SList(items)


class TagAnd(TagExpr):
    """``(* and e1 ... en)`` — conjunction (our documented extension).

    Matches what *all* elements match.  This closes the algebra under
    intersection: combinations such as prefix∩range, which RFC 2693 cannot
    express, are represented exactly instead of being over- or
    under-approximated.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[TagExpr]):
        self.elements = tuple(elements)
        if len(self.elements) < 2:
            raise TagError("(* and ...) needs at least two elements")

    def matches(self, node: SExp) -> bool:
        return all(element.matches(node) for element in self.elements)

    def to_sexp(self) -> SExp:
        return SList(
            [Atom("*"), Atom("and")] + [e.to_sexp() for e in self.elements]
        )


def _coerce_bound(value) -> Optional[bytes]:
    if value is None:
        return None
    if isinstance(value, Atom):
        return value.value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        return str(value).encode("ascii")
    if isinstance(value, bytes):
        return value
    raise TagError("bad range bound %r" % (value,))


def _plain(atom: Atom) -> Atom:
    """``atom``, refused when it carries a display hint: no tag form
    keeps one, so a hinted atom would decode to a tag that does not
    re-encode to the bytes it came from (``([x]* foo)`` would read as a
    plain list and write ``(* foo)``)."""
    if atom.hint is not None:
        raise TagError("display hint [%r] in a tag" % (atom.hint,))
    return atom


def parse_tag_expr(node: SExp) -> TagExpr:
    """Parse the body of a tag (everything inside ``(tag ...)``).

    A display hint anywhere in the body is a :class:`TagError`, so a
    decoded tag re-encodes without losing what it was decoded from."""
    if isinstance(node, Atom):
        return TagAtom(_plain(node).value)
    if not isinstance(node, SList):
        raise TagError("not an S-expression: %r" % (node,))
    if node.items and node.items[0] == Atom("*"):
        return _parse_star_form(node)
    return TagList(parse_tag_expr(item) for item in node.items)


def _parse_star_form(node: SList) -> TagExpr:
    if len(node) == 1:
        return TagStar()
    kind_atom = node.items[1]
    if not isinstance(kind_atom, Atom):
        raise TagError("(* ...) kind must be an atom")
    kind = _plain(kind_atom).text()
    rest = node.items[2:]
    if kind == "set":
        return TagSet(parse_tag_expr(item) for item in rest)
    if kind == "and":
        return TagAnd(parse_tag_expr(item) for item in rest)
    if kind == "prefix":
        if len(rest) != 1 or not isinstance(rest[0], Atom):
            raise TagError("(* prefix ...) needs one atom")
        return TagPrefix(_plain(rest[0]).value)
    if kind == "range":
        return _parse_range(rest)
    raise TagError("unknown (* %s ...) form" % kind)


def _parse_range(rest: Tuple[SExp, ...]) -> TagRange:
    """Read ``ordering [lower] [upper]``: at most one lower bound, then
    at most one upper bound, in the order :meth:`TagRange.to_sexp`
    writes them.  Any other spelling is refused, because it would
    re-encode to bytes its issuer never signed."""
    if not rest or not isinstance(rest[0], Atom):
        raise TagError("(* range ...) needs an ordering atom")
    ordering = _plain(rest[0]).text()
    bounds = [_range_bound(bound) for bound in rest[1:]]
    lower = upper = None
    lower_op, upper_op = "ge", "le"
    if bounds and bounds[0][0] in ("g", "ge"):
        lower_op, lower = bounds.pop(0)
    if bounds and bounds[0][0] in ("l", "le"):
        upper_op, upper = bounds.pop(0)
    if bounds:
        raise TagError(
            "range bounds must be one lower, then one upper: %r" % (rest,)
        )
    return TagRange(ordering, lower, lower_op, upper, upper_op)


def _range_bound(bound: SExp) -> Tuple[str, bytes]:
    if (
        not isinstance(bound, SList)
        or len(bound) != 2
        or not isinstance(bound.items[0], Atom)
        or not isinstance(bound.items[1], Atom)
    ):
        raise TagError("range bound must be (op value)")
    op = _plain(bound.items[0]).text()
    if op not in ("g", "ge", "l", "le"):
        raise TagError("unknown range bound op %r" % op)
    return op, _plain(bound.items[1]).value


#: Decoded tags by the canonical bytes they were decoded from (see
#: :meth:`Tag.from_sexp`).
_DECODED_TAGS: InternTable["Tag"] = InternTable()


class Tag:
    """A complete ``(tag ...)`` restriction set.

    >>> t = parse_tag('(tag (web (method GET)))')
    >>> t.matches(parse('(web (method GET) (resourcePath "/x"))'))
    True
    """

    # ``_canonical`` memoizes :meth:`canonical_key`: a tag is immutable
    # once built, and its bytes go into every signature check and every
    # speaks-for key that carries it.
    __slots__ = ("expr", "_canonical")

    def __init__(self, expr: TagExpr):
        if not isinstance(expr, TagExpr):
            raise TagError("Tag needs a TagExpr, got %r" % (expr,))
        self.expr = expr
        self._canonical: Optional[bytes] = None

    @classmethod
    def all(cls) -> "Tag":
        """The unrestricted tag ``(tag (*))`` — full speaks-for."""
        return cls(TagStar())

    @classmethod
    def none(cls) -> "Tag":
        """The empty tag ``(tag (* set))`` — delegates nothing."""
        return cls(TagSet())

    @classmethod
    def exactly(cls, request) -> "Tag":
        """The singleton tag containing exactly one ground request.

        This is the paper's "minimum restriction set T = {m} contains the
        singleton request (method invocation) made by the invoker."
        """
        return cls(_ground_to_expr(sexp(request)))

    @classmethod
    def from_sexp(cls, node: SExp) -> "Tag":
        """Decode a tag, sharing one instance per distinct encoding.

        The certificates an issuer signs for one kind of access carry
        the same tag bytes, and every kept proof keeps its certificate's
        tag — so decoded tags are interned by the canonical bytes of
        ``node`` (:class:`~repro.sexp.intern.InternTable`), as decoded
        issuer keys are.  A tag is an
        immutable value and equal bytes decode to an equal tag, so a hit
        is exactly what the decode below would have built."""
        if (
            not isinstance(node, SList)
            or node.head() != "tag"
            or len(node) != 2
        ):
            raise TagError("expected (tag <expr>), got %r" % (node,))
        wire = to_canonical(node)
        known = _DECODED_TAGS.get(wire)
        if known is not None:
            return known
        return _DECODED_TAGS.add(wire, cls(parse_tag_expr(node.items[1])))

    @staticmethod
    def interned(wire: bytes) -> Optional["Tag"]:
        """The tag :meth:`from_sexp` decoded earlier from exactly these
        canonical bytes, or ``None``: a byte reader finds a known tag
        without building its node."""
        return _DECODED_TAGS.get(wire)

    def to_sexp(self) -> SExp:
        return SList([Atom("tag"), self.expr.to_sexp()])

    def canonical_key(self) -> bytes:
        """The canonical encoding of :meth:`to_sexp`, computed once."""
        encoded = self._canonical
        if encoded is None:
            encoded = self._canonical = to_canonical(self.to_sexp())
        return encoded

    def matches(self, request) -> bool:
        """Is the concrete request S-expression within this set?"""
        return self.expr.matches(sexp(request))

    def intersect(self, other: "Tag") -> "Tag":
        from repro.tags.intersect import intersect

        return Tag(intersect(self.expr, other.expr))

    def implies(self, other: "Tag") -> bool:
        """Conservative subset test: True only when self ⊆ other is provable."""
        from repro.tags.intersect import implies

        return implies(self.expr, other.expr)

    def is_empty(self) -> bool:
        """Conservative syntactic emptiness check.

        True only when the set is definitely empty.  Intersection results in
        the base algebra are decided exactly; residual ``(* and ...)`` forms
        (e.g. prefix∩range) may be reported non-empty even when no atom
        satisfies them, which errs on the safe side for *rejecting* a proof
        (the request itself is still matched exactly).
        """
        return _is_empty(self.expr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return self.expr == other.expr

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((Tag, self.expr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Tag(%s)" % self.to_sexp().to_advanced()


def _ground_to_expr(node: SExp) -> TagExpr:
    if isinstance(node, Atom):
        return TagAtom(node.value)
    return TagList(_ground_to_expr(item) for item in node.items)


def _is_empty(expr: TagExpr) -> bool:
    if isinstance(expr, TagSet):
        return all(_is_empty(element) for element in expr.elements)
    if isinstance(expr, TagList):
        return any(_is_empty(element) for element in expr.elements)
    if isinstance(expr, TagAnd):
        return any(_is_empty(element) for element in expr.elements)
    return False


def parse_tag(text) -> Tag:
    """Parse a tag from advanced-form text, e.g. ``(tag (web (method GET)))``."""
    return Tag.from_sexp(parse(text))
