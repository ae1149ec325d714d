"""Statements: what principals say.

Two statement forms carry the whole system:

- :class:`SpeaksFor` — the paper's primary statement ``B =T=> A`` with an
  optional validity interval ("the logic encodes expiration times as part
  of the restriction of a delegation, so that each proof need be verified
  only once" — Section 4.3);
- :class:`Says` — ``P says r`` for a ground request ``r``; the conclusion a
  resource server ultimately needs is ``Server says r`` derived from the
  requesting channel's utterance plus a speaks-for proof.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.principals import Principal, principal_from_sexp
from repro.sexp import Atom, SExp, SList, sexp, to_canonical
from repro.tags import Tag


class Validity:
    """A half-open validity window ``[not_before, not_after]`` in seconds.

    ``None`` bounds are unbounded.  Validity intersects along transitivity
    exactly like restriction tags; an expired window makes the statement
    unusable for current requests but — per Figure 1 — still-valid lemmas
    of a proof survive extraction.
    """

    __slots__ = ("not_before", "not_after")

    ALWAYS: "Validity"

    def __init__(
        self,
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
    ):
        if (
            not_before is not None
            and not_after is not None
            and not_before > not_after
        ):
            raise ValueError("empty validity window")
        self.not_before = not_before
        self.not_after = not_after

    def contains(self, when: float) -> bool:
        if self.not_before is not None and when < self.not_before:
            return False
        if self.not_after is not None and when > self.not_after:
            return False
        return True

    def intersect(self, other: "Validity") -> "Validity":
        """The instants both windows contain.  Disjoint windows share
        none, and there is no window containing nothing, so they raise
        :class:`ValueError` exactly as the constructor does."""
        return Validity(
            _opt_max(self.not_before, other.not_before),
            _opt_min(self.not_after, other.not_after),
        )

    def is_unbounded(self) -> bool:
        return self.not_before is None and self.not_after is None

    def to_sexp(self) -> SExp:
        items = [Atom("valid")]
        if self.not_before is not None:
            items.append(SList([Atom("not-before"), Atom(_format_time(self.not_before))]))
        if self.not_after is not None:
            items.append(SList([Atom("not-after"), Atom(_format_time(self.not_after))]))
        return SList(items)

    def canonical_key(self) -> bytes:
        """:meth:`to_sexp`'s bytes, without building the tree."""
        parts = [b"(5:valid"]
        for label, bound in ((b"10:not-before", self.not_before),
                             (b"9:not-after", self.not_after)):
            if bound is not None:
                text = _format_time(bound).encode("ascii")
                parts.append(b"(%s%d:%s)" % (label, len(text), text))
        parts.append(b")")
        return b"".join(parts)

    @classmethod
    def from_sexp(cls, node: SExp) -> "Validity":
        if not isinstance(node, SList) or node.head() != "valid":
            raise ValueError("expected (valid ...), got %r" % (node,))
        not_before = not_after = None
        for field in node.tail():
            if (
                not isinstance(field, SList)
                or len(field) != 2
                or not isinstance(field.items[1], Atom)
            ):
                raise ValueError("bad validity field %r" % (field,))
            label = field.head()
            value = float(field.items[1].text())
            if not math.isfinite(value):
                raise ValueError("validity bound %r is not finite" % value)
            if label == "not-before":
                not_before = value
            elif label == "not-after":
                not_after = value
            else:
                raise ValueError("unknown validity field %r" % label)
        return cls(not_before, not_after)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Validity):
            return NotImplemented
        return (
            self.not_before == other.not_before
            and self.not_after == other.not_after
        )

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((Validity, self.not_before, self.not_after))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Validity(%r, %r)" % (self.not_before, self.not_after)


Validity.ALWAYS = Validity()


def _opt_max(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _opt_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _format_time(value: float) -> str:
    # Integral seconds are the common case; keep them clean on the wire.
    if value == int(value):
        return str(int(value))
    return repr(value)


class Statement:
    """Base class for logical statements."""

    # Memoized canonical encoding, mirroring ``Principal.canonical_key``:
    # statements are hashable value objects (the proof cache and the
    # prover's tables key on them), so equality and hashing reduce to
    # one bytes compare instead of rebuilding two AST trees.  The bytes
    # are all a statement keeps: its tree is built when asked for
    # (``to_sexp``) and belongs to the caller.
    __slots__ = ("_key",)

    def to_sexp(self) -> SExp:
        raise NotImplementedError

    def canonical_key(self) -> bytes:
        """The canonical encoding of :meth:`to_sexp`, computed once."""
        key = getattr(self, "_key", None)
        if key is None:
            key = self._encode()
            object.__setattr__(self, "_key", key)
        return key

    def _encode(self) -> bytes:
        """:meth:`to_sexp`'s bytes, assembled from what the parts already
        memoize (a principal's ``canonical_key``, a request node's
        encoding) instead of building a tree to encode and drop."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Statement):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return self.display()

    def display(self) -> str:
        return self.to_sexp().to_advanced()


class SpeaksFor(Statement):
    """``subject =tag=> issuer`` within a validity window.

    Reads: *issuer agrees with subject about any statement in tag that
    subject might make.*  Speaks-for captures delegation; the tag captures
    restriction.
    """

    __slots__ = ("subject", "issuer", "tag", "validity")

    def __init__(
        self,
        subject: Principal,
        issuer: Principal,
        tag: Tag,
        validity: Validity = Validity.ALWAYS,
    ):
        if not isinstance(subject, Principal) or not isinstance(issuer, Principal):
            raise TypeError("SpeaksFor needs Principal subject and issuer")
        if not isinstance(tag, Tag):
            raise TypeError("SpeaksFor needs a Tag restriction")
        self.subject = subject
        self.issuer = issuer
        self.tag = tag
        self.validity = validity

    def to_sexp(self) -> SExp:
        items = [
            Atom("speaks-for"),
            SList([Atom("subject"), self.subject.to_sexp()]),
            SList([Atom("issuer"), self.issuer.to_sexp()]),
            self.tag.to_sexp(),
        ]
        if not self.validity.is_unbounded():
            items.append(self.validity.to_sexp())
        return SList(items)

    def _encode(self) -> bytes:
        parts = [
            b"(10:speaks-for(7:subject", self.subject.canonical_key(),
            b")(6:issuer", self.issuer.canonical_key(),
            b")", self.tag.canonical_key(),
        ]
        if not self.validity.is_unbounded():
            parts.append(self.validity.canonical_key())
        parts.append(b")")
        return b"".join(parts)

    @classmethod
    def from_sexp(cls, node: SExp) -> "SpeaksFor":
        if not isinstance(node, SList) or node.head() != "speaks-for":
            raise ValueError("expected (speaks-for ...), got %r" % (node,))
        subject_field = node.find("subject")
        issuer_field = node.find("issuer")
        tag_field = node.find("tag")
        if subject_field is None or issuer_field is None or tag_field is None:
            raise ValueError("speaks-for missing subject/issuer/tag")
        validity_field = node.find("valid")
        validity = (
            Validity.from_sexp(validity_field)
            if validity_field is not None
            else Validity.ALWAYS
        )
        return cls(
            principal_from_sexp(subject_field.items[1]),
            principal_from_sexp(issuer_field.items[1]),
            Tag.from_sexp(tag_field),
            validity,
        )

    def display(self) -> str:
        return "%s ={%s}=> %s" % (
            self.subject.display(),
            self.tag.to_sexp().to_advanced(),
            self.issuer.display(),
        )


class Says(Statement):
    """``speaker says request`` for a ground request S-expression."""

    __slots__ = ("speaker", "request")

    def __init__(self, speaker: Principal, request):
        if not isinstance(speaker, Principal):
            raise TypeError("Says needs a Principal speaker")
        self.speaker = speaker
        self.request = sexp(request)

    def to_sexp(self) -> SExp:
        return SList([Atom("says"), self.speaker.to_sexp(), self.request])

    def _encode(self) -> bytes:
        return b"(4:says%s%s)" % (
            self.speaker.canonical_key(), to_canonical(self.request)
        )

    @classmethod
    def from_sexp(cls, node: SExp) -> "Says":
        if not isinstance(node, SList) or node.head() != "says" or len(node) != 3:
            raise ValueError("expected (says principal request), got %r" % (node,))
        return cls(principal_from_sexp(node.items[1]), node.items[2])

    def display(self) -> str:
        return "%s says %s" % (self.speaker.display(), self.request.to_advanced())


def statement_from_sexp(node: SExp) -> Statement:
    """Parse either statement form from the wire."""
    if isinstance(node, SList):
        head = node.head()
        statement = None
        if head == "speaks-for":
            statement = SpeaksFor.from_sexp(node)
        elif head == "says":
            statement = Says.from_sexp(node)
        if statement is not None:
            # Adopt the bytes the parser consumed as the statement's
            # key (not the node: a kept statement must not pin its parse
            # tree): honest encoders are deterministic, so this equals
            # what to_sexp would re-encode, and the decoded statement
            # compares/hashes without ever re-serializing.  A peer that
            # ships a non-normal encoding merely gets a key that matches
            # nothing local — fail-closed.
            object.__setattr__(statement, "_key", to_canonical(node))
            return statement
    raise ValueError("unknown statement form: %r" % (node,))
