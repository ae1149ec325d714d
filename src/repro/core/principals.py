"""Principals: every entity that can make a statement.

Section 4: "A principal is any entity that can make a statement.  Examples
include the binary representation of a statement itself, a cryptographic
key, a secure channel, a program, and a terminal."

The paper's formalism erases SPKI's principal/subject distinction, so
compound principals (conjunction, quoting, names) are first-class here and
can appear on either side of a speaks-for.  All principals are immutable
and hashable — the Prover's delegation graph keys on them — and round-trip
through S-expressions for wire transfer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.crypto.hashes import HashValue
from repro.crypto.rsa import RsaPublicKey
from repro.sexp import Atom, SExp, SList, to_canonical
from repro.sexp.intern import InternTable


class Principal:
    """Base class.  Subclasses define ``to_sexp`` and equality."""

    # Memoized canonical encoding: principals are immutable and are
    # compared/hashed constantly on the guard's hot path (premise-cache
    # buckets, proof verification, ring routing), so identity questions
    # reduce to one C-speed bytes compare instead of rebuilding and
    # walking two AST trees per question.  The bytes are all a principal
    # keeps: its tree is built when asked for (``to_sexp``) and belongs
    # to the caller — the one subtree worth sharing, a key's, is
    # memoized by the key itself (``RsaPublicKey.to_sexp``).
    __slots__ = ("_key",)

    def canonical_key(self) -> bytes:
        """The canonical encoding of :meth:`to_sexp`, computed once.
        Canonical form is injective over ASTs, so bytes equality *is*
        tree equality."""
        key = getattr(self, "_key", None)
        if key is None:
            key = to_canonical(self.to_sexp())
            object.__setattr__(self, "_key", key)
        return key

    def to_sexp(self) -> SExp:
        raise NotImplementedError

    def quoting(self, quotee: "Principal") -> "QuotingPrincipal":
        """Build ``self | quotee`` — self claiming to speak on quotee's behalf."""
        return QuotingPrincipal(self, quotee)

    def name(self, label: str) -> "NamePrincipal":
        """Build the SDSI-style compound name ``self · label``."""
        return NamePrincipal(self, label)

    def __and__(self, other: "Principal") -> "ConjunctPrincipal":
        """Build the conjunction ``self ∧ other`` (joint authority)."""
        return ConjunctPrincipal.of(self, other)

    def __or__(self, other: "Principal") -> "QuotingPrincipal":
        return self.quoting(other)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Principal):
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
        """Short human-readable form for audit trails."""
        return self.to_sexp().to_advanced()


class KeyPrincipal(Principal):
    """A public key: says any message signed by the key."""

    __slots__ = ("key",)

    def __init__(self, key: RsaPublicKey):
        object.__setattr__(self, "key", key)

    @classmethod
    def of(cls, key: RsaPublicKey) -> "KeyPrincipal":
        """The one principal for ``key``'s encoding.

        Every certificate a key signed names it as issuer, and every
        kept proof keeps its conclusion's issuer: sharing one principal
        per key (interned by the key's canonical bytes, as decoded keys
        are) shares its encoding too, and makes the guard's issuer
        comparisons identity tests."""
        wire = to_canonical(key.to_sexp())
        principal = _KEY_PRINCIPALS.get(wire)
        if principal is None:
            principal = cls(key)
            object.__setattr__(principal, "_key", wire)
            _KEY_PRINCIPALS.add(wire, principal)
        return principal

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    def to_sexp(self) -> SExp:
        return self.key.to_sexp()

    def hash_principal(self) -> "HashPrincipal":
        """The hash-of-key principal (``HKC`` in the paper's Figure 1)."""
        return HashPrincipal(self.key.fingerprint())

    def display(self) -> str:
        return "K<%s>" % self.key.fingerprint().digest.hex()[:8]


#: Key principals by their key's canonical bytes (``KeyPrincipal.of``).
_KEY_PRINCIPALS: InternTable[KeyPrincipal] = InternTable()


class HashPrincipal(Principal):
    """The hash of an object (a key, a document, a request).

    A hash and its preimage denote the same principal; the hash-identity
    proof rule converts between them given the preimage bytes.
    """

    __slots__ = ("value",)

    def __init__(self, value: HashValue):
        if not isinstance(value, HashValue):
            raise TypeError("HashPrincipal needs a HashValue")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    @classmethod
    def of_bytes(cls, data: bytes) -> "HashPrincipal":
        return cls(HashValue.of_bytes(data))

    @classmethod
    def of_sexp(cls, node: SExp) -> "HashPrincipal":
        return cls(HashValue.of_sexp(node))

    def to_sexp(self) -> SExp:
        return self.value.to_sexp()

    def display(self) -> str:
        return "H<%s>" % self.value.digest.hex()[:8]


class NamePrincipal(Principal):
    """An SDSI-style relative name ``base · label`` (``KC·N`` in Figure 1)."""

    __slots__ = ("base", "label")

    def __init__(self, base: Principal, label: str):
        if not isinstance(base, Principal):
            raise TypeError("name base must be a Principal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    def to_sexp(self) -> SExp:
        return SList([Atom("name"), self.base.to_sexp(), Atom(self.label)])

    def display(self) -> str:
        return "%s.%s" % (self.base.display(), self.label)


class ConjunctPrincipal(Principal):
    """``A ∧ B``: joint authority — says s only when every member says s.

    Generalizes SPKI threshold subjects with k = n; the members form a set,
    so conjunction is commutative, associative, and idempotent by
    construction.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Principal]):
        members = frozenset(members)
        if len(members) < 2:
            raise ValueError("a conjunction needs at least two distinct members")
        for member in members:
            if not isinstance(member, Principal):
                raise TypeError("conjunction members must be Principals")
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    @classmethod
    def of(cls, *principals: Principal) -> Principal:
        """Flattening constructor: ``of(A, B∧C)`` yields ``A∧B∧C``."""
        members = set()
        for principal in principals:
            if isinstance(principal, ConjunctPrincipal):
                members.update(principal.members)
            else:
                members.add(principal)
        if len(members) == 1:
            return next(iter(members))
        return cls(members)

    def to_sexp(self) -> SExp:
        # Sort by canonical encoding for a deterministic wire form.
        ordered = sorted(self.members, key=lambda p: p.canonical_key())
        return SList([Atom("conjunct")] + [p.to_sexp() for p in ordered])

    def display(self) -> str:
        return "(" + " & ".join(sorted(m.display() for m in self.members)) + ")"


class ThresholdPrincipal(Principal):
    """SPKI threshold subject: ``k`` of ``n`` members must concur.

    Section 4.2: "we extended Morcos' Principal class to support SPKI
    threshold (conjunction) principals."  A conjunction is the ``k = n``
    special case; thresholds generalize it to joint authority quorums.
    The threshold says a statement exactly when at least ``k`` members say
    it, so any quorum of ``k`` members speaks for it (the introduction
    rule in :mod:`repro.core.rules`).
    """

    __slots__ = ("k", "members")

    def __init__(self, k: int, members: Iterable[Principal]):
        members = frozenset(members)
        if not 1 <= k <= len(members):
            raise ValueError(
                "threshold k=%d out of range for %d members" % (k, len(members))
            )
        if len(members) < 2:
            raise ValueError("a threshold needs at least two members")
        for member in members:
            if not isinstance(member, Principal):
                raise TypeError("threshold members must be Principals")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    def to_sexp(self) -> SExp:
        ordered = sorted(self.members, key=lambda p: p.canonical_key())
        return SList(
            [Atom("threshold"), Atom(str(self.k)), Atom(str(len(ordered)))]
            + [p.to_sexp() for p in ordered]
        )

    def display(self) -> str:
        return "%d-of-%d(%s)" % (
            self.k,
            len(self.members),
            ", ".join(sorted(m.display() for m in self.members)),
        )


class QuotingPrincipal(Principal):
    """``A | B``: A claiming to speak on behalf of B (Lampson quoting).

    The paper's gateway is the motivating user: the gateway G accesses the
    database as ``G | Alice``, so the database's access decision reflects
    both the gateway's involvement and Alice's authority.
    """

    __slots__ = ("quoter", "quotee")

    def __init__(self, quoter: Principal, quotee: Principal):
        if not isinstance(quoter, Principal) or not isinstance(quotee, Principal):
            raise TypeError("quoting needs two Principals")
        object.__setattr__(self, "quoter", quoter)
        object.__setattr__(self, "quotee", quotee)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    def to_sexp(self) -> SExp:
        return SList([Atom("quoting"), self.quoter.to_sexp(), self.quotee.to_sexp()])

    def display(self) -> str:
        return "%s|%s" % (self.quoter.display(), self.quotee.display())


class ChannelPrincipal(Principal):
    """A communication channel, named by the hash of its session secret.

    "Because the channel itself is a principal, it may claim to quote some
    other principal" (Section 4.2).  The transport layer vouches (outside
    the logic) that messages emerging from the channel were keyed with the
    session secret; that vouching enters proofs as a premise assumption.
    """

    __slots__ = ("session_id",)

    def __init__(self, session_id: HashValue):
        if not isinstance(session_id, HashValue):
            raise TypeError("ChannelPrincipal needs the session-secret hash")
        object.__setattr__(self, "session_id", session_id)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    @classmethod
    def of_secret(cls, secret: bytes) -> "ChannelPrincipal":
        return cls(HashValue.of_bytes(secret))

    def to_sexp(self) -> SExp:
        return SList([Atom("channel"), self.session_id.to_sexp()])

    def display(self) -> str:
        return "CH<%s>" % self.session_id.digest.hex()[:8]


class MacPrincipal(Principal):
    """A MAC secret as a principal (Section 5.3.1's optimization).

    Named by the hash of the secret; a message tagged with the secret is a
    statement by this principal.
    """

    __slots__ = ("mac_id",)

    def __init__(self, mac_id: HashValue):
        if not isinstance(mac_id, HashValue):
            raise TypeError("MacPrincipal needs the MAC-secret hash")
        object.__setattr__(self, "mac_id", mac_id)

    def __setattr__(self, name, value):
        raise AttributeError("principals are immutable")

    def to_sexp(self) -> SExp:
        return SList([Atom("mac"), self.mac_id.to_sexp()])

    def display(self) -> str:
        return "MAC<%s>" % self.mac_id.digest.hex()[:8]


class PseudoPrincipal(Principal):
    """The ``?`` pseudo-principal of the gateway protocol (Section 6.3).

    The gateway challenges for a proof that ``G|? speaks for S``; the client
    "knows to substitute its identity for the pseudo-principal ?", saving a
    round trip.  ``substitute`` performs that replacement structurally.
    """

    __slots__ = ()

    def to_sexp(self) -> SExp:
        return SList([Atom("pseudo")])

    def display(self) -> str:
        return "?"


def substitute(principal: Principal, replacement: Principal) -> Principal:
    """Replace every ``?`` inside a (possibly compound) principal."""
    if isinstance(principal, PseudoPrincipal):
        return replacement
    if isinstance(principal, QuotingPrincipal):
        return QuotingPrincipal(
            substitute(principal.quoter, replacement),
            substitute(principal.quotee, replacement),
        )
    if isinstance(principal, ConjunctPrincipal):
        return ConjunctPrincipal.of(
            *[substitute(member, replacement) for member in principal.members]
        )
    if isinstance(principal, NamePrincipal):
        return NamePrincipal(substitute(principal.base, replacement), principal.label)
    return principal


def principal_from_sexp(node: SExp) -> Principal:
    """Parse any principal from its S-expression wire form.

    The returned principal adopts the bytes the parser consumed for
    ``node`` as its :meth:`~Principal.canonical_key` (not the node — a
    kept principal must not pin its parse tree): honest encoders are
    deterministic, so they equal what ``to_sexp`` would re-encode, and a
    decoded principal compares and hashes without a serialization pass.
    """
    principal = _principal_from_sexp(node)
    object.__setattr__(principal, "_key", to_canonical(node))
    return principal


def _principal_from_sexp(node: SExp) -> Principal:
    if not isinstance(node, SList):
        raise ValueError("principal must be an S-expression list: %r" % (node,))
    head = node.head()
    if head == "public-key":
        return KeyPrincipal.of(RsaPublicKey.from_sexp(node))
    if head == "hash":
        return HashPrincipal(HashValue.from_sexp(node))
    if head == "name":
        if len(node) != 3 or not isinstance(node.items[2], Atom):
            raise ValueError("bad (name base label) form")
        return NamePrincipal(principal_from_sexp(node.items[1]), node.items[2].text())
    if head == "conjunct":
        return ConjunctPrincipal(principal_from_sexp(item) for item in node.tail())
    if head == "threshold":
        if (
            len(node) < 5
            or not isinstance(node.items[1], Atom)
            or not isinstance(node.items[2], Atom)
        ):
            raise ValueError("bad (threshold k n members...) form")
        k = int(node.items[1].text())
        declared_n = int(node.items[2].text())
        members = [principal_from_sexp(item) for item in node.items[3:]]
        if declared_n != len(members):
            raise ValueError("threshold member count mismatch")
        return ThresholdPrincipal(k, members)
    if head == "quoting":
        if len(node) != 3:
            raise ValueError("bad (quoting quoter quotee) form")
        return QuotingPrincipal(
            principal_from_sexp(node.items[1]), principal_from_sexp(node.items[2])
        )
    if head == "channel":
        if len(node) != 2:
            raise ValueError("bad (channel hash) form")
        return ChannelPrincipal(HashValue.from_sexp(node.items[1]))
    if head == "mac":
        if len(node) != 2:
            raise ValueError("bad (mac hash) form")
        return MacPrincipal(HashValue.from_sexp(node.items[1]))
    if head == "pseudo":
        return PseudoPrincipal()
    raise ValueError("unknown principal form %r" % head)
