"""Structured, self-verifying proofs of authority.

Section 4.3: "We implemented a Proof class that represents a structured
proof consisting of axioms and theorems of the logic and basic facts
(delegations by principals).  An instance of Proof describes the statement
that it proves and can verify itself upon request."

Design points taken from the paper:

- *Proofs are facts, not capabilities*: knowing a proof bestows nothing;
  verification only establishes that its conclusion is true.
- *Structured, not linear*: every node "clearly exhibits its own meaning,"
  maps one-to-one onto a verifying object, and lemmas (subproofs) can be
  extracted and reused — the Figure 1 behaviour, where an expired top-level
  proof still yields a valid ``KS => KC·N`` lemma.
- *Methods from a local code base*: proofs received from untrusted parties
  deserialize into locally defined step classes, so verification results
  are trustworthy.
- *Verify once*: expiration lives in the conclusion's validity, so a
  verified proof is matched against requests without re-verification; the
  :class:`VerificationContext` memoizes verified nodes.
"""

from __future__ import annotations

import hashlib as _hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ProofError, VerificationError
from repro.core.principals import principal_from_sexp
from repro.core.statements import (
    Says,
    SpeaksFor,
    Statement,
    Validity,
    statement_from_sexp,
)
from repro.crypto.rsa import RsaPublicKey
from repro.sexp import (
    Atom,
    SExp,
    SList,
    canonical_atom_at,
    canonical_extent,
    parse_canonical,
    parse_canonical_prefix,
    to_canonical,
)
from repro.spki.certificate import Certificate
from repro.tags import Tag


class VerificationContext:
    """Everything a verifier trusts from outside the logic.

    - ``now``: the current time, for matching validity windows;
    - ``trusted_premises``: statements the local environment vouches for
      (e.g. the transport layer's "message M emerged from channel CH");
    - ``revocation``: a policy consulted for every signed certificate.
    """

    def __init__(
        self,
        now: float = 0.0,
        trusted_premises: Optional[Sequence[Statement]] = None,
        revocation=None,
    ):
        self.now = now
        self.trusted_premises: Set[Statement] = set(trusted_premises or ())
        self.revocation = revocation
        # Verified nodes by ``id()``, each held for the context's life: a
        # node freed while its id was still marked would hand that mark to
        # the next node allocated at its address.
        self._verified: Dict[int, "Proof"] = {}

    def trust(self, statement: Statement) -> None:
        """Vouch for a statement (transport layers call this)."""
        self.trusted_premises.add(statement)

    def was_verified(self, proof: "Proof") -> bool:
        return id(proof) in self._verified

    def mark_verified(self, proof: "Proof") -> None:
        self._verified[id(proof)] = proof


class Proof:
    """Base class for proof steps.

    Every step carries its ``conclusion`` and its ``premises`` (subproofs).
    Subclasses implement ``_check`` (validate this one step, assuming the
    premises verified) and payload (de)serialization.
    """

    rule: str = "abstract"

    def __init__(self, conclusion: Statement, premises: Tuple["Proof", ...] = ()):
        if not isinstance(conclusion, Statement):
            raise ProofError("conclusion must be a Statement")
        self._conclusion = conclusion
        self._premises = tuple(premises)
        self._canonical: Optional[bytes] = None
        self._digest: Optional[bytes] = None

    @property
    def conclusion(self) -> Statement:
        return self._conclusion

    @property
    def premises(self) -> Tuple["Proof", ...]:
        return self._premises

    def verify(self, context: VerificationContext) -> None:
        """Verify the whole tree; raises :class:`VerificationError`."""
        if context.was_verified(self):
            return
        for premise in self._premises:
            premise.verify(context)
        self._check(context)
        context.mark_verified(self)

    def _check(self, context: VerificationContext) -> None:
        raise NotImplementedError

    # -- lemma extraction (Figure 1) ------------------------------------

    def lemmas(self) -> Iterator["Proof"]:
        """Yield every subproof (including self), outermost first.

        "It is simple to extract lemmas (subproofs) from structured proofs,
        allowing the prover to digest proofs into reusable components."
        """
        yield self
        for premise in self._premises:
            yield from premise.lemmas()

    def speaks_for_lemmas(self) -> Iterator["Proof"]:
        """Only the lemmas whose conclusions are speaks-for statements."""
        for lemma in self.lemmas():
            if isinstance(lemma.conclusion, SpeaksFor):
                yield lemma

    # -- serialization ----------------------------------------------------

    def to_sexp(self) -> SExp:
        """Wire form, built on request and not kept.

        What a proof memoizes is its canonical *bytes* (:meth:`canonical`)
        — equality, hashing and the digest run on those, and a decoded
        proof is seeded with the bytes it arrived as.  The tree,
        ``(proof rule [payload] [premises] (conclusion ..))``, is for
        callers that embed it (a client attaching its proof), none of
        them on the check path.
        """
        items: List[SExp] = [Atom("proof"), Atom(self.rule)]
        payload = self._payload_sexp()
        if payload is not None:
            items.append(SList([Atom("payload")] + list(payload)))
        if self._premises:
            items.append(
                SList([Atom("premises")] + [p.to_sexp() for p in self._premises])
            )
        items.append(SList([Atom("conclusion"), self._conclusion.to_sexp()]))
        return SList(items)

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return None

    def canonical(self) -> bytes:
        """Canonical wire form, memoized.

        Proof trees are immutable after construction, so serializing once
        and reusing the bytes is safe.  The delegation graph keys every
        edge by this form; memoizing here turns ``DelegationGraph.add``
        from a re-serialization per call into a dict lookup.

        The bytes are assembled in :meth:`to_sexp`'s layout from what
        the parts already memoize — each premise's ``canonical()``, the
        conclusion's ``canonical_key()`` — so a chain composed over
        known lemmas encodes its own step, not their trees again.
        """
        cached = self._canonical
        if cached is None:
            parts = [b"(5:proof", to_canonical(Atom(self.rule))]
            payload = self._payload_sexp()
            if payload is not None:
                parts.append(
                    to_canonical(SList([Atom("payload")] + list(payload)))
                )
            if self._premises:
                parts.append(b"(8:premises")
                parts.extend(p.canonical() for p in self._premises)
                parts.append(b")")
            parts.append(b"(10:conclusion")
            parts.append(self._conclusion.canonical_key())
            parts.append(b"))")
            cached = self._canonical = b"".join(parts)
        return cached

    def digest(self) -> bytes:
        """A fixed-width collision-resistant key for the canonical form."""
        cached = self._digest
        if cached is None:
            cached = self._digest = _hashlib.sha256(self.canonical()).digest()
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.digest())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Proof[%s: %s]" % (self.rule, self._conclusion.display())

    def display_tree(self, indent: int = 0) -> str:
        """Render the proof the way the paper's Figure 1 does, as a tree."""
        lines = ["%s%s: %s" % ("  " * indent, self.rule, self._conclusion.display())]
        for premise in self._premises:
            lines.append(premise.display_tree(indent + 1))
        return "\n".join(lines)


_RULE_REGISTRY: Dict[str, type] = {}


def register_rule(cls):
    """Class decorator: register a step type for wire deserialization."""
    _RULE_REGISTRY[cls.rule] = cls
    return cls


def proof_from_sexp(node: SExp) -> Proof:
    """Reconstruct a proof tree from the wire.

    The step objects come from this local code base (never from the peer),
    so the verification methods are trustworthy even though the proof came
    from an untrusted party.  Every node must carry its conclusion, and
    the conclusion must be exactly what the step derives.
    """
    if not isinstance(node, SList) or node.head() != "proof" or len(node) < 3:
        raise ProofError("expected (proof rule ... (conclusion ..))")
    rule_atom = node.items[1]
    if not isinstance(rule_atom, Atom):
        raise ProofError("proof rule must be an atom")
    rule = rule_atom.text()
    builder = _RULE_REGISTRY.get(rule)
    if builder is None:
        raise ProofError("unknown proof rule %r" % rule)
    payload_field = node.find("payload")
    payload = list(payload_field.tail()) if payload_field is not None else []
    premises_field = node.find("premises")
    premises = (
        [proof_from_sexp(item) for item in premises_field.tail()]
        if premises_field is not None
        else []
    )
    conclusion_field = node.find("conclusion")
    if conclusion_field is None or len(conclusion_field) != 2:
        raise ProofError("proof missing conclusion")
    conclusion = statement_from_sexp(conclusion_field.items[1])
    proof = builder._from_parts(payload, premises, conclusion)
    # The claimed conclusion must be exactly what the step derives; a
    # mismatch is tampering, caught here rather than at verify time so
    # the object can never exist in an inconsistent state.
    if proof.conclusion != conclusion:
        raise ProofError("conclusion does not match rule derivation")
    # Adopt the bytes the parser consumed as the proof's canonical form:
    # honest encoders are deterministic, so they equal what to_sexp would
    # re-encode, and decode → digest → dedup never serializes.  The
    # bytes, not the parsed node — a kept proof must not pin its parse
    # tree.
    proof._canonical = to_canonical(node)
    return proof


# -- reading a presented proof from its bytes --------------------------------

#: What :meth:`Proof.canonical` writes before the first field the reader
#: decodes, for the two steps a client presents: a signed certificate
#: (up to its issuer key) and a transitivity step (up to its premises).
_SIGNED_STEP = (
    b"(5:proof18:signed-certificate(7:payload(11:signed-cert(4:cert(6:issuer"
)
_TRANSITIVE_STEP = b"(5:proof12:transitivity(8:premises"


class _Decline(ValueError):
    """The bytes leave the encoder's layout: the tree path decides them."""


def proof_from_canonical(data: bytes, metrics=None, subject=None) -> Proof:
    """Decode a presented proof from its canonical bytes in one pass.

    ``signed-certificate`` and ``transitivity`` steps laid out exactly
    as :meth:`Proof.canonical` writes them are read by length prefixes:
    skeleton atoms are matched as bytes, the issuer key and the tag are
    looked up by their bytes among those decoded before, and only the
    subject, validity and never-seen key and tag subtrees are parsed,
    each through the decoder the tree path uses.  ``subject`` is the
    principal the caller already decoded for the chain's speaker: when
    the first certificate's subject bytes are its ``canonical_key()``,
    that object is the certificate's subject (canonical form is
    injective, so it is the principal the decoder would build), and a
    kept proof holds one subject, not two equal ones.  The claimed
    conclusion is never decoded: the step's own is encoded and compared
    with the bytes in place, and the proof adopts the bytes consumed as
    its ``canonical()``.

    Invariant: this returns a proof equal to
    ``proof_from_sexp(parse_canonical(data))`` — the same
    ``canonical()``, conclusion and certificate fields — or it declines
    to exactly that call, which owns every error and the language
    accepted.  It declines on another rule or a name certificate, a
    field missing or out of the encoder's order, a display hint or a
    leading-zero length in a subtree it parses, trailing bytes, and a
    claimed conclusion that differs.  A decline is counted in
    ``core.proofs.reader_declines`` on ``metrics`` (the caller's
    registry) when one is given.
    """
    try:
        proof, end = _read_step(data, 0, subject)
        if end == len(data):
            return proof
    except (ValueError, ProofError):
        pass
    if metrics is not None:
        metrics.inc("core.proofs.reader_declines")
    return proof_from_sexp(parse_canonical(data))


def _read_step(data: bytes, start: int, subject) -> Tuple[Proof, int]:
    """One step at ``start`` and its end; ``subject`` is the caller's
    principal for the step's subject, or ``None``."""
    if data.startswith(_SIGNED_STEP, start):
        certificate, pos = _read_certificate(
            data, start + len(_SIGNED_STEP), subject
        )
        proof: Proof = SignedCertificateStep(certificate)
        pos = _expect(data, pos, b")")
    else:
        pos = _expect(data, start, _TRANSITIVE_STEP)
        # The chain's subject is its first premise's subject.
        left, pos = _read_step(data, pos, subject)
        right, pos = _read_step(data, pos, None)
        pos = _expect(data, pos, b")")
        proof = _RULE_REGISTRY["transitivity"](left, right)
    end = _expect(
        data, pos, b"(10:conclusion%s))" % proof.conclusion.canonical_key()
    )
    proof._canonical = data[start:end]
    return proof, end


def _read_certificate(
    data: bytes, pos: int, subject
) -> Tuple[Certificate, int]:
    """A ``(signed-cert ..)`` without an issuer name, in
    :meth:`Certificate.to_sexp`'s field order, from its issuer key on;
    ``subject`` is adopted when its ``canonical_key()`` is the subject's
    bytes."""
    # Canonical form is prefix-free: if the bytes up to the subject field
    # are a key decoded before, they are the whole expression at ``pos``.
    end = data.find(b")(7:subject", pos)
    issuer_key = RsaPublicKey.interned(data[pos:end]) if end > pos else None
    if issuer_key is None:
        node, end = _leaf(data, pos)
        issuer_key = RsaPublicKey.from_sexp(node)
    pos = _expect(data, end, b")(7:subject")
    # Prefix-free again: bytes starting with a whole expression's
    # encoding hold exactly that expression.
    known = subject.canonical_key() if subject is not None else None
    if known is not None and data.startswith(known, pos):
        pos += len(known)
    else:
        node, pos = _leaf(data, pos)
        subject = principal_from_sexp(node)
    pos = _expect(data, pos, b")")
    if not data.startswith(b"(3:tag", pos):
        raise _Decline("no tag at byte %d" % pos)
    end = canonical_extent(data, pos)
    tag = Tag.interned(data[pos:end]) if end is not None else None
    if tag is None:
        node, end = _leaf(data, pos)
        tag = Tag.from_sexp(node)
    pos = end
    validity = Validity.ALWAYS
    if data.startswith(b"(5:valid", pos):
        node, pos = _leaf(data, pos)
        validity = Validity.from_sexp(node)
    serial, pos = _atom(data, _expect(data, pos, b"(6:serial"))
    pos = _expect(data, pos, b")")
    propagate = data.startswith(b"(9:propagate)", pos)
    if propagate:
        pos += len(b"(9:propagate)")
    signature, pos = _atom(data, _expect(data, pos, b")(9:signature"))
    certificate = Certificate(
        issuer_key, subject, tag, validity, serial, propagate, signature
    )
    return certificate, _expect(data, pos, b"))")


def _expect(data: bytes, pos: int, literal: bytes) -> int:
    if not data.startswith(literal, pos):
        raise _Decline("not the encoder's layout at byte %d" % pos)
    return pos + len(literal)


def _atom(data: bytes, pos: int) -> Tuple[bytes, int]:
    read = canonical_atom_at(data, pos, len(data))
    if read is None:
        raise _Decline("no plain atom at byte %d" % pos)
    return read


def _leaf(data: bytes, pos: int) -> Tuple[SExp, int]:
    """The subtree at ``pos`` and its end, for a node decoder: only when
    its bytes are verbatim canonical and carry no display hint, the two
    things a decoded value does not re-encode."""
    node, end = parse_canonical_prefix(data, pos)
    if node._canonical is None:
        raise _Decline("leading-zero length in the subtree at byte %d" % pos)
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, SList):
            stack.extend(item.items)
        elif item.hint is not None:
            raise _Decline("display hint in the subtree at byte %d" % pos)
    return node, end


@register_rule
class PremiseStep(Proof):
    """An assumption vouched for outside the logic.

    "Logical assumptions represent statements that a principal believes
    based on some verification (outside the logic), such as the result of a
    digital signature verification" — here, the non-signature kind: channel
    bindings asserted by the transport, or the trusted host identifying
    local IPC endpoints.  Verification succeeds only if the *local*
    environment currently vouches for the statement; a premise shipped by
    an adversary proves nothing to a verifier that does not trust it.
    """

    rule = "premise"

    def __init__(self, statement: Statement):
        super().__init__(statement)

    def _check(self, context: VerificationContext) -> None:
        if self._conclusion not in context.trusted_premises:
            raise VerificationError(
                "premise not vouched for locally: %s" % self._conclusion.display()
            )

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if premises:
            raise ProofError("premise steps take no subproofs")
        return cls(conclusion)


@register_rule
class SignedCertificateStep(Proof):
    """A delegation justified by a digital signature.

    Conclusion: ``subject =tag=> issuer-key`` with the certificate's
    validity.  ``_check`` re-verifies the signature and consults the
    context's revocation policy, so tampering with any field of a
    transmitted certificate is caught.
    """

    rule = "signed-certificate"

    def __init__(self, certificate: Certificate):
        self.certificate = certificate
        super().__init__(certificate.statement())

    def _check(self, context: VerificationContext) -> None:
        if not self.certificate.verify_signature():
            raise VerificationError(
                "bad signature on certificate %s" % self.certificate.serial.hex()
            )
        if context.revocation is not None:
            context.revocation.check(self.certificate, context.now)

    def _payload_sexp(self) -> Optional[List[SExp]]:
        return [self.certificate.to_sexp()]

    @classmethod
    def _from_parts(cls, payload, premises, conclusion):
        if len(payload) != 1 or premises:
            raise ProofError("signed-certificate carries exactly one certificate")
        return cls(Certificate.from_sexp(payload[0]))


def proof_citations(
    proof: Proof,
) -> Tuple[Tuple[bytes, ...], Tuple[bytes, ...], Tuple[Statement, ...]]:
    """What ``proof`` leans on, as ``(serials, lemma digests, premises)``:
    the serial of every signed certificate in the tree, the digest of
    every lemma (the proof's own first), and the statement of every
    premise leaf.

    These are the three things an invalidation event can name — a
    revoked serial, a retracted delegation's digest, a closed channel's
    binding — so this is the one definition of "cites" that the proof
    cache and the delegation graph index by.  A thing cited twice is listed twice; the indexes do not mind.
    """
    serials: List[bytes] = []
    digests: List[bytes] = []
    premises: List[Statement] = []
    # ``proof.lemmas()`` order, without a generator frame per level: every
    # graph edge and every cache entry is built through here.
    stack = [proof]
    while stack:
        lemma = stack.pop()
        digests.append(lemma.digest())
        if isinstance(lemma, PremiseStep):
            premises.append(lemma.conclusion)
        elif isinstance(lemma, SignedCertificateStep):
            serials.append(lemma.certificate.serial)
        stack.extend(reversed(lemma.premises))
    return tuple(serials), tuple(digests), tuple(premises)


class CitationIndex:
    """cited thing -> the holders whose proofs cite it, in listing order.

    The reverse of :func:`proof_citations`, kept at insert and remove by
    whoever owns the holders, so an invalidation event looks its victims
    up instead of reading everything held.  Most things are cited by one
    holder (a session's certificate, a proof's own digest), and a cache
    pays for its index once per insert, so a lone holder is stored bare
    and only a second one buys a container — an insertion-ordered dict,
    which makes the order a purge visits its victims in the order they
    arrived, on every run.  A holder is anything hashable except ``None``.
    """

    __slots__ = ("_held",)

    def __init__(self):
        self._held: Dict[object, object] = {}

    def add(self, cited, holder) -> None:
        held = self._held.get(cited)
        if held is None:
            self._held[cited] = holder
        elif type(held) is dict:
            held[holder] = None
        elif held != holder:
            self._held[cited] = {held: None, holder: None}

    def discard(self, cited, holder) -> None:
        held = self._held.get(cited)
        if type(held) is dict:
            held.pop(holder, None)
            if len(held) == 1:
                (self._held[cited],) = held
        elif held is not None and held == holder:
            del self._held[cited]

    def holders(self, cited) -> Tuple[object, ...]:
        """A snapshot: the caller may unlist holders while walking it."""
        held = self._held.get(cited)
        if held is None:
            return ()
        if type(held) is dict:
            return tuple(held)
        return (held,)

    def clear(self) -> None:
        self._held.clear()

    def __len__(self) -> int:
        return len(self._held)

    def __iter__(self) -> Iterator[object]:
        return iter(self._held)


def authorizes(
    proof: Proof,
    speaker,
    issuer,
    request,
    context: VerificationContext,
) -> None:
    """The server's final access check.

    Confirms that ``proof`` is valid and concludes ``speaker =T=> issuer``
    with the concrete ``request`` inside ``T`` and the window containing
    ``context.now``.  "The step of matching a request to a proof
    automatically disregards expired conclusions" (Section 4.3).

    Raises :class:`VerificationError` if the proof fails, or
    :class:`repro.core.errors.AuthorizationError` if it proves the wrong
    thing.
    """
    from repro.core.errors import AuthorizationError
    from repro.sexp import sexp

    proof.verify(context)
    conclusion = proof.conclusion
    if not isinstance(conclusion, SpeaksFor):
        raise AuthorizationError("proof does not conclude a speaks-for")
    if conclusion.subject != speaker:
        raise AuthorizationError(
            "proof subject %s is not the requesting principal %s"
            % (conclusion.subject.display(), speaker.display())
        )
    if conclusion.issuer != issuer:
        raise AuthorizationError(
            "proof issuer %s is not the resource issuer %s"
            % (conclusion.issuer.display(), issuer.display())
        )
    if not conclusion.validity.contains(context.now):
        raise AuthorizationError("proof conclusion has expired")
    if not conclusion.tag.matches(sexp(request)):
        raise AuthorizationError(
            "request %s is outside the proven restriction set"
            % sexp(request).to_advanced()
        )
