"""SPKI sequences: linear proofs for a stack-machine verifier.

Section 4.3: "SPKI's sequence objects also represent proofs of authority.
SPKI sequences are poorly defined, but they are linear programs apparently
intended to run on a simple verifier implemented as a stack machine."

We implement that machine faithfully — including the SPKI 5-tuple
reduction rule that honors the ``propagate`` (delegation) bit — both for
interoperability and for the paper's comparison: unlike structured proofs,
a sequence's meaning is only established by an *external* argument that the
machine corresponds to the logic, and lemma extraction is impossible
without re-running the program.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.statements import SpeaksFor, Validity
from repro.sexp import Atom, SExp, SList
from repro.spki.certificate import Certificate
from repro.tags import Tag


class SequenceError(ValueError):
    """The sequence program is malformed or fails verification."""


class _Frame:
    """A 5-tuple-style stack entry: a reduced speaks-for plus propagate."""

    __slots__ = ("subject", "issuer", "tag", "validity", "propagate")

    def __init__(self, subject, issuer, tag, validity, propagate):
        self.subject = subject
        self.issuer = issuer
        self.tag = tag
        self.validity = validity
        self.propagate = propagate

    def statement(self) -> SpeaksFor:
        return SpeaksFor(self.subject, self.issuer, self.tag, self.validity)


class PushCert:
    """Opcode: verify a certificate's signature and push its 5-tuple."""

    __slots__ = ("certificate",)

    def __init__(self, certificate: Certificate):
        self.certificate = certificate

    def to_sexp(self) -> SExp:
        return SList([Atom("push-cert"), self.certificate.to_sexp()])


class Compose:
    """Opcode: pop two frames and push their 5-tuple reduction."""

    __slots__ = ()

    def to_sexp(self) -> SExp:
        return SList([Atom("compose")])


Op = Union[PushCert, Compose]


class Sequence:
    """A linear proof: an opcode program."""

    def __init__(self, ops: List[Op]):
        self.ops = list(ops)

    @classmethod
    def from_chain(cls, certificates: List[Certificate]) -> "Sequence":
        """Compile a root-to-leaf certificate chain into a program.

        ``certificates[0]`` is the delegation closest to the final issuer;
        each later certificate is issued by the previous subject.
        """
        ops: List[Op] = []
        for index, certificate in enumerate(certificates):
            ops.append(PushCert(certificate))
            if index:
                ops.append(Compose())
        return cls(ops)

    def to_sexp(self) -> SExp:
        return SList([Atom("sequence")] + [op.to_sexp() for op in self.ops])

    @classmethod
    def from_sexp(cls, node: SExp) -> "Sequence":
        if not isinstance(node, SList) or node.head() != "sequence":
            raise SequenceError("expected (sequence ...)")
        ops: List[Op] = []
        for item in node.tail():
            if not isinstance(item, SList):
                raise SequenceError("opcode must be a list")
            head = item.head()
            if head == "push-cert":
                if len(item) != 2:
                    raise SequenceError("push-cert takes one certificate")
                ops.append(PushCert(Certificate.from_sexp(item.items[1])))
            elif head == "compose":
                ops.append(Compose())
            else:
                raise SequenceError("unknown opcode %r" % head)
        return cls(ops)

    def __len__(self) -> int:
        return len(self.ops)


class SequenceVerifier:
    """The stack machine.

    ``run`` executes the program and returns the single remaining frame's
    statement; any signature failure, stack underflow, broken chain link,
    missing delegation permission, or leftover frames is an error.
    """

    def __init__(self, now: float = 0.0, revocation=None):
        self.now = now
        self.revocation = revocation

    def run(self, sequence: Sequence) -> SpeaksFor:
        stack: List[_Frame] = []
        for op in sequence.ops:
            if isinstance(op, PushCert):
                stack.append(self._load(op.certificate))
            elif isinstance(op, Compose):
                self._compose(stack)
            else:  # pragma: no cover - type guard
                raise SequenceError("unknown opcode object %r" % (op,))
        if len(stack) != 1:
            raise SequenceError(
                "program left %d frames on the stack (want 1)" % len(stack)
            )
        frame = stack[0]
        if not frame.validity.contains(self.now):
            raise SequenceError("reduced certificate chain has expired")
        return frame.statement()

    def _load(self, certificate: Certificate) -> _Frame:
        if not certificate.verify_signature():
            raise SequenceError(
                "bad signature on certificate %s" % certificate.serial.hex()
            )
        if self.revocation is not None:
            self.revocation.check(certificate, self.now)
        return _Frame(
            certificate.subject,
            certificate.issuer_principal(),
            certificate.tag,
            certificate.validity,
            certificate.propagate,
        )

    @staticmethod
    def _compose(stack: List[_Frame]) -> None:
        if len(stack) < 2:
            raise SequenceError("compose underflow")
        later = stack.pop()   # B =T2=> C, where C was delegated by...
        earlier = stack.pop()  # A' =T1=> A: the delegation closer to the root
        if earlier.subject != later.issuer:
            raise SequenceError(
                "chain break: %s does not issue %s"
                % (earlier.statement().display(), later.statement().display())
            )
        if not earlier.propagate:
            raise SequenceError(
                "delegation not permitted: propagate bit unset on the upstream cert"
            )
        try:
            validity = earlier.validity.intersect(later.validity)
        except ValueError:
            raise SequenceError("validity windows are disjoint")
        stack.append(
            _Frame(
                later.subject,
                earlier.issuer,
                earlier.tag.intersect(later.tag),
                validity,
                later.propagate,
            )
        )
