"""Signed delegation certificates.

A certificate is the wire form of a basic fact: the issuer key's holder
signed a statement that *subject speaks for issuer-key regarding tag,
within validity*.  Verifying the signature justifies the logical assumption
``K says (subject =tag=> K)``, which the hand-off rule turns into
``subject =tag=> K`` — the conclusion of a signed-certificate proof step.

SPKI's ``propagate`` (delegation) bit is carried for interoperability and
honored by the SPKI sequence verifier; the Snowflake logic itself treats
speaks-for as transitive, per the paper's semantics.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.principals import KeyPrincipal, Principal, principal_from_sexp
from repro.core.statements import SpeaksFor, Validity
from repro.crypto.rng import default_rng
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.sexp import Atom, SExp, SList, to_canonical
from repro.tags import Tag


def _atom_value(field: SList) -> bytes:
    """The bytes of a ``(<name> <atom>)`` field; any other shape is a
    malformed certificate, refused as such."""
    if len(field) != 2 or not isinstance(field.items[1], Atom):
        raise ValueError("certificate field %r needs one atom" % field.head())
    return field.items[1].value


class Certificate:
    """An issued, signed delegation.

    When ``issuer_name`` is set, this is an SPKI/SDSI *name certificate*:
    the issuing principal is the compound name ``K·name`` (or ``H(K)·name``
    with ``issuer_via_hash``), still signed by ``K`` — the form behind
    Figure 1's ``KS => HKC·N`` edge.
    """

    __slots__ = (
        "issuer_key",
        "subject",
        "tag",
        "validity",
        "serial",
        "propagate",
        "signature",
        "issuer_name",
        "issuer_via_hash",
    )

    def __init__(
        self,
        issuer_key: RsaPublicKey,
        subject: Principal,
        tag: Tag,
        validity: Validity,
        serial: bytes,
        propagate: bool,
        signature: bytes,
        issuer_name: Optional[str] = None,
        issuer_via_hash: bool = False,
    ):
        self.issuer_key = issuer_key
        self.subject = subject
        self.tag = tag
        self.validity = validity
        self.serial = serial
        self.propagate = propagate
        self.signature = signature
        self.issuer_name = issuer_name
        self.issuer_via_hash = issuer_via_hash

    @classmethod
    def issue(
        cls,
        issuer: RsaKeyPair,
        subject: Principal,
        tag: Tag,
        validity: Validity = Validity.ALWAYS,
        serial: Optional[bytes] = None,
        propagate: bool = True,
        rng: Optional[random.Random] = None,
        issuer_name: Optional[str] = None,
        issuer_via_hash: bool = False,
    ) -> "Certificate":
        """Sign a new delegation with the issuer's private key."""
        if serial is None:
            rng = default_rng(rng)
            serial = bytes(rng.getrandbits(8) for _ in range(8))
        certificate = cls(
            issuer.public, subject, tag, validity, serial, propagate, b"",
            issuer_name, issuer_via_hash,
        )
        certificate.signature = issuer.sign(certificate.body_canonical())
        return certificate

    def body_sexp(self) -> SExp:
        issuer_field = [Atom("issuer"), self.issuer_key.to_sexp()]
        if self.issuer_name is not None:
            issuer_field.append(
                SList([Atom("issuer-name"), Atom(self.issuer_name)])
            )
            if self.issuer_via_hash:
                issuer_field.append(SList([Atom("via-hash")]))
        items = [
            Atom("cert"),
            SList(issuer_field),
            SList([Atom("subject"), self.subject.to_sexp()]),
            self.tag.to_sexp(),
        ]
        if not self.validity.is_unbounded():
            items.append(self.validity.to_sexp())
        items.append(SList([Atom("serial"), Atom(self.serial)]))
        if self.propagate:
            items.append(SList([Atom("propagate")]))
        return SList(items)

    def body_canonical(self) -> bytes:
        """:meth:`body_sexp`'s canonical bytes, assembled from what the
        parts already memoize — the issuer key's node, the subject's
        ``canonical_key``, the tag's — instead of building a tree to
        encode and drop."""
        parts = [b"(4:cert(6:issuer", to_canonical(self.issuer_key.to_sexp())]
        if self.issuer_name is not None:
            name = self.issuer_name.encode("utf-8")
            parts.append(b"(11:issuer-name%d:%s)" % (len(name), name))
            if self.issuer_via_hash:
                parts.append(b"(8:via-hash)")
        parts += [
            b")(7:subject", self.subject.canonical_key(), b")",
            self.tag.canonical_key(),
        ]
        if not self.validity.is_unbounded():
            parts.append(self.validity.canonical_key())
        parts.append(b"(6:serial%d:%s)" % (len(self.serial), self.serial))
        if self.propagate:
            parts.append(b"(9:propagate)")
        parts.append(b")")
        return b"".join(parts)

    def verify_signature(self) -> bool:
        return self.issuer_key.verify(self.body_canonical(), self.signature)

    def issuer_principal(self) -> Principal:
        base: Principal = KeyPrincipal.of(self.issuer_key)
        if self.issuer_name is None:
            return base
        if self.issuer_via_hash:
            from repro.core.principals import HashPrincipal

            base = HashPrincipal(self.issuer_key.fingerprint())
        from repro.core.principals import NamePrincipal

        return NamePrincipal(base, self.issuer_name)

    def statement(self) -> SpeaksFor:
        """The delegation this certificate proves (when the signature checks)."""
        return SpeaksFor(self.subject, self.issuer_principal(), self.tag, self.validity)

    def to_sexp(self) -> SExp:
        return SList(
            [
                Atom("signed-cert"),
                self.body_sexp(),
                SList([Atom("signature"), Atom(self.signature)]),
            ]
        )

    @classmethod
    def from_sexp(cls, node: SExp) -> "Certificate":
        if (
            not isinstance(node, SList)
            or node.head() != "signed-cert"
            or len(node) != 3
        ):
            raise ValueError("expected (signed-cert body (signature ..))")
        body = node.items[1]
        sig_field = node.items[2]
        if not isinstance(body, SList) or body.head() != "cert":
            raise ValueError("bad certificate body")
        if (
            not isinstance(sig_field, SList)
            or sig_field.head() != "signature"
            or len(sig_field) != 2
        ):
            raise ValueError("bad certificate signature field")
        issuer_field = body.find("issuer")
        subject_field = body.find("subject")
        tag_field = body.find("tag")
        serial_field = body.find("serial")
        if issuer_field is None or subject_field is None or tag_field is None:
            raise ValueError("certificate missing issuer/subject/tag")
        validity_field = body.find("valid")
        validity = (
            Validity.from_sexp(validity_field)
            if validity_field is not None
            else Validity.ALWAYS
        )
        if len(issuer_field) < 2 or len(subject_field) < 2:
            raise ValueError("certificate issuer/subject field is empty")
        issuer_key = RsaPublicKey.from_sexp(issuer_field.items[1])
        name_field = issuer_field.find("issuer-name")
        issuer_name = (
            _atom_value(name_field).decode("utf-8")
            if name_field is not None
            else None
        )
        issuer_via_hash = issuer_field.find("via-hash") is not None
        serial = _atom_value(serial_field) if serial_field is not None else b""
        propagate = body.find("propagate") is not None
        return cls(
            issuer_key,
            principal_from_sexp(subject_field.items[1]),
            Tag.from_sexp(tag_field),
            validity,
            serial,
            propagate,
            _atom_value(sig_field),
            issuer_name,
            issuer_via_hash,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.to_sexp() == other.to_sexp()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.to_sexp())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Certificate(%s)" % self.statement().display()
