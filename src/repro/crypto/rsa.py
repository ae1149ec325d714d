"""From-scratch RSA: keygen, hash-then-sign signatures, raw block crypt.

The signature scheme is deliberately simple (hash the message, pad the
digest, exponentiate): the logic layer only needs "verify passes ⇒ the key
holder uttered this canonical byte string", which is the assumption the
paper maps to ``K says x``.  Padding is a fixed-format PKCS#1-v1.5-style
block so that malleability tests have something real to attack.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto import numtheory
from repro.crypto.rng import default_rng
from repro.crypto.hashes import HashValue, _ALGORITHMS
from repro.sexp import Atom, SExp, SList, to_canonical
from repro.sexp.intern import InternTable

DEFAULT_BITS = 1024
DEFAULT_EXPONENT = 65537
_SIG_HASH = "sha256"


#: Decoded keys by their canonical bytes (see ``RsaPublicKey.from_sexp``).
_DECODED_KEYS: InternTable["RsaPublicKey"] = InternTable()


def _key_number(body: SList, name: str) -> int:
    """The integer in an ``(rsa ...)`` body's ``(<name> <bytes>)`` field.
    A field without exactly one atom value is a malformed key."""
    field = body.find(name)
    if field is None or len(field) != 2 or not isinstance(field.items[1], Atom):
        raise ValueError("public key field %r needs exactly one value" % name)
    return numtheory.bytes_to_int(field.items[1].value)


class RsaPublicKey:
    """An RSA public key, serializable as ``(public-key (rsa (e ..) (n ..)))``."""

    __slots__ = ("n", "e", "_hash_cache", "_node")

    def __init__(self, n: int, e: int):
        self.n = n
        self.e = e
        self._hash_cache = None
        self._node = None

    def bit_length(self) -> int:
        return self.n.bit_length()

    def to_sexp(self) -> SExp:
        """Wire form, memoized: keys are immutable in practice and their
        encoding (two bignum-to-bytes conversions) shows up on every
        certificate and speaks-for that embeds the key, so it is built
        at most once.  ``from_sexp`` seeds the memo with the node it
        decoded."""
        node = self._node
        if node is None:
            node = self._node = SList(
                [
                    Atom("public-key"),
                    SList(
                        [
                            Atom("rsa"),
                            SList([Atom("e"), Atom(numtheory.int_to_bytes(self.e))]),
                            SList([Atom("n"), Atom(numtheory.int_to_bytes(self.n))]),
                        ]
                    ),
                ]
            )
        return node

    @classmethod
    def from_sexp(cls, node: SExp) -> "RsaPublicKey":
        """Decode a key, sharing one instance per distinct encoding.

        A server sees the same few issuer keys in every certificate it
        is shown, and every kept proof keeps its certificate's key — so
        decoded keys are interned by the canonical bytes of ``node``
        (:class:`~repro.sexp.intern.InternTable`).  Keys are value
        objects, so sharing one only shares its memoized node and
        fingerprint; equal bytes decode to the equal key, so a hit is
        exactly what the decode below would have built."""
        if (
            not isinstance(node, SList)
            or node.head() != "public-key"
            or len(node) != 2
        ):
            raise ValueError("expected (public-key <key>), got %r" % (node,))
        wire = to_canonical(node)
        known = _DECODED_KEYS.get(wire)
        if known is not None:
            return known
        body = node.items[1]
        if not isinstance(body, SList) or body.head() != "rsa":
            raise ValueError("only rsa public keys are supported")
        key = cls(_key_number(body, "n"), _key_number(body, "e"))
        # Honest encoders are deterministic, so the parsed node (whose
        # canonical bytes the parser already memoized) is the encoding
        # this key would rebuild; decoded keys never re-serialize.
        key._node = node
        return _DECODED_KEYS.add(wire, key)

    @staticmethod
    def interned(wire: bytes) -> Optional["RsaPublicKey"]:
        """The key :meth:`from_sexp` decoded earlier from exactly these
        canonical bytes, or ``None``: a byte reader finds a known issuer
        without building its node."""
        return _DECODED_KEYS.get(wire)

    def fingerprint(self) -> HashValue:
        """The SPKI name of this key: hash of its canonical S-expression."""
        if self._hash_cache is None:
            self._hash_cache = HashValue.of_sexp(self.to_sexp())
        return self._hash_cache

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a hash-then-sign signature over ``message``."""
        sig_int = numtheory.bytes_to_int(signature)
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        expected = numtheory.bytes_to_int(_pad_digest(message, self.n))
        return recovered == expected

    def encrypt_block(self, block: int) -> int:
        """Raw RSA on an integer block (used for MAC handoff / key exchange)."""
        if not 0 <= block < self.n:
            raise ValueError("block out of range for modulus")
        return pow(block, self.e, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RsaPublicKey):
            return NotImplemented
        return self.n == other.n and self.e == other.e

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((RsaPublicKey, self.n, self.e))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RsaPublicKey(%d bits, %s)" % (
            self.bit_length(),
            self.fingerprint().digest.hex()[:12],
        )


class RsaPrivateKey:
    """The private half; holds CRT parameters for fast exponentiation."""

    __slots__ = ("n", "e", "d", "p", "q", "d_p", "d_q", "q_inv")

    def __init__(self, n: int, e: int, d: int, p: int, q: int):
        self.n = n
        self.e = e
        self.d = d
        self.p = p
        self.q = q
        self.d_p = d % (p - 1)
        self.d_q = d % (q - 1)
        self.q_inv = numtheory.invmod(q, p)

    def _private_op(self, value: int) -> int:
        # CRT: ~4x faster than pow(value, d, n).
        m1 = pow(value % self.p, self.d_p, self.p)
        m2 = pow(value % self.q, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign(self, message: bytes) -> bytes:
        padded = numtheory.bytes_to_int(_pad_digest(message, self.n))
        return numtheory.int_to_bytes(self._private_op(padded))

    def decrypt_block(self, block: int) -> int:
        if not 0 <= block < self.n:
            raise ValueError("block out of range for modulus")
        return self._private_op(block)


class RsaKeyPair:
    """A public/private key pair."""

    __slots__ = ("public", "private")

    def __init__(self, public: RsaPublicKey, private: RsaPrivateKey):
        self.public = public
        self.private = private

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)

    def fingerprint(self) -> HashValue:
        return self.public.fingerprint()


def generate_keypair(
    bits: int = DEFAULT_BITS,
    rng: Optional[random.Random] = None,
    exponent: int = DEFAULT_EXPONENT,
) -> RsaKeyPair:
    """Generate an RSA key pair.

    Pass a seeded ``random.Random`` for reproducible keys in tests; the
    default uses system entropy.
    """
    rng = default_rng(rng)
    half = bits // 2
    while True:
        p = numtheory.generate_prime(half, rng)
        q = numtheory.generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if numtheory.egcd(exponent, phi)[0] != 1:
            continue
        d = numtheory.invmod(exponent, phi)
        public = RsaPublicKey(n, exponent)
        private = RsaPrivateKey(n, exponent, d, p, q)
        return RsaKeyPair(public, private)


def _pad_digest(message: bytes, modulus: int) -> bytes:
    """PKCS#1-v1.5-style padding of the message digest to the modulus size."""
    digest = _ALGORITHMS[_SIG_HASH](message).digest()
    size = (modulus.bit_length() + 7) // 8
    marker = _SIG_HASH.encode("ascii")
    payload = marker + b":" + digest
    padding_len = size - len(payload) - 3
    if padding_len < 0:
        raise ValueError(
            "modulus too small for %s signatures (%d bytes)" % (_SIG_HASH, size)
        )
    return b"\x00\x01" + b"\xff" * padding_len + b"\x00" + payload
