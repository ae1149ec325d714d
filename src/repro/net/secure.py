"""The secure channel: an ssh-like protocol with the channel as principal.

Section 5.1: the server uses host key ``K1`` and the client key ``K2`` in a
key exchange establishing symmetric session key ``KCH``.  "The ssh
implementation promises that M => KCH.  The initial key exchange convinced
the server that KCH => K2, and the client may explicitly establish that
K2 => PC."

Wire protocol (canonical S-expressions over a raw transport):

1. client → server::

       (kex (client-key K2) (sealed |RSA_K1(secret)|) (signature |sig_K2|))

   where the signature covers ``(kex-bind H(secret) H(K1))`` — proving the
   client holds K2's private half and binding the secret to this server.
2. server → client::

       (kex-ack (signature |sig_K1|))

   over ``(kex-ack-bind H(secret) H(K2))`` — proving the server holds K1.
3. records, both directions::

       (rec (seq n) (ct |..|) (mac |..|))

   with an HMAC-keyed XOR keystream; each record optionally carries a
   quoting claim, making the utterer ``KCH | quotee`` (Section 4.2).

After the exchange, the server's :class:`TrustEnvironment` vouches
``KCH =(*)=> K2`` and, per delivered request, ``speaker says request``.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Callable, Optional

from repro.core.principals import (
    ChannelPrincipal,
    KeyPrincipal,
    Principal,
    principal_from_sexp,
)
from repro.core.statements import SpeaksFor
from repro.crypto.hashes import HashValue
from repro.crypto.numtheory import bytes_to_int, int_to_bytes
from repro.crypto.rng import default_rng, random_bytes
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.guard import AuthBackend, ChannelCredential, GuardRequest, resolve_backend
from repro.net.network import Connection, ServerFactory, Transport
from repro.net.trust import TrustEnvironment
from repro.sexp import Atom, SExp, SList, parse_canonical, to_canonical
from repro.sim.costmodel import Meter, maybe_charge

_SECRET_BYTES = 32


class ChannelError(ConnectionError):
    """Handshake or record-layer failure."""


def _keystream(secret: bytes, seq: int, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hmac.new(
            secret,
            seq.to_bytes(8, "big") + counter.to_bytes(4, "big"),
            hashlib.sha256,
        ).digest()
        out += block
        counter += 1
    return bytes(out[:length])


def _record_mac(secret: bytes, seq: int, ciphertext: bytes) -> bytes:
    return hmac.new(
        secret, b"mac" + seq.to_bytes(8, "big") + ciphertext, hashlib.md5
    ).digest()


def _seal_record(secret: bytes, seq: int, plaintext: bytes) -> SExp:
    ciphertext = bytes(
        a ^ b for a, b in zip(plaintext, _keystream(secret, seq, len(plaintext)))
    )
    return SList(
        [
            Atom("rec"),
            SList([Atom("seq"), Atom(str(seq))]),
            SList([Atom("ct"), Atom(ciphertext)]),
            SList([Atom("mac"), Atom(_record_mac(secret, seq, ciphertext))]),
        ]
    )


def _open_record(secret: bytes, node: SExp, expected_seq: int) -> bytes:
    if not isinstance(node, SList) or node.head() != "rec":
        raise ChannelError("expected an encrypted record")
    seq_field = node.find("seq")
    ct_field = node.find("ct")
    mac_field = node.find("mac")
    if seq_field is None or ct_field is None or mac_field is None:
        raise ChannelError("record missing fields")
    seq = int(seq_field.items[1].text())
    if seq != expected_seq:
        raise ChannelError(
            "record out of order: got %d, expected %d (replay?)"
            % (seq, expected_seq)
        )
    ciphertext = ct_field.items[1].value
    if not hmac.compare_digest(
        _record_mac(secret, seq, ciphertext), mac_field.items[1].value
    ):
        raise ChannelError("record integrity check failed")
    return bytes(
        a ^ b for a, b in zip(ciphertext, _keystream(secret, seq, len(ciphertext)))
    )


def _kex_bind(secret: bytes, peer_key: RsaPublicKey) -> bytes:
    return to_canonical(
        SList(
            [
                Atom("kex-bind"),
                HashValue.of_bytes(secret).to_sexp(),
                peer_key.fingerprint().to_sexp(),
            ]
        )
    )


def _kex_ack_bind(secret: bytes, peer_key: RsaPublicKey) -> bytes:
    return to_canonical(
        SList(
            [
                Atom("kex-ack-bind"),
                HashValue.of_bytes(secret).to_sexp(),
                peer_key.fingerprint().to_sexp(),
            ]
        )
    )


class SecureChannelService:
    """What a server mounts behind a secure channel.

    ``handle_request(request, speaker, connection)`` receives the decrypted
    request S-expression and the principal that uttered it (the channel, or
    channel-quoting-someone), and returns the response S-expression.
    """

    def handle_request(self, request: SExp, speaker: Principal, connection) -> SExp:
        raise NotImplementedError


class SecureChannelServer(ServerFactory):
    """Listens with host key ``K1``; spawns one connection state per client."""

    def __init__(
        self,
        host_keypair: RsaKeyPair,
        service: SecureChannelService,
        trust: TrustEnvironment,
        meter: Optional[Meter] = None,
        record_charge: str = "rmi_ssh_record",
        guard: Optional[AuthBackend] = None,
        rng=None,
    ):
        self.host_keypair = host_keypair
        self.service = service
        self.trust = trust
        self.meter = meter
        self.record_charge = record_charge
        # Channel bindings and post-handshake delivery route through the
        # shared backend pipeline (servers that also authorize — the RMI
        # stack — pass their authorization backend so state is one
        # object).  The default honors the injected meter, RNG,
        # and the trust environment's clock the same way HTTP does.
        self.guard = resolve_backend(
            guard, trust, meter=meter, check_charge=None, rng=rng
        )

    def open_connection(self, peer_address: str) -> "_ServerConnection":
        return _ServerConnection(self, peer_address)


class _ServerConnection(Connection):
    def __init__(self, server: SecureChannelServer, peer_address: str):
        self.server = server
        self.peer_address = peer_address
        self.secret: Optional[bytes] = None
        self.client_key: Optional[RsaPublicKey] = None
        self.channel_principal: Optional[ChannelPrincipal] = None
        self._recv_seq = 0
        self._send_seq = 0
        self._channel_premise: Optional[SpeaksFor] = None
        # (speaker, request) pairs this connection vouched; retracted at
        # close so the premise set is bounded by live connections.
        self._delivered = []

    def handle(self, data: bytes) -> bytes:
        node = parse_canonical(data)
        if self.secret is None:
            return to_canonical(self._handshake(node))
        return to_canonical(self._record(node))

    def _handshake(self, node: SExp) -> SExp:
        if not isinstance(node, SList) or node.head() != "kex":
            raise ChannelError("expected key exchange")
        meter = self.server.meter
        key_field = node.find("client-key")
        sealed_field = node.find("sealed")
        sig_field = node.find("signature")
        if key_field is None or sealed_field is None or sig_field is None:
            raise ChannelError("kex missing fields")
        client_key = RsaPublicKey.from_sexp(key_field.items[1])
        maybe_charge(meter, "pk_sign")  # server's private op: unseal secret
        secret = int_to_bytes(
            self.server.host_keypair.private.decrypt_block(
                bytes_to_int(sealed_field.items[1].value)
            )
        )
        # Left-pad: the integer round trip drops leading zero bytes.
        secret = secret.rjust(_SECRET_BYTES, b"\x00")
        maybe_charge(meter, "pk_verify")  # verify client's binding signature
        if not client_key.verify(
            _kex_bind(secret, self.server.host_keypair.public),
            sig_field.items[1].value,
        ):
            raise ChannelError("client key-exchange signature invalid")
        self.secret = secret
        self.client_key = client_key
        self.channel_principal = ChannelPrincipal.of_secret(secret)
        # The exchange convinced the server that KCH => K2: register the
        # channel session with the guard (which vouches the premise).
        self._channel_premise = self.server.guard.open_channel(
            self.channel_principal, KeyPrincipal(client_key)
        )
        maybe_charge(meter, "pk_sign")  # server signs the ack
        ack_signature = self.server.host_keypair.sign(
            _kex_ack_bind(secret, client_key)
        )
        return SList([Atom("kex-ack"), SList([Atom("signature"), Atom(ack_signature)])])

    def _record(self, node: SExp) -> SExp:
        meter = self.server.meter
        maybe_charge(meter, self.server.record_charge)
        plaintext = _open_record(self.secret, node, self._recv_seq)
        self._recv_seq += 1
        message = parse_canonical(plaintext)
        if not isinstance(message, SList) or message.head() != "msg":
            raise ChannelError("bad message framing")
        quote_field = message.find("quote")
        request = message.items[-1]
        speaker: Principal = self.channel_principal
        if quote_field is not None:
            speaker = speaker.quoting(principal_from_sexp(quote_field.items[1]))
        # Post-handshake delivery rides the guard pipeline: the transport
        # vouches that the speaker uttered this request.
        speaker = self.server.guard.deliver(
            GuardRequest(
                request,
                credential=ChannelCredential(speaker),
                transport="secure-channel",
                channel={"peer": self.peer_address, "seq": self._recv_seq - 1},
            )
        )
        self._delivered.append((speaker, request))
        response = self.server.service.handle_request(request, speaker, self)
        reply = _seal_record(
            self.secret, self._send_seq, to_canonical(SList([Atom("msg"), response]))
        )
        self._send_seq += 1
        return reply

    def close(self) -> None:
        if self._channel_premise is not None:
            self.server.guard.close_channel(self._channel_premise)
            self._channel_premise = None
        for speaker, request in self._delivered:
            self.server.guard.retract_delivery(speaker, request)
        self._delivered = []


class SecureChannelClient:
    """Client endpoint: performs the key exchange, then exchanges records."""

    def __init__(
        self,
        transport: Transport,
        client_keypair: RsaKeyPair,
        server_key: RsaPublicKey,
        rng: Optional[random.Random] = None,
        meter: Optional[Meter] = None,
        record_charge: Optional[str] = None,
    ):
        # The server side charges one record cost per round trip (the
        # paper's single-machine totals); the client charges none by
        # default to avoid double-counting on a shared meter.
        self.transport = transport
        self.client_keypair = client_keypair
        self.server_key = server_key
        self.meter = meter
        self.record_charge = record_charge
        rng = default_rng(rng)
        self.secret = random_bytes(rng, _SECRET_BYTES)
        self._send_seq = 0
        self._recv_seq = 0
        self._handshake()
        self.channel_principal = ChannelPrincipal.of_secret(self.secret)
        self.client_key_principal = KeyPrincipal(client_keypair.public)
        self.server_key_principal = KeyPrincipal(server_key)
        # What the server believes this channel speaks for (K2); the
        # invoker builds its premise step from this.
        self.bound_principal = self.client_key_principal

    def _handshake(self) -> None:
        maybe_charge(self.meter, "pk_verify")  # seal secret to server key
        sealed = self.server_key.encrypt_block(bytes_to_int(self.secret))
        maybe_charge(self.meter, "pk_sign")  # sign the binding
        signature = self.client_keypair.sign(
            _kex_bind(self.secret, self.server_key)
        )
        kex = SList(
            [
                Atom("kex"),
                SList([Atom("client-key"), self.client_keypair.public.to_sexp()]),
                SList([Atom("sealed"), Atom(int_to_bytes(sealed))]),
                SList([Atom("signature"), Atom(signature)]),
            ]
        )
        ack = parse_canonical(self.transport.request(to_canonical(kex)))
        if not isinstance(ack, SList) or ack.head() != "kex-ack":
            raise ChannelError("handshake rejected")
        sig_field = ack.find("signature")
        if sig_field is None:
            raise ChannelError("kex-ack missing signature")
        maybe_charge(self.meter, "pk_verify")
        if not self.server_key.verify(
            _kex_ack_bind(self.secret, self.client_keypair.public),
            sig_field.items[1].value,
        ):
            raise ChannelError(
                "server failed to prove possession of its host key"
            )

    def request(self, payload: SExp, quoting: Optional[Principal] = None) -> SExp:
        """Send a request over the channel, optionally quoting a principal."""
        if self.record_charge is not None:
            maybe_charge(self.meter, self.record_charge)
        items = [Atom("msg")]
        if quoting is not None:
            items.append(SList([Atom("quote"), quoting.to_sexp()]))
        items.append(payload)
        record = _seal_record(
            self.secret, self._send_seq, to_canonical(SList(items))
        )
        self._send_seq += 1
        raw = self.transport.request(to_canonical(record))
        plaintext = _open_record(self.secret, parse_canonical(raw), self._recv_seq)
        self._recv_seq += 1
        message = parse_canonical(plaintext)
        if not isinstance(message, SList) or message.head() != "msg":
            raise ChannelError("bad response framing")
        return message.items[-1]

    def speaker(self, quoting: Optional[Principal] = None) -> Principal:
        """The principal the server will attribute our requests to."""
        if quoting is None:
            return self.channel_principal
        return self.channel_principal.quoting(quoting)

    def close(self) -> None:
        self.transport.close()
