"""MAC sessions: the signed-request optimization of Section 5.3.1.

"We implemented a more efficient protocol that amortizes the public-key
operation by having the server send an encrypted, secret message
authentication code (MAC) to the client.  The client then authorizes
messages by sending a hash of <message, MAC>."

Flow:

1. The client's request (or its 401 challenge retry) carries
   ``Sf-Mac-Request`` with the client's public key; the server mints a
   :class:`MacKey`, seals it to that key, and answers with
   ``Sf-Mac-Grant`` (one public-key op each way, then never again).
2. The client unseals the secret, signs *one* delegation
   ``MAC-principal => client-key``, and sends it (with the rest of the
   chain to the issuer) in an ``Sf-Proof`` header alongside its first
   MAC-authorized request; the server caches it.
3. Every subsequent request authorizes with
   ``Authorization: SnowflakeMac <mac-id-hex> <hmac-hex>`` — HMAC over the
   request wire form — at pure symmetric-crypto cost.

This module is only the HTTP *framing* of the protocol.  The session
table, tag verification, and first-request proof digestion live in the
transport-agnostic guard (:class:`repro.guard.SessionRegistry` and the
session stage of :class:`repro.guard.Guard`); the manager here turns
headers into a :class:`repro.guard.SessionCredential` and back.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import AuthorizationError
from repro.crypto.mac import MacKey
from repro.crypto.rng import default_rng
from repro.crypto.rsa import RsaPublicKey
from repro.guard import SessionCredential, SessionRegistry
from repro.http.message import HttpRequest, HttpResponse
from repro.sexp import from_transport

MAC_REQUEST_HEADER = "Sf-Mac-Request"
MAC_GRANT_HEADER = "Sf-Mac-Grant"
PROOF_HEADER = "Sf-Proof"


class MacSessionManager:
    """The HTTP face of MAC sessions: grant headers in, credentials out.

    The actual session state is the guard's :class:`SessionRegistry`, so
    a server's servlets (and any other transport riding the same guard)
    share one session table and one LRU policy.
    """

    def __init__(self, trust, rng=None, registry: Optional[SessionRegistry] = None,
                 backend=None):
        self.trust = trust
        self._rng = default_rng(rng)
        self.registry = registry if registry is not None else SessionRegistry()
        self.backend = None
        if backend is not None:
            self.bind(backend)

    # -- backend wiring ----------------------------------------------------

    def bind(self, backend) -> None:
        """Point this manager at the servlet's authorization backend.

        Every backend exposes its one ``sessions`` registry (a cluster's
        is shared by all its nodes): the manager adopts any sessions it
        already minted into that table and re-points itself, so
        outstanding grants keep verifying.
        """
        if backend is self.backend:
            return
        if backend.sessions is not self.registry:
            backend.sessions.adopt(self.registry)
            self.registry = backend.sessions
        self.backend = backend

    # -- session establishment -------------------------------------------

    def offer(self, request: HttpRequest, response: HttpResponse) -> None:
        """If the client asked for a MAC session, grant one in this
        response (saving a round trip, as the paper's challenge does for
        the gateway's pseudo-principal)."""
        encoded_key = request.headers.get(MAC_REQUEST_HEADER)
        if encoded_key is None:
            return
        client_key = RsaPublicKey.from_sexp(from_transport(encoded_key))
        if self.backend is not None:
            mac_id, mac_key = self.backend.mint_session(self._rng)
        else:
            mac_id, mac_key = self.registry.mint(self._rng)
        sealed = mac_key.sealed_for(client_key)
        response.headers.set(MAC_GRANT_HEADER, "%s %x" % (mac_id, sealed))

    # -- per-request credential extraction ---------------------------------

    def credential(self, request: HttpRequest, payload: str) -> SessionCredential:
        """Turn ``SnowflakeMac <mac-id> <tag>`` plus the request bytes
        into the guard's session credential."""
        parts = payload.split()
        if len(parts) != 2:
            raise AuthorizationError("malformed MAC authorization")
        mac_id, tag_hex = parts
        try:
            tag = bytes.fromhex(tag_hex)
        except ValueError:
            raise AuthorizationError("malformed MAC tag")
        message = request.to_wire(exclude_headers=("Authorization", PROOF_HEADER))
        return SessionCredential(
            mac_id, tag, message, proof_wire=request.headers.get(PROOF_HEADER)
        )

    def session_count(self) -> int:
        """Sessions in the table this front verifies against: its
        backend's once bound (a cluster's is shared by every node)."""
        return self.registry.count()


def unseal_grant(header_value: str, private_key) -> MacKey:
    """Client side: recover the MAC secret from an ``Sf-Mac-Grant``."""
    mac_id, _, sealed_hex = header_value.partition(" ")
    mac_key = MacKey.unseal(int(sealed_hex, 16), private_key)
    if mac_key.fingerprint().digest.hex() != mac_id:
        raise AuthorizationError("MAC grant id does not match unsealed secret")
    return mac_key
