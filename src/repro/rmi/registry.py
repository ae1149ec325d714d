"""The name service and a convenience server assembly.

"The client retrieves a stub for the remote object from a name service it
trusts" (Figure 4, step d).  A registry entry names the network address,
the exported object, and the server's keys, so a client can open a secure
channel and construct a stub in one call.

:class:`RmiServer` bundles the full server stack of Figure 4 — trust
environment, authorization state (proof cache + audit log), skeleton, and
secure-channel listener — so applications and tests can stand up a
protected service in a few lines.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.principals import KeyPrincipal, Principal
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.net.network import Network
from repro.net.secure import SecureChannelClient, SecureChannelServer
from repro.net.trust import TrustEnvironment
from repro.guard import resolve_backend
from repro.rmi.invoker import ClientIdentity, RemoteStub
from repro.rmi.remote import RemoteObject, RmiSkeleton
from repro.sim.clock import SimClock
from repro.sim.costmodel import Meter


class RegistryEntry:
    __slots__ = ("name", "address", "object_name", "server_key")

    def __init__(self, name: str, address: str, object_name: str, server_key: RsaPublicKey):
        self.name = name
        self.address = address
        self.object_name = object_name
        self.server_key = server_key


class Registry:
    """A trusted name service mapping names to service endpoints."""

    def __init__(self):
        self._entries: Dict[str, RegistryEntry] = {}

    def bind(
        self, name: str, address: str, object_name: str, server_key: RsaPublicKey
    ) -> None:
        self._entries[name] = RegistryEntry(name, address, object_name, server_key)

    def lookup(self, name: str) -> RegistryEntry:
        if name not in self._entries:
            raise KeyError("no registry entry for %r" % name)
        return self._entries[name]

    def connect(
        self,
        network: Network,
        name: str,
        client_keypair: RsaKeyPair,
        identity: Optional[ClientIdentity] = None,
        quoting: Optional[Principal] = None,
        rng: Optional[random.Random] = None,
        meter: Optional[Meter] = None,
    ) -> RemoteStub:
        """Open a secure channel to a named service and return a stub."""
        entry = self.lookup(name)
        transport = network.connect(entry.address, meter=meter)
        channel = SecureChannelClient(
            transport,
            client_keypair,
            entry.server_key,
            rng=rng,
            meter=meter,
        )
        return RemoteStub(channel, entry.object_name, identity, quoting)


class RmiServer:
    """The assembled server stack: trust + auth + skeleton + listener.

    ``backend`` injects any :class:`~repro.guard.AuthBackend` (a guard
    shared with other transports, say) as the server's authorization
    state; the default is one guard per server process via the shared
    backend factory.
    """

    def __init__(
        self,
        network: Network,
        address: str,
        host_keypair: RsaKeyPair,
        clock: Optional[SimClock] = None,
        meter: Optional[Meter] = None,
        revocation=None,
        backend=None,
    ):
        self.network = network
        self.address = address
        self.host_keypair = host_keypair
        self.trust = TrustEnvironment(clock=clock, revocation=revocation)
        # One backend per server process: the skeleton's checkAuth, the
        # listener's channel sessions, and the audit log share it.
        self.auth = resolve_backend(backend, self.trust, meter=meter)
        self.skeleton = RmiSkeleton(self.auth, meter=meter)
        self.listener = SecureChannelServer(
            host_keypair, self.skeleton, self.trust, meter=meter,
            guard=self.auth,
        )
        network.listen(address, self.listener)

    def export(self, obj: RemoteObject) -> None:
        self.skeleton.export(obj)

    @property
    def guard(self):
        """The shared authorization guard (``auth`` is its legacy name)."""
        return self.auth

    @property
    def host_principal(self) -> KeyPrincipal:
        return KeyPrincipal(self.host_keypair.public)

    @property
    def audit(self):
        return self.auth.audit

    def close(self) -> None:
        self.network.unlisten(self.address)
