"""RMI-style remote method invocation with Snowflake authorization.

Section 5.1.1's machinery, faithfully restaged in Python:

- a server creates a :class:`RemoteObject`, defines the key that controls
  it, and mounts it behind a channel (secure or local);
- every remote method is prefixed by ``checkAuth()``
  (:mod:`repro.rmi.auth`), which finds a cached, verified proof for the
  calling channel or throws ``SfNeedAuthorizationException``
  (:class:`repro.core.errors.NeedAuthorizationError` on the wire);
- the client-side stub's *invoker* (:mod:`repro.rmi.invoker`) catches the
  exception, asks its Prover for a proof that the channel speaks for the
  required issuer regarding the minimum restriction set, submits it to the
  server's proof recipient, and retries;
- a :class:`Registry` (:mod:`repro.rmi.registry`) plays the name service
  the client retrieves stubs from.
"""

from repro.rmi.auth import AuditLog, AuditRecord
from repro.rmi.remote import RemoteObject, RmiSkeleton
from repro.rmi.invoker import RemoteStub, ClientIdentity, identity_scope, current_identity
from repro.rmi.registry import Registry, RmiServer

__all__ = [
    "AuditLog",
    "AuditRecord",
    "RemoteObject",
    "RmiSkeleton",
    "RemoteStub",
    "ClientIdentity",
    "identity_scope",
    "current_identity",
    "Registry",
    "RmiServer",
]
