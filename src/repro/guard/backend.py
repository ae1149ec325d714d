"""The ``AuthBackend`` protocol: what a transport needs from authorization.

The paper's argument is that one proof-checking logic should sit behind
every interface.  :class:`~repro.guard.pipeline.Guard` is that logic for
one process, and one process is one failure domain, so one guard is the
whole authorization service.  A transport should not care what object
it is talking to — it frames requests and maps exceptions onto its wire.
This module names the contract, so every transport (http, rmi, smtp,
secure channels) and every app (gateway, webserver, emaildb, guarded fs)
can accept any backend: a guard shared with other transports, or a test
wrapper around one.

The surface, grouped the way transports consume it:

- **decisions** — ``check``, ``check_many``, ``authenticate``;
- **channel delivery** — ``open_channel``, ``close_channel``,
  ``deliver``, ``retract_delivery`` (secure-channel listeners);
- **sessions** — ``mint_session``, ``install_session``,
  ``sweep_sessions``, and a ``sessions`` attribute: the backend's one
  :class:`~repro.guard.sessions.SessionRegistry`, which the HTTP MAC
  framing adopts;
- **proof intake** — ``submit_proof``, ``digest_delegation``,
  ``outgoing_delegations`` (the RMI proofRecipient and the quoting
  gateway);
- **invalidation** — ``retract_delegation``, ``revoke_serial``;
- **introspection** — ``context``, ``audit_authentication``, and an
  ``audit`` attribute: the backend's one
  :class:`~repro.guard.audit.AuditLog`.

No transport or app module constructs a :class:`Guard` directly any
more: they accept an injected backend or fall back to
:func:`default_backend` — the one place the single-process default is
built, so swapping a deployment's backend means passing a different
object, never editing a transport.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple, runtime_checkable


@runtime_checkable
class AuthBackend(Protocol):
    """The authorization surface a transport programs against.

    Implementations also expose an ``audit`` attribute (records /
    involving / by_transport), a ``sessions`` registry and the
    ``metrics`` registry they count on (``guard.*``); those are data
    members, so :func:`isinstance` checks only the methods below.
    """

    # -- decisions --------------------------------------------------------

    def check(self, request): ...

    def check_many(self, requests) -> List: ...

    def authenticate(self, request) -> Tuple: ...

    # -- channel delivery -------------------------------------------------

    def open_channel(self, channel_principal, bound_principal): ...

    def close_channel(self, premise) -> int: ...

    def deliver(self, request): ...

    def retract_delivery(self, speaker, logical) -> None: ...

    # -- sessions ---------------------------------------------------------

    def mint_session(self, rng=None) -> Tuple: ...

    def install_session(self, mac_id, mac_key, minted_at=None) -> None: ...

    def sweep_sessions(self) -> int: ...

    # -- proof intake -----------------------------------------------------

    def submit_proof(self, proof_wire: bytes): ...

    def digest_delegation(self, proof) -> None: ...

    def outgoing_delegations(self, principal) -> int: ...

    # -- invalidation -----------------------------------------------------

    def retract_delegation(self, proof_or_digest) -> int: ...

    def revoke_serial(self, serial: bytes) -> int: ...

    # -- introspection ----------------------------------------------------

    def context(self, now: Optional[float] = None): ...

    def audit_authentication(self, logical, proof, transport: str = "unknown"): ...


def default_backend(trust, **kwargs):
    """Build the single-process default backend: one :class:`Guard`.

    This is the *only* sanctioned way for a transport or app module to
    end up with a Guard it did not receive — keyword arguments pass
    straight through (``meter``, ``prover``, ``rng``, ``check_charge``,
    ``sessions``, ``cache``, ...), and the guard inherits the
    trust environment's clock, so an injected clock or RNG is honored
    uniformly across every transport.
    """
    from repro.guard.pipeline import Guard

    return Guard(trust, **kwargs)


def resolve_backend(backend, trust, **kwargs):
    """Return ``backend`` unchanged when injected, else the default.

    The ``kwargs`` describe the default only — an injected backend is
    already configured and is never mutated here.
    """
    if backend is not None:
        return backend
    return default_backend(trust, **kwargs)
