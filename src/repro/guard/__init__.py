"""The transport-agnostic authorization guard.

The paper's core claim is that *one* authorization logic spans every
transport end-to-end.  This package is that one place: HTTP servlets,
the RMI skeleton, the SMTP server, and secure-channel listeners all
construct :class:`GuardRequest` objects and delegate to a shared
:class:`Guard` pipeline — session/MAC fast path, digest-deduped proof
cache, full Prover verification, and a uniform end-to-end audit record
per grant.  Transports program against the :class:`AuthBackend`
protocol (``repro.guard.backend``), which :class:`Guard` satisfies, and
obtain the single-process default only through :func:`default_backend` /
:func:`resolve_backend`.
See ``docs/guard.md`` for the architecture and how to add a new
transport.
"""

from repro.guard.audit import AuditLog, AuditRecord, proof_skeleton
from repro.guard.backend import AuthBackend, default_backend, resolve_backend
from repro.guard.cache import CachedProof, ProofCache
from repro.guard.pipeline import Guard, GuardDecision
from repro.guard.request import (
    ChannelCredential,
    Credential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.guard.sessions import SessionRegistry

__all__ = [
    "AuditLog",
    "AuditRecord",
    "proof_skeleton",
    "AuthBackend",
    "default_backend",
    "resolve_backend",
    "CachedProof",
    "ProofCache",
    "Guard",
    "GuardDecision",
    "Credential",
    "ChannelCredential",
    "ProofCredential",
    "SessionCredential",
    "GuardRequest",
    "SessionRegistry",
]
