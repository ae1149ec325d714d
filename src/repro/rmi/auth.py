"""Server-side authorization: checkAuth, the proof cache, and audit.

Section 7.2 describes the steady state: "the server's checkAuth() call ...
retrieves the caller's public key, finds a cached proof for that subject,
and sees that the proof has already been verified."  A fresh proof instead
costs a parse and full verification (190 ms in the paper).

The machinery itself lives in :mod:`repro.guard` now — the same staged
pipeline serves HTTP, RMI, SMTP, and secure channels, so this module is
only the RMI-flavoured home of its audit types.  A server's ``checkAuth()``
is :meth:`repro.guard.Guard.check`, and its proof cache is ``guard.cache``.
"""

from __future__ import annotations

from repro.guard import AuditLog, AuditRecord, AuthBackend

__all__ = ["AuditLog", "AuditRecord", "AuthBackend"]
