"""Symmetric-session bookkeeping: the MAC fast path's server-side state.

Section 5.3.1's optimization amortizes the public-key operation by
having the server send an encrypted, secret message authentication code
to the client; the client then authorizes messages by sending a hash of
<message, MAC>.  The session table lives here — one registry per guard,
shared by however many servlets or listeners front it — rather than in
any single transport module, so HTTP today and any future transport can
ride the same fast path and the same LRU bound.

Sessions are bounded two ways: the LRU cap (``max_sessions``) protects
memory, and an optional clock-based TTL protects *authority* — a leaked
MAC secret is only good until the session's absolute lifetime lapses.
The TTL is measured from mint time on the injected clock (``repro.sim``
style, never the wall clock), so expiry is deterministic in tests and
benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.errors import AuthorizationError
from repro.crypto.mac import MacKey
from repro.crypto.rng import default_rng
from repro.obs.registry import default_registry


class _Session:
    """One registered MAC session: the shared secret and its mint time."""

    __slots__ = ("mac_key", "minted_at")

    def __init__(self, mac_key: MacKey, minted_at: float):
        self.mac_key = mac_key
        self.minted_at = minted_at


class SessionRegistry:
    """MAC-session table: mac-id (hex fingerprint) -> shared secret.

    ``ttl`` (seconds on ``clock``) bounds each session's absolute
    lifetime from mint; ``None`` (the default) never expires, matching
    the pre-TTL behavior.  Expired sessions are dropped lazily on lookup
    and eagerly by :meth:`sweep`.
    """

    def __init__(
        self,
        max_sessions: int = 4096,
        ttl: Optional[float] = None,
        clock=None,
    ):
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self.max_sessions = max_sessions
        self.ttl = ttl
        self.clock = clock
        self.metrics = default_registry()  # a guard points it at its own

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _expired(self, session: _Session) -> bool:
        if self.ttl is None or self.clock is None:
            return False
        return self.clock.now() - session.minted_at > self.ttl

    def _bound(self) -> None:
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.metrics.inc("guard.sessions.evictions")

    def _register(
        self, mac_id: str, mac_key: MacKey, minted_at: Optional[float] = None
    ) -> None:
        self._sessions[mac_id] = _Session(
            mac_key, self._now() if minted_at is None else minted_at
        )
        self._sessions.move_to_end(mac_id)
        self._bound()

    def mint(self, rng=None) -> Tuple[str, MacKey]:
        """Create and register a fresh MAC session."""
        mac_key = MacKey.generate(default_rng(rng))
        mac_id = mac_key.fingerprint().digest.hex()
        self._register(mac_id, mac_key)
        return mac_id, mac_key

    def install(
        self,
        mac_id: str,
        mac_key: MacKey,
        minted_at: Optional[float] = None,
    ) -> None:
        """Register an externally minted session under ``mac_id`` (a front
        that minted before binding to its backend hands its table over
        through this).  ``minted_at`` preserves the original mint stamp
        so re-homing a session never extends its absolute lifetime."""
        self._register(mac_id, mac_key, minted_at)
        self.metrics.inc("guard.sessions.installed")

    def get(self, mac_id: str) -> Optional[MacKey]:
        session = self._sessions.get(mac_id)
        if session is None:
            return None
        if self._expired(session):
            del self._sessions[mac_id]
            self.metrics.inc("guard.sessions.expired")
            return None
        self._sessions.move_to_end(mac_id)
        return session.mac_key

    def verify_tag(self, mac_id: str, message: bytes, tag: bytes) -> MacKey:
        """Check an HMAC tag against a registered session; raises
        :class:`AuthorizationError` on unknown (or expired) session or
        bad tag."""
        mac_key = self.get(mac_id)
        if mac_key is None:
            self.metrics.inc("guard.sessions.failures")
            raise AuthorizationError("unknown MAC session %s" % mac_id)
        if not mac_key.verify(message, tag):
            self.metrics.inc("guard.sessions.failures")
            raise AuthorizationError("MAC tag does not match the request")
        return mac_key

    def sweep(self) -> int:
        """Eagerly drop every expired session; returns the count removed.

        Lazy expiry only reclaims sessions that are looked up again; a
        periodic sweep (e.g. on clock advance) keeps abandoned sessions
        from squatting in the LRU until eviction pressure finds them.
        """
        if self.ttl is None or self.clock is None:
            return 0
        dead: List[str] = [
            mac_id
            for mac_id, session in self._sessions.items()
            if self._expired(session)
        ]
        for mac_id in dead:
            del self._sessions[mac_id]
        self.metrics.inc("guard.sessions.expired", len(dead))
        return len(dead)

    def adopt(self, other: "SessionRegistry") -> None:
        """Merge another registry's live sessions into this one (used
        when a front that minted sessions is re-pointed at a shared
        guard's registry: outstanding grants keep verifying).

        When the source registry keeps time, the mint stamp travels with
        each session — adoption re-homes it without extending its
        absolute lifetime (registries sharing a guard must share the
        clock).  A clockless source stamps 0.0 at mint, which is
        meaningless on the adopter's timeline, so those sessions are
        stamped at the adopter's now instead of being instantly expired.
        """
        if other is self:
            return
        preserve_stamps = other.clock is not None
        for mac_id, session in other._sessions.items():
            if other._expired(session):
                continue
            self._sessions[mac_id] = _Session(
                session.mac_key,
                session.minted_at if preserve_stamps else self._now(),
            )
            self._sessions.move_to_end(mac_id)
        self._bound()

    def count(self) -> int:
        return len(self._sessions)
