"""Regression tests for clock-based MAC-session expiry.

Before TTLs, `SessionRegistry` entries lived until LRU pressure evicted
them: a leaked MAC secret stayed good for the life of the server.  The
TTL bounds each session's absolute lifetime on the injected sim clock.
"""

import pytest

from repro.core.errors import AuthorizationError
from repro.guard import Guard, SessionRegistry
from repro.net.trust import TrustEnvironment
from repro.sim import SimClock


class TestTtl:
    def test_session_expires_after_ttl(self):
        clock = SimClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        mac_id, mac_key = registry.mint()
        message = b"GET /doc"
        assert registry.verify_tag(mac_id, message, mac_key.tag(message))

        clock.advance(61.0)
        with pytest.raises(AuthorizationError):
            registry.verify_tag(mac_id, message, mac_key.tag(message))
        assert registry.stats["expired"] == 1
        assert registry.stats["failures"] == 1
        assert registry.count() == 0

    def test_session_survives_within_ttl(self):
        clock = SimClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        mac_id, mac_key = registry.mint()
        clock.advance(59.0)
        message = b"GET /doc"
        assert registry.verify_tag(mac_id, message, mac_key.tag(message))
        assert registry.stats["expired"] == 0

    def test_no_ttl_never_expires(self):
        clock = SimClock()
        registry = SessionRegistry(clock=clock)
        mac_id, mac_key = registry.mint()
        clock.advance(1e9)
        assert registry.get(mac_id) is mac_key
        assert registry.stats["expired"] == 0

    def test_ttl_measures_from_mint_not_last_use(self):
        """Absolute lifetime: touching a session does not extend it."""
        clock = SimClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        mac_id, _ = registry.mint()
        for _ in range(5):
            clock.advance(11.0)
            registry.get(mac_id)
        clock.advance(11.0)  # 66 s after mint
        assert registry.get(mac_id) is None
        assert registry.stats["expired"] == 1


class TestSweep:
    def test_sweep_reclaims_only_the_expired(self):
        clock = SimClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        old = [registry.mint()[0] for _ in range(3)]
        clock.advance(45.0)
        fresh = [registry.mint()[0] for _ in range(2)]
        clock.advance(30.0)  # old: 75 s, fresh: 30 s
        assert registry.sweep() == 3
        assert registry.stats["expired"] == 3
        assert registry.count() == 2
        for mac_id in old:
            assert registry.get(mac_id) is None
        for mac_id in fresh:
            assert registry.get(mac_id) is not None

    def test_sweep_without_ttl_is_a_noop(self):
        registry = SessionRegistry()
        registry.mint()
        assert registry.sweep() == 0


class TestAdopt:
    def test_adoption_preserves_the_absolute_lifetime(self):
        """Re-homing a session onto a shared registry must not extend
        its TTL: the mint stamp travels with it."""
        clock = SimClock()
        front = SessionRegistry(ttl=60.0, clock=clock)
        mac_id, mac_key = front.mint()
        clock.advance(45.0)
        shared = SessionRegistry(ttl=60.0, clock=clock)
        shared.adopt(front)
        assert shared.get(mac_id) is mac_key
        clock.advance(20.0)  # 65 s after the original mint
        assert shared.get(mac_id) is None
        assert shared.stats["expired"] == 1

    def test_adoption_skips_already_expired_sessions(self):
        clock = SimClock()
        front = SessionRegistry(ttl=60.0, clock=clock)
        front.mint()
        clock.advance(61.0)
        shared = SessionRegistry(ttl=60.0, clock=clock)
        shared.adopt(front)
        assert shared.count() == 0

    def test_adopting_from_a_clockless_front_stamps_at_now(self):
        """A clockless front stamps 0.0 at mint; judging that against a
        TTL'd adopter's clock would expire brand-new sessions instantly.
        Such sessions are stamped at the adopter's now instead."""
        clock = SimClock()
        clock.advance(7200.0)
        front = SessionRegistry()  # the http/mac idiom: no clock, no ttl
        mac_id, mac_key = front.mint()
        shared = SessionRegistry(ttl=3600.0, clock=clock)
        shared.adopt(front)
        assert shared.get(mac_id) is mac_key
        clock.advance(3601.0)
        assert shared.get(mac_id) is None


class TestGuardWiring:
    def test_guard_session_ttl_rides_the_trust_clock(self):
        clock = SimClock()
        guard = Guard(
            TrustEnvironment(clock=clock),
            sessions=SessionRegistry(ttl=60.0, clock=clock),
        )
        mac_id, _ = guard.sessions.mint()
        clock.advance(61.0)
        assert guard.sessions.get(mac_id) is None
        assert guard.sessions.stats["expired"] == 1
