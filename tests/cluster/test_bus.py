"""A revocation through the benchmark rig's front.

The rig sends ``revoke <serial>`` as ``revoke_serial`` and then
``deliver_invalidations``.  The front forwards the first to its one
guard, which applies it before the call returns, so the second finds
nothing pending; the front's ``bus`` and ``nodes`` stats report what the
purge removed and examined.  These tests go with the front.
"""

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import HashPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.guard import GuardRequest, ProofCredential
from repro.sexp import to_transport
from repro.spki import Certificate
from repro.tags import Tag

from tests.cluster.conftest import REQUEST


def _warm(world):
    """The client is granted once, so the guard holds its cached
    chain; returns that guard."""
    assert world.check(world.request()).granted
    return world.guard


class TestRevocation:
    def test_revocation_event_purges_every_replica(self, world):
        """The front runs no revocation *policy*; the event alone purges
        the serial's cached chain and graph edge."""
        guard = _warm(world)
        assert world.cluster.revoke_serial(world.certificate.serial) > 0
        assert guard.cache.count() == 0
        with pytest.raises(NeedAuthorizationError):
            guard.check(world.request())
        assert world.cluster.stats_snapshot()["bus"]["delivered"] == 1

    def test_revoked_serial_denied_on_every_node_after_one_round(self, world):
        """One ``revoke`` line is the whole round: nothing is left to
        deliver, and every request is refused, before and after a drain
        and a join."""
        cluster = world.cluster
        for decision in cluster.check_many(world.requests()):
            assert decision.granted

        assert cluster.revoke_serial(world.certificate.serial) > 0
        assert cluster.deliver_invalidations() == 0

        def refused():
            for decision in cluster.check_many(world.requests()):
                assert not decision.granted
                assert isinstance(decision.error, NeedAuthorizationError)

        refused()
        cluster.drain("node-1")
        cluster.add_node()
        refused()

    def test_a_purge_says_what_it_examined(self, world):
        """One edge in the graph and one cached proof cite the serial:
        the prover examines the edge and the cache its one entry, under
        ``sources.cluster.nodes`` in ``(stats <id>)`` as in the front's
        own snapshot."""
        _warm(world)
        world.cluster.revoke_serial(world.certificate.serial)
        served = world.guard.metrics.snapshot()["sources"]["cluster"]
        assert served["nodes"] == world.cluster.stats_snapshot()["nodes"]
        (tallies,) = served["nodes"].values()
        assert tallies["prover"]["invalidate_examined"] == 1
        assert tallies["cache"]["retract_examined"] == 1
        assert served["bus"]["delivered"] == 1

    def test_a_revoked_certificate_presented_again_is_denied(self, world):
        """The revoke purges the cached copy; presenting the same signed
        certificate again must not re-admit it: the guard tombstoned the
        serial when the revoke was applied."""
        subject = HashPrincipal(HashValue.of_bytes(b"message"))
        certificate = Certificate.issue(
            world.server_kp, subject, Tag.all(), rng=world.rng
        )
        wire = to_transport(SignedCertificateStep(certificate).to_sexp())
        presented = GuardRequest(
            REQUEST, issuer=world.issuer, transport="http",
            credential=ProofCredential(subject, wire=wire),
        )

        assert world.check(presented).granted
        world.cluster.revoke_serial(certificate.serial)
        assert world.guard.cache.count() == 0
        decision = world.check(presented)
        assert not decision.granted
        assert isinstance(decision.error, AuthorizationError)
        assert world.guard.cache.count() == 0

    def test_unrelated_serial_revocation_is_a_noop(self, world):
        _warm(world)
        assert world.cluster.revoke_serial(b"\x00" * 8) == 0
        decision = world.check(world.request())
        assert decision.granted and decision.stage == "cache"
