"""Cache revalidation under a live revocation policy.

When ``trust.revocation`` is set, a proof-cache hit re-verifies the
whole tree (the `trust.revocation is not None` branch of
``Guard._revalidate``) so a certificate landing on a CRL denies even
requests that would otherwise ride an already-verified cached proof.
"""

import pytest

from repro.core.errors import NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.guard import ChannelCredential, Guard, GuardRequest
from repro.net.trust import TrustEnvironment
from repro.sexp import to_canonical
from repro.spki import Certificate
from repro.spki.revocation import RevocationList
from repro.tags import Tag

REQUEST = ["web", ["method", "GET"], ["path", "/doc"]]


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    trust = TrustEnvironment()
    # A live (initially empty) CRL: every cache hit re-verifies the tree.
    trust.revocation = RevocationList.issue(server_kp, [])
    guard = Guard(trust)
    issuer = KeyPrincipal(server_kp.public)
    channel = ChannelPrincipal.of_secret(b"session")
    client = KeyPrincipal(alice_kp.public)
    premise = SpeaksFor(channel, client, Tag.all())
    trust.vouch(premise)
    certificate = Certificate.issue(server_kp, client, Tag.all(), rng=rng)
    chain = TransitivityStep(
        PremiseStep(premise), SignedCertificateStep(certificate)
    )
    guard.submit_proof(to_canonical(chain.to_sexp()))
    request = lambda: GuardRequest(
        REQUEST,
        issuer=issuer,
        credential=ChannelCredential(channel),
        transport="rmi",
    )
    return {
        "guard": guard,
        "trust": trust,
        "server_kp": server_kp,
        "certificate": certificate,
        "request": request,
    }


class TestRevocationRevalidation:
    def test_cache_hit_passes_a_clean_crl(self, world):
        decision = world["guard"].check(world["request"]())
        assert decision.granted and decision.stage == "cache"
        assert world["guard"].metrics.counter("guard.stage.proof_cache") == 1

    def test_cached_proof_denied_once_certificate_lands_on_the_crl(self, world):
        guard = world["guard"]
        assert guard.check(world["request"]()).granted

        world["trust"].revocation = RevocationList.issue(
            world["server_kp"], [world["certificate"].serial]
        )
        with pytest.raises(NeedAuthorizationError):
            guard.check(world["request"]())
        assert guard.metrics.counter("guard.challenges") == 1

    def test_replacing_the_crl_restores_the_grant(self, world):
        """The cached entry is skipped, not destroyed: a CRL that stops
        listing the serial (one-time revalidation semantics) lets the
        same cached proof grant again."""
        guard = world["guard"]
        world["trust"].revocation = RevocationList.issue(
            world["server_kp"], [world["certificate"].serial]
        )
        with pytest.raises(NeedAuthorizationError):
            guard.check(world["request"]())

        world["trust"].revocation = RevocationList.issue(world["server_kp"], [])
        decision = guard.check(world["request"]())
        assert decision.granted and decision.stage == "cache"
