"""Unit tests for the server-side authorization state (checkAuth)."""

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import Says, SpeaksFor, Validity
from repro.guard import ChannelCredential, Guard, GuardRequest, ProofCache
from repro.net.trust import TrustEnvironment
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag, parse_tag


@pytest.fixture()
def setup(server_kp, alice_kp, rng):
    clock = SimClock()
    trust = TrustEnvironment(clock=clock)
    auth = Guard(trust)
    issuer = KeyPrincipal(server_kp.public)
    channel = ChannelPrincipal.of_secret(b"session")
    client = KeyPrincipal(alice_kp.public)
    # Build the standard chain: CH => KC (premise) . KC => KS (cert).
    premise = SpeaksFor(channel, client, Tag.all())
    trust.vouch(premise)
    cert = Certificate.issue(server_kp, client, parse_tag("(tag (invoke))"), rng=rng)
    chain = TransitivityStep(PremiseStep(premise), SignedCertificateStep(cert))
    return {
        "clock": clock,
        "trust": trust,
        "auth": auth,
        "issuer": issuer,
        "channel": channel,
        "chain": chain,
    }


REQUEST = ["invoke", ["object", "o"], ["method", "m"], ["args"]]


def check_auth(guard, speaker, issuer, request):
    """The RMI ``checkAuth()`` prefix: a channel-vouched check, answered
    with the derived ``issuer says request`` proof."""
    return guard.check(GuardRequest(
        request, issuer=issuer, credential=ChannelCredential(speaker),
        transport="rmi",
    )).proof


class TestCheckAuth:
    def test_no_proof_raises_challenge(self, setup):
        with pytest.raises(NeedAuthorizationError) as excinfo:
            check_auth(
                setup["auth"], setup["channel"], setup["issuer"], REQUEST
            )
        assert excinfo.value.issuer == setup["issuer"]
        # The default minimum tag is the singleton request.
        assert excinfo.value.tag.matches(sexp(REQUEST))

    def test_submitted_proof_authorizes(self, setup):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        derived = check_auth(
            setup["auth"], setup["channel"], setup["issuer"], REQUEST
        )
        assert derived.conclusion == Says(setup["issuer"], sexp(REQUEST))

    def test_cached_proof_reused(self, setup):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        assert len(setup["auth"].audit) == 2
        assert setup["auth"].cache.count() == 1

    def test_forget_proofs_forces_rechallenge(self, setup):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        setup["auth"].cache.forget()
        with pytest.raises(NeedAuthorizationError):
            check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)

    def test_request_outside_proof_tag_challenged(self, setup):
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        with pytest.raises(NeedAuthorizationError):
            check_auth(
                setup["auth"], setup["channel"], setup["issuer"], ["shutdown"]
            )

    def test_wrong_issuer_challenged(self, setup, carol_kp):
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        other = KeyPrincipal(carol_kp.public)
        with pytest.raises(NeedAuthorizationError):
            check_auth(setup["auth"], setup["channel"], other, REQUEST)

    def test_expired_proof_disregarded(self, server_kp, alice_kp, rng):
        clock = SimClock()
        trust = TrustEnvironment(clock=clock)
        auth = Guard(trust)
        issuer = KeyPrincipal(server_kp.public)
        channel = ChannelPrincipal.of_secret(b"s2")
        client = KeyPrincipal(alice_kp.public)
        premise = SpeaksFor(channel, client, Tag.all())
        trust.vouch(premise)
        cert = Certificate.issue(
            server_kp, client, Tag.all(), validity=Validity(0, 10), rng=rng
        )
        chain = TransitivityStep(PremiseStep(premise), SignedCertificateStep(cert))
        trust.vouch(Says(channel, sexp(REQUEST)))
        auth.submit_proof(to_canonical(chain.to_sexp()))
        check_auth(auth, channel, issuer, REQUEST)  # fresh: fine
        clock.advance(100.0)
        with pytest.raises(NeedAuthorizationError):
            check_auth(auth, channel, issuer, REQUEST)  # expired: re-prove
        # The lapsed proof is retracted from the cache, not just skipped.
        assert auth.cache.count() == 0

    def test_duplicate_submissions_cached_once(self, setup):
        wire = to_canonical(setup["chain"].to_sexp())
        setup["auth"].submit_proof(wire)
        setup["auth"].submit_proof(wire)
        setup["auth"].submit_proof(wire)
        assert setup["auth"].cache.count() == 1

    def test_speaker_cache_is_bounded(self, setup):
        """One-shot speakers (the HTTP per-request hash principals) age
        out of the LRU instead of growing the cache forever."""
        from repro.core.principals import ChannelPrincipal
        from repro.core.proofs import PremiseStep

        auth = Guard(setup["trust"], cache=ProofCache(8))
        for i in range(32):
            speaker = ChannelPrincipal.of_secret(b"one-shot-%d" % i)
            statement = SpeaksFor(speaker, setup["issuer"], Tag.all())
            setup["trust"].vouch(statement)
            auth.cache_proof(PremiseStep(statement))
        assert len(auth.cache.buckets) == 8
        assert auth.cache.count() == 8


class TestSubmitProof:
    def test_invalid_proof_rejected(self, setup, server_kp, alice_kp, rng):
        cert = Certificate.issue(
            server_kp, KeyPrincipal(alice_kp.public), Tag.all(), rng=rng
        )
        cert.tag = parse_tag("(tag (everything))")
        step = SignedCertificateStep.__new__(SignedCertificateStep)
        # Build the wire form of a tampered proof by hand:
        from repro.core.proofs import SignedCertificateStep as Step

        good = Certificate.issue(
            server_kp, KeyPrincipal(alice_kp.public), Tag.all(), rng=rng
        )
        wire_node = Step(good).to_sexp()
        # Corrupt a signature byte inside the wire form.
        wire = to_canonical(wire_node)
        corrupted = wire.replace(good.signature, b"\x00" * len(good.signature))
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError):
            setup["auth"].submit_proof(corrupted)

    def test_says_proof_rejected(self, setup):
        statement = Says(setup["channel"], "x")
        setup["trust"].vouch(statement)
        with pytest.raises(AuthorizationError):
            setup["auth"].submit_proof(
                to_canonical(PremiseStep(statement).to_sexp())
            )


class TestAudit:
    def test_records_full_proof_tree(self, setup):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        record = setup["auth"].audit.records[0]
        involved = record.involved_principals()
        assert setup["channel"] in involved
        assert setup["issuer"] in involved

    def test_involving_filter(self, setup, carol_kp):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        assert len(setup["auth"].audit.involving(setup["channel"])) == 1
        stranger = KeyPrincipal(carol_kp.public)
        assert setup["auth"].audit.involving(stranger) == []

    def test_render_is_readable(self, setup):
        setup["trust"].vouch(Says(setup["channel"], sexp(REQUEST)))
        setup["auth"].submit_proof(to_canonical(setup["chain"].to_sexp()))
        check_auth(setup["auth"], setup["channel"], setup["issuer"], REQUEST)
        text = setup["auth"].audit.records[0].render()
        assert "derived-says" in text and "invoke" in text
