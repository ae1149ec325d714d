"""The AuthBackend protocol, and the guard that implements it.

``Guard`` must satisfy the protocol every transport programs against —
conformance is what lets the http/rmi/smtp/secure integration tests run
against any injected backend — and a single ``check`` is ``check_many``
over a batch of one.  Invalidations outlive the state they purged.
"""

import random

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.guard import (
    AuthBackend,
    ChannelCredential,
    Guard,
    GuardRequest,
    ProofCredential,
    SessionCredential,
    default_backend,
    resolve_backend,
)
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import KeyClosure, Prover
from repro.sexp import parse_canonical, sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

PROTOCOL_METHODS = [
    "check",
    "check_many",
    "authenticate",
    "open_channel",
    "close_channel",
    "deliver",
    "retract_delivery",
    "mint_session",
    "install_session",
    "sweep_sessions",
    "submit_proof",
    "digest_delegation",
    "outgoing_delegations",
    "retract_delegation",
    "revoke_serial",
    "context",
    "audit_authentication",
]


def _guard():
    """One guard over a simulated clock, with a prover over its
    delegation graph, counting on a registry of its own."""
    return default_backend(
        TrustEnvironment(clock=SimClock()), prover=Prover(),
        metrics=MetricsRegistry(),
    )


#: The backends the cases below are pinned on, each under the id it
#: gives the case's name.  One process serves one guard, so there is one.
BACKENDS = [pytest.param(_guard, id="guard")]


class TestConformance:
    @pytest.mark.parametrize("make", BACKENDS)
    def test_every_protocol_method_present(self, make):
        backend = make()
        for name in PROTOCOL_METHODS:
            assert callable(getattr(backend, name)), (
                "%s lacks %s" % (type(backend).__name__, name)
            )
        # The two data members every consumer reads.
        assert hasattr(backend, "audit")
        assert hasattr(backend, "metrics")

    @pytest.mark.parametrize("make", BACKENDS)
    def test_runtime_isinstance(self, make):
        assert isinstance(make(), AuthBackend)

    def test_audit_views_share_the_log_surface(self):
        audit = Guard(TrustEnvironment()).audit
        assert hasattr(audit, "records")
        assert callable(audit.involving)
        assert callable(audit.by_transport)


class TestFactory:
    def test_default_backend_is_a_guard_on_the_given_trust(self):
        trust = TrustEnvironment(clock=SimClock())
        backend = default_backend(trust, check_charge=None)
        assert isinstance(backend, Guard)
        assert backend.trust is trust
        # The clock rides in on trust: sessions expire on the same
        # timeline the transports' validity checks use.
        assert backend.sessions.clock is trust.clock

    def test_resolve_returns_injected_backend_unchanged(self):
        trust = TrustEnvironment()
        injected = default_backend(TrustEnvironment(), prover=Prover())
        assert resolve_backend(injected, trust) is injected
        built = resolve_backend(None, trust, check_charge=None)
        assert isinstance(built, Guard)

    def test_injected_rng_drives_session_minting(self):
        """Two backends seeded identically mint identical sessions — the
        determinism every transport default must honor (the http/smtp/
        secure consistency fix)."""
        ids = []
        for _ in range(2):
            guard = default_backend(TrustEnvironment(), rng=random.Random(99))
            mac_id, _ = guard.mint_session()
            ids.append(mac_id)
        assert ids[0] == ids[1]
        # A per-call rng overrides the injected default.
        guard = default_backend(TrustEnvironment(), rng=random.Random(99))
        mac_id, _ = guard.mint_session(random.Random(7))
        assert mac_id != ids[0]

    def test_install_session_hands_a_table_over(self):
        donor = default_backend(TrustEnvironment(), rng=random.Random(1))
        receiver = default_backend(TrustEnvironment())
        mac_id, mac_key = donor.mint_session()
        receiver.install_session(mac_id, mac_key)
        assert receiver.sessions.get(mac_id) is not None


class TestGuardSurface:
    def test_outgoing_delegations_without_prover_is_zero(self, alice_kp):
        guard = default_backend(TrustEnvironment())
        assert guard.outgoing_delegations(KeyPrincipal(alice_kp.public)) == 0

    def test_outgoing_delegations_counts_digested_edges(
        self, server_kp, alice_kp, rng
    ):
        guard = default_backend(TrustEnvironment(), prover=Prover())
        alice = KeyPrincipal(alice_kp.public)
        assert guard.outgoing_delegations(alice) == 0
        certificate = Certificate.issue(server_kp, alice, Tag.all(), rng=rng)
        guard.digest_delegation(SignedCertificateStep(certificate))
        assert guard.outgoing_delegations(alice) == 1


LOGICAL = sexp(["web", ["method", "GET"], ["path", "/doc"]])
CREDENTIALS = ["channel", "session", "proof"]
OUTCOMES = {
    "grant": None,
    "denial": AuthorizationError,
    "challenge": NeedAuthorizationError,
}


class _World:
    """One backend plus everything needed to ask it any of the nine
    (credential kind × outcome) questions.  Built from fixed seeds, so
    two worlds are the same backend in the same state."""

    def __init__(self, make, keypool):
        alice_kp, _, carol_kp, server_kp = keypool[:4]
        rng = random.Random(7)
        self.issuer = KeyPrincipal(server_kp.public)
        self.alice = KeyPrincipal(alice_kp.public)
        self.stranger = KeyPrincipal(carol_kp.public)
        self.backend = make()
        self.mac_id, self.mac_key = self.backend.mint_session(rng)
        self.orphan_id, self.orphan_key = self.backend.mint_session(rng)
        for subject in (
            self.alice, MacPrincipal(self.mac_key.fingerprint())
        ):
            self.backend.digest_delegation(
                SignedCertificateStep(
                    Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
                )
            )
        # The client side of the proof kind: alice holds the server's
        # delegation and signs request hashes over to herself.
        client = Prover()
        client.control(KeyClosure(alice_kp, rng))
        client.add_certificate(
            Certificate.issue(server_kp, self.alice, Tag.all(), rng=rng)
        )
        self.subject = HashPrincipal(
            HashValue.of_bytes(to_canonical(LOGICAL))
        )
        self.proof_wire = to_transport(
            client.prove(self.subject, self.issuer).to_sexp()
        )

    def request(self, credential, outcome):
        issuer = self.issuer
        message = to_canonical(LOGICAL)
        if credential == "channel":
            # A vouched speaker is refused outright only when the
            # request names no issuer to authorize against.
            if outcome == "denial":
                issuer = None
            built = ChannelCredential(
                self.stranger if outcome == "challenge" else self.alice
            )
        elif credential == "session":
            mac_id, mac_key = (
                (self.orphan_id, self.orphan_key)
                if outcome == "challenge"
                else (self.mac_id, self.mac_key)
            )
            tag = mac_key.tag(message)
            if outcome == "denial":
                tag = bytes(len(tag))
            built = SessionCredential(mac_id, tag, message)
        else:
            subject = self.subject
            if outcome == "denial":
                subject = HashPrincipal(HashValue.of_bytes(b"another body"))
            elif outcome == "challenge":
                # A sound proof, but of authority over someone else.
                issuer = self.stranger
            built = ProofCredential(subject, wire=self.proof_wire)
        return GuardRequest(
            LOGICAL, issuer=issuer, credential=built, transport="http"
        )

    def audited(self):
        return len(self.backend.audit.records)

    def decided(self):
        """The requests decided: ``check_many`` observes each batch's
        size, so the histogram's sum."""
        return self.backend.metrics.histogram("guard.batch_size").total


@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
@pytest.mark.parametrize("credential", CREDENTIALS)
@pytest.mark.parametrize("make", BACKENDS)
class TestCheckIsABatchOfOne:
    def test_check_agrees_with_check_many(
        self, make, credential, outcome, keypool
    ):
        batched, single = _World(make, keypool), _World(make, keypool)
        (expected,) = batched.backend.check_many(
            [batched.request(credential, outcome)]
        )
        request = single.request(credential, outcome)
        if outcome == "grant":
            decision = single.backend.check(request)
            assert expected.granted and decision.granted
            assert (decision.via, decision.stage, decision.speaker) == (
                expected.via, expected.stage, expected.speaker
            )
            assert single.backend.audit.records == [decision.record]
        else:
            assert not expected.granted
            assert type(expected.error) is OUTCOMES[outcome]
            with pytest.raises(OUTCOMES[outcome]) as raised:
                single.backend.check(request)
            assert type(raised.value) is type(expected.error)
            assert str(raised.value) == str(expected.error)
            assert single.audited() == 0
        # Either way the guard decided exactly one request.
        assert single.decided() == batched.decided() == 1


def test_guard_checks_counts_requests_decided(keypool):
    """``guard.batch_size`` sums requests, not calls, and counts the
    batches."""
    world = _World(_guard, keypool)
    world.backend.check(world.request("channel", "grant"))
    world.backend.check_many(
        [world.request("session", "grant"), world.request("proof", "denial")]
    )
    sizes = world.backend.metrics.histogram("guard.batch_size")
    assert sizes.total == 3
    assert sizes.count == 2


@pytest.mark.parametrize("invalidation", ["revoke", "retract"])
@pytest.mark.parametrize("make", BACKENDS)
def test_an_invalidation_refuses_the_next_check(
    make, invalidation, server_kp, rng
):
    """The backend call that publishes an invalidation is all a caller
    makes: the next check by the speaker it reached is refused, though
    its chain was cached."""
    backend = make()
    speaker = HashPrincipal(HashValue.of_bytes(b"speaker"))
    issuer = KeyPrincipal(server_kp.public)
    certificate = Certificate.issue(server_kp, speaker, Tag.all(), rng=rng)
    delegation = SignedCertificateStep(certificate)
    backend.digest_delegation(delegation)
    request = GuardRequest(
        LOGICAL, issuer=issuer, credential=ChannelCredential(speaker),
        transport="rmi",
    )
    assert backend.check(request).stage == "prover"
    assert backend.check(request).stage == "cache"

    if invalidation == "revoke":
        backend.revoke_serial(certificate.serial)
    else:
        backend.retract_delegation(delegation)

    (decision,) = backend.check_many([request])
    assert not decision.granted, decision.stage
    assert isinstance(decision.error, NeedAuthorizationError)


def _session_backend(make, server_kp):
    """A backend holding one MAC session whose principal the server
    delegated to; the same seeds build the same backend."""
    rng = random.Random(11)
    backend = make()
    mac_id, mac_key = backend.mint_session(rng)
    backend.digest_delegation(SignedCertificateStep(Certificate.issue(
        server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng,
    )))
    message = to_canonical(LOGICAL)
    good = GuardRequest(
        LOGICAL, issuer=KeyPrincipal(server_kp.public), transport="http",
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
    )
    return backend, good


@pytest.mark.parametrize("make", BACKENDS)
def test_a_non_ascii_session_id_is_refused_alone(make, server_kp):
    """A session id no session has — here one that is not ASCII — is
    denied on its own; the check beside it in the batch is decided as
    it would be alone."""
    alone, good = _session_backend(make, server_kp)
    (expected,) = alone.check_many([good])
    backend, good = _session_backend(make, server_kp)
    message = to_canonical(LOGICAL)
    bad = GuardRequest(
        LOGICAL, issuer=KeyPrincipal(server_kp.public), transport="http",
        credential=SessionCredential("s\u00e9ance", bytes(32), message),
    )
    decided, refused = backend.check_many([good, bad])
    assert expected.granted and decided.granted
    assert (decided.via, decided.stage) == (expected.via, expected.stage)
    assert not refused.granted
    assert isinstance(refused.error, AuthorizationError)


@pytest.mark.parametrize("invalidation", ["revoke", "retract"])
def test_a_revoked_proof_presented_again_stays_refused(
    invalidation, server_kp, rng
):
    """A hash subject's self-contained certificate, presented as a proof
    credential, is granted; once it is revoked (or its delegation
    retracted) it is refused, and it stays refused after 4 097 unrelated
    revocations of serials nothing holds."""
    backend = _guard()
    issuer = KeyPrincipal(server_kp.public)
    subject = HashPrincipal(HashValue.of_bytes(b"message"))
    certificate = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
    step = SignedCertificateStep(certificate)
    wire = to_transport(step.to_sexp())

    def presented():
        (decision,) = backend.check_many([GuardRequest(
            LOGICAL, issuer=issuer, transport="http",
            credential=ProofCredential(subject, wire=wire),
        )])
        return decision

    assert presented().granted
    if invalidation == "revoke":
        backend.revoke_serial(certificate.serial)
    else:
        backend.retract_delegation(step)
    assert not presented().granted

    for index in range(4097):
        backend.revoke_serial(b"unrelated-%d" % index)

    decision = presented()
    assert not decision.granted, decision.stage
    assert isinstance(decision.error, AuthorizationError)


@pytest.mark.parametrize("signed,respelled", [
    (b"(2:ge1:A)(2:le1:Z)", b"(2:le1:Z)(2:ge1:A)"),
    (b"(2:ge1:A)", b"(2:ge1:0)(2:ge1:A)"),
])
def test_a_retracted_certificate_respelled_stays_refused(
    signed, respelled, server_kp, rng
):
    """A certificate whose range tag is spelled another way is other
    bytes under the same signature: it must not decode, or it would be a
    delegation whose digest the retraction's tombstone does not name."""
    backend = _guard()
    subject = HashPrincipal(HashValue.of_bytes(b"message"))
    tag = Tag.from_sexp(parse_canonical(
        b"(3:tag(3:web(6:method(1:*5:range5:alpha%s))))" % signed
    ))
    step = SignedCertificateStep(
        Certificate.issue(server_kp, subject, tag, rng=rng)
    )
    wire = to_canonical(step.to_sexp())
    assert signed in wire

    def presented(canonical):
        (decision,) = backend.check_many([GuardRequest(
            LOGICAL, issuer=KeyPrincipal(server_kp.public), transport="http",
            credential=ProofCredential(
                subject, wire=to_transport(parse_canonical(canonical))
            ),
        )])
        return decision

    assert presented(wire).granted
    backend.retract_delegation(step)
    assert not presented(wire).granted
    # Re-spelled inside the signed certificate only: the claimed
    # conclusion keeps the spelling the certificate re-encodes to.
    decision = presented(wire.replace(signed, respelled, 1))
    assert not decision.granted, decision.stage
    assert isinstance(decision.error, AuthorizationError)
    assert "range" in str(decision.error)


def test_a_credential_that_decodes_to_nothing_is_a_denial(server_kp, rng):
    """A presented certificate whose range tag is re-spelled does not
    decode; ``Guard.check`` refuses it as it refuses any bad credential,
    with an :class:`AuthorizationError`, not the decoder's own error."""
    backend = _guard()
    subject = HashPrincipal(HashValue.of_bytes(b"message"))
    tag = Tag.from_sexp(parse_canonical(
        b"(3:tag(3:web(6:method(1:*5:range5:alpha(2:ge1:A)))))"
    ))
    wire = to_canonical(SignedCertificateStep(
        Certificate.issue(server_kp, subject, tag, rng=rng)
    ).to_sexp())
    respelled = wire.replace(b"(2:ge1:A)", b"(2:ge1:0)(2:ge1:A)", 1)
    request = GuardRequest(
        LOGICAL, issuer=KeyPrincipal(server_kp.public), transport="http",
        credential=ProofCredential(
            subject, wire=to_transport(parse_canonical(respelled))
        ),
    )
    with pytest.raises(AuthorizationError, match="range"):
        backend.check(request)
