"""Unit tests for the transport-agnostic guard pipeline."""

import base64

import pytest

from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
    VerificationError,
)
from repro.core.principals import (
    ChannelPrincipal,
    HashPrincipal,
    KeyPrincipal,
    MacPrincipal,
)
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor
from repro.crypto.hashes import HashValue
from repro.guard import (
    ChannelCredential,
    Guard,
    GuardRequest,
    ProofCredential,
    SessionCredential,
    SessionRegistry,
)
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim import Meter, SimClock
from repro.spki import Certificate
from repro.tags import Tag

REQUEST = ["invoke", ["object", "o"], ["method", "m"], ["args"]]


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    clock = SimClock()
    trust = TrustEnvironment(clock=clock)
    meter = Meter()
    guard = Guard(trust, meter=meter)
    issuer = KeyPrincipal(server_kp.public)
    channel = ChannelPrincipal.of_secret(b"session")
    client = KeyPrincipal(alice_kp.public)
    premise = SpeaksFor(channel, client, Tag.all())
    trust.vouch(premise)
    chain = TransitivityStep(
        PremiseStep(premise),
        SignedCertificateStep(
            Certificate.issue(server_kp, client, Tag.all(), rng=rng)
        ),
    )
    return {
        "clock": clock,
        "trust": trust,
        "meter": meter,
        "guard": guard,
        "issuer": issuer,
        "channel": channel,
        "client": client,
        "premise": premise,
        "chain": chain,
    }


def channel_request(world, logical=REQUEST):
    return GuardRequest(
        logical,
        issuer=world["issuer"],
        credential=ChannelCredential(world["channel"]),
        transport="rmi",
    )


class TestStages:
    def test_no_credential_denied(self, world):
        with pytest.raises(AuthorizationError):
            world["guard"].check(GuardRequest(REQUEST, issuer=world["issuer"]))

    def test_unproven_speaker_challenged_with_min_tag(self, world):
        with pytest.raises(NeedAuthorizationError) as excinfo:
            world["guard"].check(channel_request(world))
        assert excinfo.value.issuer == world["issuer"]
        assert excinfo.value.tag.matches(sexp(REQUEST))
        assert world["guard"].stats["challenges"] == 1

    def test_cache_stage_grants_after_submission(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        decision = guard.check(channel_request(world))
        assert decision.granted and decision.stage == "cache"
        assert decision.via == "channel"
        assert decision.record.transport == "rmi"
        assert guard.stats["cache_hits"] == 1

    def test_prover_stage_composes_from_digested_delegations(self, world):
        guard = Guard(
            world["trust"], prover=Prover(), check_charge=None
        )
        guard.prover.add_proof(world["chain"])  # digested into the graph
        decision = guard.check(channel_request(world))
        assert decision.granted and decision.stage == "prover"
        # The composed proof was cached: next time is a cache hit.
        decision = guard.check(channel_request(world))
        assert decision.stage == "cache"

    def test_closed_channel_stops_revalidating(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        assert guard.check(channel_request(world)).granted
        # The channel closes: its binding premise is retracted, and the
        # cached chain leaning on it must stop authorizing immediately.
        guard.close_channel(world["premise"])
        with pytest.raises(NeedAuthorizationError):
            guard.check(channel_request(world))

    def test_expired_conclusion_retracted_from_cache(self, world, server_kp,
                                                     alice_kp, rng):
        from repro.core.statements import Validity

        guard = world["guard"]
        chain = TransitivityStep(
            PremiseStep(world["premise"]),
            SignedCertificateStep(
                Certificate.issue(
                    server_kp, world["client"], Tag.all(),
                    validity=Validity(0, 10), rng=rng,
                )
            ),
        )
        guard.submit_proof(to_canonical(chain.to_sexp()))
        assert guard.check(channel_request(world)).granted
        world["clock"].advance(100.0)
        with pytest.raises(NeedAuthorizationError):
            guard.check(channel_request(world))
        assert guard.cache.count() == 0


class TestProofCredential:
    def test_subject_binding_enforced(self, world, server_kp, rng):
        subject = HashPrincipal(HashValue.of_bytes(b"message"))
        cert = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
        proof = SignedCertificateStep(cert)
        wrong = HashPrincipal(HashValue.of_bytes(b"other message"))
        with pytest.raises(AuthorizationError):
            world["guard"].check(
                GuardRequest(
                    REQUEST,
                    issuer=world["issuer"],
                    credential=ProofCredential(wrong, node=proof.to_sexp()),
                    transport="smtp",
                )
            )

    def test_bound_proof_grants_and_dedups(self, world, server_kp, rng):
        guard = world["guard"]
        subject = HashPrincipal(HashValue.of_bytes(b"message"))
        cert = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
        node = SignedCertificateStep(cert).to_sexp()

        def request():
            return GuardRequest(
                REQUEST,
                issuer=world["issuer"],
                credential=ProofCredential(subject, node=node),
                transport="smtp",
            )

        assert guard.check(request()).granted
        assert guard.check(request()).granted
        # Digest-level dedup: the same proof wire lands in one cache slot.
        assert guard.cache.count() == 1
        assert guard.cache.stats["dedup_hits"] >= 1


def _bound_proof(server_kp, rng):
    """A one-certificate proof making a message hash speak for the
    server, and that hash principal."""
    subject = HashPrincipal(HashValue.of_bytes(b"message"))
    cert = Certificate.issue(server_kp, subject, Tag.all(), rng=rng)
    return SignedCertificateStep(cert), subject


def _presenting(world, proof, subject):
    wire = to_transport(proof.to_sexp())
    return lambda: GuardRequest(
        REQUEST,
        issuer=world["issuer"],
        credential=ProofCredential(subject, wire=wire),
        transport="http",
    )


def _counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (patched for the test's duration)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPresentedProofs:
    """A proof the client presents is parsed and verified once; every
    repeat of the same bytes is a digest lookup."""

    def test_a_repeat_is_admitted_without_a_parse_or_a_signature_check(
        self, world, server_kp, rng, monkeypatch
    ):
        import repro.guard.pipeline as pipeline
        from repro.crypto.rsa import RsaPublicKey

        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        request = _presenting(world, proof, subject)
        parses = _counting(monkeypatch, pipeline, "proof_from_canonical")
        verifies = _counting(monkeypatch, RsaPublicKey, "verify")
        first = guard.check(request())
        for _ in range(3):
            repeat = guard.check(request())
            assert repeat.granted and repeat.via == "proof"
            assert repeat.stage == "cache" and repeat.speaker == subject
        assert first.granted
        assert len(parses) == 1 and len(verifies) == 1
        assert guard.stats["credential_verifications"] == 1
        assert guard.cache.stats["dedup_hits"] == 3
        assert guard.cache.count() == 1

    def test_the_meter_charges_a_repeat_what_it_charges_a_parse(
        self, world, server_kp, rng
    ):
        guard, meter = world["guard"], world["meter"]
        proof, subject = _bound_proof(server_kp, rng)
        request = _presenting(world, proof, subject)
        guard.check(request())
        first = dict(meter.counts())
        guard.check(request())
        second = meter.counts()
        for operation in ("sexp_parse", "spki_unmarshal", "sf_overhead"):
            assert second[operation] == 2 * first[operation] == 2

    def test_a_tampered_repeat_takes_the_full_path_and_is_denied(
        self, world, server_kp, rng
    ):
        from repro.core.proofs import proof_from_sexp
        from repro.sexp import parse_canonical

        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        assert guard.check(_presenting(world, proof, subject)()).granted
        cert = proof.certificate
        forged = Certificate(
            cert.issuer_key, cert.subject, cert.tag, cert.validity,
            cert.serial, cert.propagate,
            cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]),
        )
        tampered = SignedCertificateStep(forged)
        with pytest.raises(AuthorizationError):
            guard.check(_presenting(world, tampered, subject)())
        assert guard.stats["credential_verifications"] == 1
        # A non-canonical encoding of the genuine proof hashes elsewhere
        # too: it is parsed and verified, not looked up.
        padded = to_canonical(proof.to_sexp()).replace(
            b"(5:proof", b"(05:proof", 1
        )
        assert proof_from_sexp(parse_canonical(padded)) == proof
        request = GuardRequest(
            REQUEST, issuer=world["issuer"], transport="http",
            credential=ProofCredential(
                subject, wire=b"{" + base64.b64encode(padded) + b"}"
            ),
        )
        assert guard.check(request).granted
        assert guard.stats["credential_verifications"] == 2

    def test_a_repeat_for_another_subject_is_refused(
        self, world, server_kp, rng
    ):
        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        assert guard.check(_presenting(world, proof, subject)()).granted
        other = HashPrincipal(HashValue.of_bytes(b"other message"))
        with pytest.raises(AuthorizationError):
            guard.check(_presenting(world, proof, other)())

    def test_a_revoked_certificate_presented_again_is_denied(
        self, world, server_kp, rng
    ):
        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        request = _presenting(world, proof, subject)
        assert guard.check(request()).granted
        guard.revoke_serial(proof.certificate.serial)
        assert guard.cache.count() == 0
        with pytest.raises(AuthorizationError):
            guard.check(request())
        with pytest.raises(VerificationError):
            guard.submit_proof(to_canonical(proof.to_sexp()))
        assert guard.cache.count() == 0

    def test_a_chain_over_a_retracted_delegation_is_refused(
        self, world, server_kp, rng
    ):
        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        guard.retract_delegation(proof)
        with pytest.raises(AuthorizationError):
            guard.check(_presenting(world, proof, subject)())

    def test_a_proof_without_its_conclusion_is_denied(
        self, world, server_kp, alice_kp, rng
    ):
        """A chain whose outer step leaves out its ``(conclusion ..)``
        is refused at parse, though the step could derive it: nothing is
        verified and nothing is cached."""
        from repro.sexp import SList

        guard = world["guard"]
        subject = HashPrincipal(HashValue.of_bytes(b"message"))
        chain = TransitivityStep(
            SignedCertificateStep(
                Certificate.issue(alice_kp, subject, Tag.all(), rng=rng)
            ),
            SignedCertificateStep(
                Certificate.issue(server_kp, world["client"], Tag.all(), rng=rng)
            ),
        )
        stripped = SList([
            item for item in chain.to_sexp().items
            if not (isinstance(item, SList) and item.head() == "conclusion")
        ])
        request = GuardRequest(
            REQUEST, issuer=world["issuer"], transport="http",
            credential=ProofCredential(
                subject,
                wire=b"{" + base64.b64encode(to_canonical(stripped)) + b"}",
            ),
        )
        with pytest.raises(AuthorizationError, match="missing conclusion"):
            guard.check(request)
        assert guard.stats["credential_verifications"] == 0
        assert guard.cache.count() == 0


class TestSessionCredential:
    def test_fast_path_steady_state(self, world, server_kp, rng):
        guard = world["guard"]
        mac_id, mac_key = guard.sessions.mint(rng)
        principal = MacPrincipal(mac_key.fingerprint())
        chain = SignedCertificateStep(
            Certificate.issue(server_kp, principal, Tag.all(), rng=rng)
        )
        message = b"GET /doc"

        def request(proof_wire=None):
            return GuardRequest(
                REQUEST,
                issuer=world["issuer"],
                credential=SessionCredential(
                    mac_id, mac_key.tag(message), message,
                    proof_wire=proof_wire,
                ),
                transport="http",
            )

        first = guard.check(
            request(to_transport(chain.to_sexp()).decode("ascii"))
        )
        assert first.granted and first.via == "session"
        steady = guard.check(request())
        assert steady.granted and steady.stage == "cache"
        assert steady.via == "session"

    def test_bad_tag_denied(self, world, rng):
        guard = world["guard"]
        mac_id, mac_key = guard.sessions.mint(rng)
        with pytest.raises(AuthorizationError):
            guard.check(
                GuardRequest(
                    REQUEST,
                    issuer=world["issuer"],
                    credential=SessionCredential(
                        mac_id, b"\x00" * 16, b"message"
                    ),
                    transport="http",
                )
            )

    def test_chainless_session_refusal_is_flat_in_graph_size(self, world, rng):
        """A MAC session holding no delegation is challenged after at
        most two prover expansions per refusal, however many delegations
        the guard holds — and the challenge is the one an empty guard
        gives, down to the wire bytes."""
        from repro.core.principals import NamePrincipal
        from repro.serve.protocol import (
            CHALLENGE, Reply, decision_reply, encode_reply,
        )

        issuer = world["issuer"]
        loaded = Guard(world["trust"], prover=Prover(), check_charge=None)
        for index in range(256):
            loaded.prover.add_proof(PremiseStep(SpeaksFor(
                NamePrincipal(issuer, "delegate%d" % index), issuer, Tag.all()
            )))
        empty = Guard(world["trust"], prover=Prover(), check_charge=None)
        frames = []
        for guard in (loaded, empty):
            mac_id, mac_key = guard.sessions.mint(rng)
            message = b"GET /doc"
            request = GuardRequest(
                REQUEST,
                issuer=issuer,
                credential=SessionCredential(
                    mac_id, mac_key.tag(message), message
                ),
                transport="http",
            )
            for refusal in range(1, 4):
                (decision,) = guard.check_many([request])
                error = decision.error
                assert type(error) is NeedAuthorizationError
                assert error.issuer == issuer
                assert error.tag == request.effective_min_tag()
                assert guard.prover.stats["searches"] == refusal
                assert guard.prover.stats["nodes_expanded"] <= 2 * refusal
            frames.append(encode_reply(decision_reply(7, decision)))
        assert frames[0] == frames[1] == encode_reply(Reply(
            CHALLENGE, 7, issuer=issuer, tag=request.effective_min_tag()
        ))

    def test_registry_is_lru_bounded(self, rng):
        registry = SessionRegistry(max_sessions=4)
        for _ in range(10):
            registry.mint(rng)
        assert registry.count() == 4
        assert registry.stats["evictions"] == 6


class TestCheckMany:
    def test_batch_charges_checkauth_once(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        before = world["meter"].counts().get("rmi_checkauth", 0)
        decisions = guard.check_many([channel_request(world) for _ in range(16)])
        assert all(decision.granted for decision in decisions)
        assert world["meter"].counts()["rmi_checkauth"] == before + 1

    def test_failures_do_not_interrupt_the_batch(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        stranger = ChannelPrincipal.of_secret(b"unproven")
        batch = [
            channel_request(world),
            GuardRequest(
                REQUEST,
                issuer=world["issuer"],
                credential=ChannelCredential(stranger),
                transport="rmi",
            ),
            channel_request(world),
        ]
        granted, denied, granted_too = guard.check_many(batch)
        assert granted.granted and granted_too.granted
        assert not denied.granted
        assert isinstance(denied.error, NeedAuthorizationError)

    def test_unverifiable_credential_does_not_abort_the_batch(
        self, world, server_kp, alice_kp, rng
    ):
        """A proof credential that fails verification (unvouched premise)
        yields a denied decision, not an escaped exception."""
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        unvouched = PremiseStep(
            SpeaksFor(
                HashPrincipal(HashValue.of_bytes(b"m")),
                world["issuer"],
                Tag.all(),
            )
        )
        bad = GuardRequest(
            REQUEST,
            issuer=world["issuer"],
            credential=ProofCredential(
                HashPrincipal(HashValue.of_bytes(b"m")),
                node=unvouched.to_sexp(),
            ),
            transport="smtp",
        )
        granted, denied = guard.check_many([channel_request(world), bad])
        assert granted.granted
        assert not denied.granted
        assert isinstance(denied.error, AuthorizationError)

    def test_a_session_proof_for_another_subject_does_not_abort_the_batch(
        self, world, server_kp, rng
    ):
        """A MAC session's first request attaches a valid chain whose
        subject is someone else (the client's own delegation): it is
        ignored, not cached for the session, and the batch beside it is
        decided."""
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        mac_id, mac_key = guard.sessions.mint(rng)
        clients = SignedCertificateStep(
            Certificate.issue(server_kp, world["client"], Tag.all(), rng=rng)
        )
        message = b"GET /doc"
        evil = GuardRequest(
            REQUEST,
            issuer=world["issuer"],
            credential=SessionCredential(
                mac_id, mac_key.tag(message), message,
                proof_wire=to_transport(clients.to_sexp()),
            ),
            transport="http",
        )
        innocent, refused = guard.check_many([channel_request(world), evil])
        assert innocent.granted
        assert not refused.granted
        assert isinstance(refused.error, NeedAuthorizationError)
        assert guard.cache.bucket(MacPrincipal(mac_key.fingerprint())) == {}

    def test_a_cached_proof_that_cannot_derive_the_grant_denies_one_request(
        self, world
    ):
        """Defence in depth: even a proof cached under a speaker it does
        not cover refuses that one request instead of raising out of the
        batch."""
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        stranger = ChannelPrincipal.of_secret(b"stranger")
        guard.cache.add(world["chain"], stranger)
        innocent, refused = guard.check_many([
            channel_request(world),
            GuardRequest(
                REQUEST,
                issuer=world["issuer"],
                credential=ChannelCredential(stranger),
                transport="rmi",
            ),
        ])
        assert innocent.granted
        assert not refused.granted
        assert isinstance(refused.error, AuthorizationError)

    def test_refusals_leave_nothing_for_the_cyclic_gc(
        self, world, server_kp, rng
    ):
        """A refused check keeps its error, not the frames it was raised
        in: with the cyclic GC off, a batch holding a challenged check
        and a denied one is freed by reference counting alone once its
        decisions are dropped."""
        import gc

        guard = world["guard"]
        proof, subject = _bound_proof(server_kp, rng)
        cert = proof.certificate
        forged = SignedCertificateStep(Certificate(
            cert.issuer_key, cert.subject, cert.tag, cert.validity,
            cert.serial, cert.propagate,
            cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]),
        ))
        stranger = ChannelPrincipal.of_secret(b"unproven")

        def batch():
            return [
                GuardRequest(
                    REQUEST, issuer=world["issuer"],
                    credential=ChannelCredential(stranger), transport="rmi",
                ),
                _presenting(world, forged, subject)(),
            ]

        guard.check_many(batch())  # warm every memo the batch touches
        gc.collect()
        gc.disable()
        try:
            challenged, denied = guard.check_many(batch())
            assert isinstance(challenged.error, NeedAuthorizationError)
            assert isinstance(denied.error, AuthorizationError)
            assert "bad signature" in str(denied.error)
            del challenged, denied
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_batch_audits_each_grant(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        guard.check_many([channel_request(world) for _ in range(4)])
        assert len(guard.audit) == 4
        assert len(guard.audit.by_transport("rmi")) == 4


class TestCredentialFailureMapping:
    def test_unverifiable_proof_is_a_denial_not_a_fault(self, world):
        """check() maps verification failures of client-supplied proofs
        to AuthorizationError, which HTTP/SMTP frame as 403/554 instead
        of a 500."""
        subject = HashPrincipal(HashValue.of_bytes(b"m"))
        unvouched = PremiseStep(
            SpeaksFor(subject, world["issuer"], Tag.all())
        )
        with pytest.raises(AuthorizationError):
            world["guard"].check(
                GuardRequest(
                    REQUEST,
                    issuer=world["issuer"],
                    credential=ProofCredential(subject, node=unvouched.to_sexp()),
                    transport="http",
                )
            )
        assert world["guard"].stats["denials"] == 1

    def test_utterances_do_not_grow_the_premise_set(self, world):
        """Per-request Says statements live on the decision's context
        snapshot; the durable TrustEnvironment stays bounded."""
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        before = len(world["trust"])
        for index in range(8):
            assert guard.check(
                channel_request(world, ["invoke", ["object", "o-%d" % index]])
            ).granted
        assert len(world["trust"]) == before


class TestLegacySurface:
    def test_check_auth_returns_derived_proof(self, world):
        from repro.core.statements import Says

        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        derived = guard.check(channel_request(world)).proof
        assert derived.conclusion == Says(world["issuer"], sexp(REQUEST))

    def test_forget_and_count(self, world):
        guard = world["guard"]
        guard.submit_proof(to_canonical(world["chain"].to_sexp()))
        assert guard.cache.count() == 1
        guard.cache.forget()
        assert guard.cache.count() == 0


class TestSharedGuardAdoption:
    def test_gateway_adopts_identity_prover(self, world, alice_kp, rng):
        """An injected shared guard without a prover gets the gateway
        identity's delegation graph instead of crashing later."""
        from repro.apps.gateway import QuotingGateway
        from repro.prover import KeyClosure
        from repro.rmi.invoker import ClientIdentity

        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        identity = ClientIdentity(prover, alice_kp)
        shared = Guard(world["trust"], check_charge=None)
        gateway = QuotingGateway(object(), identity, guard=shared)
        assert gateway.guard.prover is prover

    def test_session_adoption_preserves_minted_grants(self, rng):
        """Re-pointing a front at a shared registry keeps its sessions."""
        ours = SessionRegistry()
        mac_id, _ = ours.mint(rng)
        shared = SessionRegistry()
        shared.adopt(ours)
        assert shared.get(mac_id) is not None
