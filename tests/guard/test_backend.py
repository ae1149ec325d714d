"""The AuthBackend protocol: one surface, two implementations.

``Guard`` (one process) and ``AuthCluster`` (one guard behind a ring of
owners) must both satisfy the protocol every transport programs against
— conformance is what lets the http/rmi/smtp/secure integration tests
run unchanged against either — and on both a single ``check`` is
``check_many`` over a batch of one.
"""

import random

import pytest

from repro.cluster import AuthCluster, routing_key
from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
    NodeUnavailableError,
)
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
from repro.prover import KeyClosure, Prover
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag
from tests.cluster.conftest import move_owner

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


def _backends():
    return [Guard(TrustEnvironment()), AuthCluster(node_count=2)]


class TestConformance:
    @pytest.mark.parametrize("index", [0, 1], ids=["guard", "cluster"])
    def test_every_protocol_method_present(self, index):
        backend = _backends()[index]
        for name in PROTOCOL_METHODS:
            assert callable(getattr(backend, name)), (
                "%s lacks %s" % (type(backend).__name__, name)
            )
        # The two data members every consumer reads.
        assert hasattr(backend, "audit")
        assert hasattr(backend, "stats")

    @pytest.mark.parametrize("index", [0, 1], ids=["guard", "cluster"])
    def test_runtime_isinstance(self, index):
        assert isinstance(_backends()[index], AuthBackend)

    def test_audit_views_share_the_log_surface(self):
        for backend in _backends():
            audit = backend.audit
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
        cluster = AuthCluster(node_count=1)
        assert resolve_backend(cluster, trust) is cluster
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

    def test_cluster_outgoing_delegations_sees_replicated_set(
        self, server_kp, alice_kp, rng
    ):
        cluster = AuthCluster(node_count=3)
        alice = KeyPrincipal(alice_kp.public)
        assert cluster.outgoing_delegations(alice) == 0
        certificate = Certificate.issue(server_kp, alice, Tag.all(), rng=rng)
        cluster.digest_delegation(SignedCertificateStep(certificate))
        assert cluster.outgoing_delegations(alice) == 1


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

    def __init__(self, kind, keypool):
        alice_kp, _, carol_kp, server_kp = keypool[:4]
        rng = random.Random(7)
        self.issuer = KeyPrincipal(server_kp.public)
        self.alice = KeyPrincipal(alice_kp.public)
        self.stranger = KeyPrincipal(carol_kp.public)
        if kind == "guard":
            self.backend = default_backend(
                TrustEnvironment(clock=SimClock()), prover=Prover()
            )
            self.guard = self.backend
        else:
            self.backend = AuthCluster(node_count=3)
            self.guard = self.backend.guard
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
        return self.guard.stats["checks"]


@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
@pytest.mark.parametrize("credential", CREDENTIALS)
@pytest.mark.parametrize("kind", ["guard", "cluster"])
class TestCheckIsABatchOfOne:
    def test_check_agrees_with_check_many(
        self, kind, credential, outcome, keypool
    ):
        batched, single = _World(kind, keypool), _World(kind, keypool)
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
        # Either way the serving guard decided exactly one request.
        assert single.decided() == batched.decided() == 1


@pytest.mark.parametrize("credential", CREDENTIALS)
def test_crashed_serving_node_raises_from_both_entry_points(
    credential, keypool
):
    world = _World("cluster", keypool)
    request = world.request(credential, "grant")
    owner = world.backend.membership.node_for(routing_key(request))
    world.backend.crash_node(owner.node_id)
    with pytest.raises(NodeUnavailableError):
        world.backend.check_many([request])
    with pytest.raises(NodeUnavailableError):
        world.backend.check(request)
    assert world.audited() == 0


def test_guard_checks_counts_requests_decided(keypool):
    """``stats["checks"]`` is per request, not per call: harnesses find
    the serving node of a batch by it."""
    world = _World("guard", keypool)
    world.backend.check(world.request("channel", "grant"))
    world.backend.check_many(
        [world.request("session", "grant"), world.request("proof", "denial")]
    )
    assert world.backend.stats["checks"] == 3
    assert world.backend.stats["batches"] == 2


@pytest.mark.parametrize("invalidation", ["revoke", "retract"])
@pytest.mark.parametrize("kind", ["guard", "cluster2", "cluster3"])
def test_an_invalidation_refuses_the_next_check(
    kind, invalidation, server_kp, rng
):
    """The backend call that publishes an invalidation is all a caller
    makes: the next check by the speaker it reached is refused, on a
    single guard and on a cluster whose speaker is served off
    ``nodes()[0]`` alike."""
    if kind == "guard":
        backend = default_backend(
            TrustEnvironment(clock=SimClock()), prover=Prover()
        )
        speaker = HashPrincipal(HashValue.of_bytes(b"speaker"))
    else:
        backend = AuthCluster(node_count=int(kind[-1]))
        speaker = next(
            candidate
            for candidate in (
                HashPrincipal(HashValue.of_bytes(b"speaker-%d" % index))
                for index in range(64)
            )
            if backend.node_for_speaker(candidate) is not backend.nodes()[0]
        )
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


def _session_backend(kind, server_kp):
    """A guard or a cluster holding one MAC session whose principal the
    server delegated to; the same seeds build the same backend."""
    rng = random.Random(11)
    if kind == "guard":
        backend = default_backend(
            TrustEnvironment(clock=SimClock()), prover=Prover()
        )
    else:
        backend = AuthCluster(node_count=int(kind[-1]))
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


@pytest.mark.parametrize("kind", ["guard", "cluster2", "cluster3"])
def test_a_non_ascii_session_id_is_refused_alone(kind, server_kp):
    """A session id no session has — here one that is not ASCII — is
    denied on its own; the check beside it in the batch is decided as
    it would be alone."""
    alone, good = _session_backend(kind, server_kp)
    (expected,) = alone.check_many([good])
    backend, good = _session_backend(kind, server_kp)
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


#: A revocation outlives the state it purged: the probes present the
#: revoked proof again after a join moved its subject's shard onto a node
#: that joined later, or after 4 097 unrelated revocations.
PROBES = [
    (kind, invalidation, case)
    for kind in ("guard", "cluster2", "cluster3")
    for invalidation in ("revoke", "retract")
    for case in ("joiner", "aging")
    if not (kind == "guard" and case == "joiner")
]


@pytest.mark.parametrize("kind,invalidation,case", PROBES)
def test_a_revoked_proof_presented_again_stays_refused(
    kind, invalidation, case, server_kp, rng
):
    """A hash subject's self-contained certificate, presented as a proof
    credential, is granted; once it is revoked (or its delegation
    retracted) it is refused, and it stays refused after the subject's
    shard moves onto a node that joined later, and after 4 097 unrelated
    revocations of serials nothing holds."""
    if kind == "guard":
        backend = default_backend(
            TrustEnvironment(clock=SimClock()), prover=Prover()
        )
    else:
        backend = AuthCluster(node_count=int(kind[-1]))
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

    if case == "joiner":
        move_owner(backend, subject)
    else:
        for index in range(4097):
            backend.revoke_serial(b"unrelated-%d" % index)

    decision = presented()
    assert not decision.granted, decision.stage
    assert isinstance(decision.error, AuthorizationError)
