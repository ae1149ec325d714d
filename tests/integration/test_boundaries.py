"""Integration tests: the four boundaries of Section 2.

Each test restages one of the paper's motivating configurations and checks
that authorization information flows end-to-end across the boundary.
"""

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import ConjunctPrincipal, KeyPrincipal, QuotingPrincipal
from repro.core.proofs import (
    PremiseStep,
    SignedCertificateStep,
    VerificationContext,
    authorizes,
)
from repro.core.rules import (
    ConjunctionIntroStep,
    QuotingLeftMonotonicityStep,
    TransitivityStep,
)
from repro.core.statements import SpeaksFor
from repro.crypto import generate_keypair
from repro.net import Network
from repro.prover import KeyClosure, Prover
from repro.spki import Certificate
from repro.tags import Tag, parse_tag


class TestAdministrativeDomains:
    """Section 2.1: sharing across administrative boundaries via
    restricted delegation — no local account, no shared password."""

    def test_cross_domain_delegation(self, alice_kp, bob_kp, server_kp, rng):
        # Alice (domain 1) holds authority over a resource in domain 1.
        # Bob lives in domain 2; the server has no notion of Bob at all.
        A = KeyPrincipal(alice_kp.public)
        B = KeyPrincipal(bob_kp.public)
        S = KeyPrincipal(server_kp.public)
        alice_grant = Certificate.issue(server_kp, A, parse_tag("(tag (files))"), rng=rng)
        # Alice delegates a restricted slice to Bob directly:
        bob_grant = Certificate.issue(
            alice_kp, B, parse_tag("(tag (files (read)))"), rng=rng
        )
        chain = TransitivityStep(
            SignedCertificateStep(bob_grant), SignedCertificateStep(alice_grant)
        )
        context = VerificationContext(now=1.0)
        authorizes(chain, B, S, ["files", ["read"], ["name", "x"]], context)
        # The restriction holds: writes are outside the delegated slice.
        with pytest.raises(AuthorizationError):
            authorizes(chain, B, S, ["files", ["write"]], context)

    def test_server_needs_no_notion_of_domains(self, alice_kp, bob_kp,
                                               server_kp, rng):
        """The proof carries everything: the server's check never consults
        any user database, only the chain itself."""
        A = KeyPrincipal(alice_kp.public)
        B = KeyPrincipal(bob_kp.public)
        S = KeyPrincipal(server_kp.public)
        chain = TransitivityStep(
            SignedCertificateStep(
                Certificate.issue(alice_kp, B, Tag.all(), rng=rng)
            ),
            SignedCertificateStep(
                Certificate.issue(server_kp, A, Tag.all(), rng=rng)
            ),
        )
        # A completely fresh context — no premises, no registry of users.
        authorizes(chain, B, S, ["anything"], VerificationContext())


class TestNetworkScales:
    """Section 2.2: the same policy rides different mechanisms — a secure
    wide-area channel or a trusted-host local channel — and the server's
    authorization logic cannot tell the difference."""

    def _serve(self, channel, identity, server, request_args):
        from repro.rmi import RemoteStub

        stub = RemoteStub(channel, "obj", identity)
        return stub.invoke(*request_args)

    def test_same_policy_two_mechanisms(self, host_kp, server_kp, alice_kp, rng):
        from repro.net import TrustedHost
        from repro.net.secure import SecureChannelClient
        from repro.net.trust import TrustEnvironment
        from repro.rmi import RmiServer, RemoteObject, ClientIdentity
        from repro.guard import Guard
        from repro.rmi.remote import RmiSkeleton

        KS = KeyPrincipal(server_kp.public)
        A = KeyPrincipal(alice_kp.public)

        def make_identity():
            prover = Prover()
            prover.control(KeyClosure(alice_kp, rng))
            prover.add_certificate(
                Certificate.issue(server_kp, A, Tag.all(), rng=rng)
            )
            return ClientIdentity(prover, alice_kp)

        # Mechanism 1: secure network channel.
        net = Network()
        rmi = RmiServer(net, "wan.addr", host_kp)
        rmi.export(RemoteObject("obj", KS, {"ping": lambda: "pong"}))
        channel = SecureChannelClient(
            net.connect("wan.addr"), alice_kp, host_kp.public, rng=rng
        )
        from repro.rmi import RemoteStub

        wan_result = RemoteStub(channel, "obj", make_identity()).invoke("ping")

        # Mechanism 2: local channel on a trusted host.
        trust = TrustEnvironment()
        skeleton = RmiSkeleton(Guard(trust))
        skeleton.export(RemoteObject("obj", KS, {"ping": lambda: "pong"}))
        host = TrustedHost(rng)
        host.register_service("obj", skeleton, trust)
        local_channel = host.connect(A, "obj")
        local_result = RemoteStub(local_channel, "obj", make_identity()).invoke("ping")

        assert wan_result == local_result


class TestLevelsOfAbstraction:
    """Section 2.3: the disk-block example.  The sysadmin allows Alice to
    speak for the file system regarding X, and the *conjunction* of Alice
    and the-file-system-quoting-Alice to speak for the disk blocks.
    Neither party alone can touch the blocks."""

    @pytest.fixture()
    def disk_world(self, alice_kp, server_kp, gateway_kp, rng):
        sysadmin_kp, fs_kp = server_kp, gateway_kp
        A = KeyPrincipal(alice_kp.public)
        FS = KeyPrincipal(fs_kp.public)
        BLOCKS = KeyPrincipal(sysadmin_kp.public)  # the block allocator
        joint = ConjunctPrincipal.of(A, QuotingPrincipal(FS, A))
        grant = Certificate.issue(
            sysadmin_kp, joint, parse_tag("(tag (blocks (file X)))"), rng=rng
        )
        return {
            "A": A, "FS": FS, "BLOCKS": BLOCKS,
            "grant": SignedCertificateStep(grant),
            "alice_kp": alice_kp, "fs_kp": fs_kp, "rng": rng,
        }

    def test_joint_request_authorized(self, disk_world, rng):
        """A request uttered by a principal both Alice and FS|Alice have
        delegated to reaches the blocks."""
        A, FS = disk_world["A"], disk_world["FS"]
        request_principal = KeyPrincipal(
            generate_keypair(512, rng).public
        )  # stands for the actual request channel
        alice_leg = SignedCertificateStep(
            Certificate.issue(
                disk_world["alice_kp"], request_principal,
                parse_tag("(tag (blocks (file X)))"), rng=rng,
            )
        )
        # FS quoting Alice: lift the FS's delegation through quoting.
        fs_leg_base = SignedCertificateStep(
            Certificate.issue(
                disk_world["fs_kp"], request_principal,
                parse_tag("(tag (blocks (file X)))"), rng=rng,
            )
        )
        # request => FS lifted to request|A? No: we need request => FS|A.
        # The file system quotes Alice: its channel utterance is FS|A, and
        # the request principal speaks for it via right-quoting of A's leg
        # composed with... the simplest correct derivation: the conjunction
        # introduction needs request => A and request => FS|A.  We get the
        # latter by the FS delegating *its quoting of Alice*:
        fs_quoting_leg = QuotingLeftMonotonicityStep(fs_leg_base, A)
        # fs_quoting_leg: request|A => FS|A. The utterer of a quoted request
        # *is* request|A when the channel claims to quote Alice.
        quoted_request = QuotingPrincipal(request_principal, A)
        alice_quoted_leg = SignedCertificateStep(
            Certificate.issue(
                disk_world["alice_kp"], quoted_request,
                parse_tag("(tag (blocks (file X)))"), rng=rng,
            )
        )
        joint = ConjunctionIntroStep(alice_quoted_leg, fs_quoting_leg)
        chain = TransitivityStep(joint, disk_world["grant"])
        authorizes(
            chain,
            quoted_request,
            disk_world["BLOCKS"],
            ["blocks", ["file", "X"], ["op", "read"]],
            VerificationContext(),
        )

    def test_alice_alone_denied(self, disk_world, rng):
        """Alice without the file system cannot reach the blocks: there is
        no proof from her principal alone to the conjunction."""
        prover = Prover()
        prover.add_proof(disk_world["grant"])
        prover.control(KeyClosure(disk_world["alice_kp"], rng))
        proof = prover.prove(
            disk_world["A"], disk_world["BLOCKS"],
            request=["blocks", ["file", "X"]],
        )
        assert proof is None

    def test_file_system_alone_denied(self, disk_world, rng):
        prover = Prover()
        prover.add_proof(disk_world["grant"])
        prover.control(KeyClosure(disk_world["fs_kp"], rng))
        proof = prover.prove(
            disk_world["FS"], disk_world["BLOCKS"],
            request=["blocks", ["file", "X"]],
        )
        assert proof is None

    def test_conjunction_grant_restricted_to_file(self, disk_world):
        statement = disk_world["grant"].conclusion
        assert statement.tag.matches(["blocks", ["file", "X"]])
        assert not statement.tag.matches(["blocks", ["file", "Y"]])


class TestProtocolBoundaries:
    """Section 2.4 + 6.3: HTTP on one side, RMI on the other — checked
    end-to-end in tests/apps/test_gateway.py.  Here: the wire forms are
    protocol-independent (the same proof travels both encodings)."""

    def test_same_proof_both_wire_forms(self, alice_kp, bob_kp, rng):
        from repro.core.proofs import proof_from_sexp
        from repro.sexp import from_transport, parse_canonical, to_canonical, to_transport

        B = KeyPrincipal(bob_kp.public)
        proof = SignedCertificateStep(
            Certificate.issue(alice_kp, B, Tag.all(), rng=rng)
        )
        # RMI path: canonical bytes. HTTP path: transport header text.
        via_rmi = proof_from_sexp(parse_canonical(to_canonical(proof.to_sexp())))
        via_http = proof_from_sexp(from_transport(to_transport(proof.to_sexp())))
        assert via_rmi == via_http == proof
        via_rmi.verify(VerificationContext())
        via_http.verify(VerificationContext())
