"""Integration tests: the full Figure 4 invocation path."""

import pytest

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import KeyPrincipal
from repro.core.statements import Validity
from repro.net import Network, TrustedHost
from repro.prover import KeyClosure, Prover
from repro.rmi import (
    ClientIdentity,
    Registry,
    RemoteObject,
    RemoteStub,
    RmiServer,
    identity_scope,
)
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag, parse_tag


@pytest.fixture()
def world(host_kp, server_kp, alice_kp, rng):
    """An RMI server exporting a counter object controlled by server_kp,
    with alice delegated full authority."""
    net = Network()
    clock = SimClock()
    server = RmiServer(net, "svc.addr", host_kp, clock=clock)
    KS = KeyPrincipal(server_kp.public)
    state = {"count": 0}

    def increment(amount):
        state["count"] += int(amount.text())
        return state["count"]

    def read():
        return state["count"]

    server.export(RemoteObject("counter", KS, {"inc": increment, "read": read}))
    registry = Registry()
    registry.bind("counter@svc", "svc.addr", "counter", host_kp.public)

    prover = Prover()
    prover.control(KeyClosure(alice_kp, rng))
    prover.add_certificate(
        Certificate.issue(server_kp, KeyPrincipal(alice_kp.public), Tag.all(), rng=rng)
    )
    identity = ClientIdentity(prover, alice_kp)
    return {
        "net": net,
        "clock": clock,
        "server": server,
        "registry": registry,
        "identity": identity,
        "KS": KS,
        "state": state,
        "rng": rng,
    }


class TestInvocation:
    def test_authorized_call_roundtrips(self, world, alice_kp):
        stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp,
            identity=world["identity"], rng=world["rng"],
        )
        assert stub.invoke("inc", 5).text() == "5"
        assert stub.invoke("read").text() == "5"

    def test_first_call_pays_challenge_then_cached(self, world, alice_kp):
        stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp,
            identity=world["identity"], rng=world["rng"],
        )
        stub.invoke("inc", 1)
        cached = world["server"].auth.cache.count()
        assert cached >= 1
        stub.invoke("inc", 1)
        # No new proofs needed for repeat calls within the proven tag.
        assert world["server"].auth.cache.count() >= cached

    def test_identity_scope_thread_idiom(self, world, alice_kp):
        stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp, rng=world["rng"]
        )
        with pytest.raises(AuthorizationError):
            stub.invoke("read")  # no identity in scope
        with identity_scope(world["identity"]):
            assert stub.invoke("read").text() == "0"

    def test_undelegated_client_denied(self, world, bob_kp, rng):
        bob_prover = Prover()
        bob_prover.control(KeyClosure(bob_kp, rng))
        bob_identity = ClientIdentity(bob_prover, bob_kp)
        stub = world["registry"].connect(
            world["net"], "counter@svc", bob_kp,
            identity=bob_identity, rng=rng,
        )
        with pytest.raises(NeedAuthorizationError):
            stub.invoke("inc", 1)
        assert world["state"]["count"] == 0

    def test_restricted_delegation_enforced(self, world, bob_kp, server_kp,
                                            alice_kp, rng):
        """Alice delegates only `read` to Bob; `inc` stays denied."""
        bob_prover = Prover()
        bob_prover.control(KeyClosure(bob_kp, rng))
        read_only = parse_tag(
            "(tag (invoke (object counter) (method read)))"
        )
        bob_prover.add_certificate(
            Certificate.issue(server_kp, KeyPrincipal(bob_kp.public), read_only, rng=rng)
        )
        bob_identity = ClientIdentity(bob_prover, bob_kp)
        stub = world["registry"].connect(
            world["net"], "counter@svc", bob_kp,
            identity=bob_identity, rng=rng,
        )
        assert stub.invoke("read").text() == "0"
        with pytest.raises(NeedAuthorizationError):
            stub.invoke("inc", 7)
        assert world["state"]["count"] == 0

    def test_expired_delegation_denied(self, world, bob_kp, server_kp, rng):
        bob_prover = Prover()
        bob_prover.control(KeyClosure(bob_kp, rng))
        bob_prover.add_certificate(
            Certificate.issue(
                server_kp, KeyPrincipal(bob_kp.public), Tag.all(),
                validity=Validity(0, 10), rng=rng,
            )
        )
        bob_identity = ClientIdentity(bob_prover, bob_kp)
        stub = world["registry"].connect(
            world["net"], "counter@svc", bob_kp,
            identity=bob_identity, rng=rng,
        )
        world["clock"].advance(100.0)
        with pytest.raises(NeedAuthorizationError):
            stub.invoke("read")

    def test_two_clients_isolated(self, world, alice_kp, bob_kp, rng):
        # Alice's proof must not authorize Bob's channel.
        alice_stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp,
            identity=world["identity"], rng=rng,
        )
        alice_stub.invoke("inc", 3)
        bob_prover = Prover()
        bob_prover.control(KeyClosure(bob_kp, rng))
        bob_identity = ClientIdentity(bob_prover, bob_kp)
        bob_stub = world["registry"].connect(
            world["net"], "counter@svc", bob_kp,
            identity=bob_identity, rng=rng,
        )
        with pytest.raises(NeedAuthorizationError):
            bob_stub.invoke("inc", 1)

    def test_unknown_object_or_method(self, world, alice_kp):
        stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp,
            identity=world["identity"], rng=world["rng"],
        )
        with pytest.raises(AuthorizationError):
            RemoteStub(stub.channel, "ghost", world["identity"]).invoke("read")

    def test_audit_trail_records_grants(self, world, alice_kp):
        stub = world["registry"].connect(
            world["net"], "counter@svc", alice_kp,
            identity=world["identity"], rng=world["rng"],
        )
        stub.invoke("inc", 2)
        assert len(world["server"].audit) == 1
        record = world["server"].audit.records[0]
        assert world["KS"] in record.involved_principals()
        assert KeyPrincipal(alice_kp.public) in record.involved_principals()


class TestLocalChannelRmi:
    def test_local_channel_carries_rmi(self, server_kp, alice_kp, rng):
        """Section 5.2: colocated client avoids all public-key work."""
        from repro.guard import Guard
        from repro.net.trust import TrustEnvironment
        from repro.rmi.remote import RmiSkeleton
        from repro.sim import Meter

        clock = SimClock()
        trust = TrustEnvironment(clock=clock)
        auth = Guard(trust)
        skeleton = RmiSkeleton(auth)
        KS = KeyPrincipal(server_kp.public)
        skeleton.export(RemoteObject("obj", KS, {"ping": lambda: "pong"}))
        host = TrustedHost(rng)
        host.register_service("obj-svc", skeleton, trust)

        A = KeyPrincipal(alice_kp.public)
        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        prover.add_certificate(
            Certificate.issue(server_kp, A, Tag.all(), rng=rng)
        )
        identity = ClientIdentity(prover, alice_kp)
        meter = Meter()
        channel = host.connect(A, "obj-svc", meter=meter)
        stub = RemoteStub(channel, "obj", identity)
        assert stub.invoke("ping").text() == "pong"
        # The channel itself performed no public-key operations; the one
        # pk_sign, if any, came from the prover's delegation minting —
        # but here the premise chain (CH => KC via host) plus the existing
        # cert suffices, so none at all.
        assert "pk_sign" not in meter.counts()
        assert "pk_verify" not in meter.counts()
