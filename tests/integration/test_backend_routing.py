"""Every transport, any backend: the end-to-end argument, clustered.

The tentpole property of the AuthBackend refactor: the http, smtp, and
rmi/secure-channel integration flows must pass *unchanged* whether the
transport fronts a single shared :class:`Guard` or an
:class:`AuthCluster` — the smallest that can fail over, or exactly as a
front end is handed one by default.  Transports own wire framing;
authorization routing belongs to the backend — so these tests
parametrize only the backend factory and touch nothing else.
"""

import pytest

from repro.cluster import AuthCluster
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.guard import default_backend
from repro.http.auth import ProtectedServlet
from repro.http.mac import MacSessionManager, unseal_grant
from repro.http.message import HttpRequest, HttpResponse
from repro.net import Network
from repro.net.trust import TrustEnvironment
from repro.prover import KeyClosure, Prover
from repro.rmi import ClientIdentity, Registry, RemoteObject, RmiServer
from repro.sexp import to_transport
from repro.sim import SimClock
from repro.smtp import SnowflakeSmtpClient, SnowflakeSmtpServer
from repro.spki import Certificate
from repro.tags import parse_tag

#: ``cluster`` is the smallest cluster with somewhere to fail over to;
#: ``frontend`` is the cluster as a listener fronts it out of the box
#: (``ServeFleet``, ``bench/server.py``): every knob at its default.
BACKENDS = ["guard", "cluster", "frontend"]


def make_backend(kind, trust, clock=None):
    """The only thing these tests vary."""
    if kind == "guard":
        return default_backend(trust, check_charge=None)
    clock = clock if clock is not None else trust.clock
    if kind == "cluster":
        return AuthCluster(node_count=2, clock=clock)
    return AuthCluster(node_count=3, clock=clock)


class _DocServlet(ProtectedServlet):
    def __init__(self, issuer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._issuer = issuer

    def issuer_for(self, request):
        return self._issuer

    def serve(self, request):
        return HttpResponse(200, body=b"the document")


def _alice_prover(alice_kp, server_kp, rng, tag="(tag (web))"):
    prover = Prover()
    prover.control(KeyClosure(alice_kp, rng))
    prover.add_certificate(
        Certificate.issue(
            server_kp, KeyPrincipal(alice_kp.public), parse_tag(tag), rng=rng
        )
    )
    return prover


@pytest.mark.parametrize("kind", BACKENDS)
class TestHttpSnowflake:
    def test_challenge_then_signed_request_grants(
        self, kind, server_kp, alice_kp, rng
    ):
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        servlet = _DocServlet(
            issuer, b"svc", trust, guard=make_backend(kind, trust)
        )
        assert servlet.service(HttpRequest("GET", "/doc")).status == 401

        prover = _alice_prover(alice_kp, server_kp, rng)
        request = HttpRequest("GET", "/doc")
        subject = HashPrincipal(request.hash())
        proof = prover.prove(subject, issuer, min_tag=parse_tag("(tag (web))"))
        request.headers.set(
            "Authorization",
            "SnowflakeProof %s" % to_transport(proof.to_sexp()).decode("ascii"),
        )
        assert servlet.service(request).status == 200
        # The grant landed in the backend's audit trail, whichever node
        # (or single guard) served it.
        assert len(servlet.guard.audit.by_transport("http")) == 1

    def test_bad_proof_is_a_403_everywhere(self, kind, server_kp, carol_kp,
                                           alice_kp, rng):
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        servlet = _DocServlet(
            issuer, b"svc", trust, guard=make_backend(kind, trust)
        )
        # Carol has no delegation: her self-signed chain cannot reach
        # the issuer, so the proof she *can* build is for the wrong
        # issuer — the servlet must refuse, not challenge forever.
        prover = Prover()
        prover.control(KeyClosure(carol_kp, rng))
        request = HttpRequest("GET", "/doc")
        request.headers.set("Authorization", "SnowflakeProof (not-a-proof)")
        assert servlet.service(request).status == 403


@pytest.mark.parametrize("kind", BACKENDS)
class TestHttpMacSessions:
    def _grant_session(self, servlet, alice_kp):
        request = HttpRequest("GET", "/doc")
        request.headers.set(
            "Sf-Mac-Request",
            to_transport(alice_kp.public.to_sexp()).decode("ascii"),
        )
        challenge = servlet.service(request)
        assert challenge.status == 401
        return unseal_grant(
            challenge.headers.get("Sf-Mac-Grant"), alice_kp.private
        )

    def _mac_request(self, path, mac_key, proof=None):
        request = HttpRequest("GET", path)
        if proof is not None:
            request.headers.set(
                "Sf-Proof", to_transport(proof.to_sexp()).decode("ascii")
            )
        message = request.to_wire(exclude_headers=("Authorization", "Sf-Proof"))
        request.headers.set(
            "Authorization",
            "SnowflakeMac %s %s"
            % (mac_key.fingerprint().digest.hex(), mac_key.tag(message).hex()),
        )
        return request

    def test_mac_session_lifecycle(self, kind, server_kp, alice_kp, rng):
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        backend = make_backend(kind, trust)
        manager = MacSessionManager(trust, rng)
        servlet = _DocServlet(
            issuer, b"svc", trust, mac_sessions=manager, guard=backend
        )
        mac_key = self._grant_session(servlet, alice_kp)

        prover = _alice_prover(alice_kp, server_kp, rng)
        proof = prover.prove(
            MacPrincipal(mac_key.fingerprint()), issuer,
            min_tag=parse_tag("(tag (web))"),
        )
        first = self._mac_request("/doc", mac_key, proof)
        assert servlet.service(first).status == 200
        # Steady state: symmetric crypto only, no proof header.
        for _ in range(3):
            steady = self._mac_request("/doc", mac_key)
            assert servlet.service(steady).status == 200

    def test_session_survives_owner_failure_via_escrow(
        self, kind, server_kp, alice_kp, rng
    ):
        if kind == "guard":
            pytest.skip("failover is a cluster property")
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        backend = make_backend(kind, trust)
        cluster = backend if isinstance(backend, AuthCluster) else backend.cluster
        manager = MacSessionManager(trust, rng)
        servlet = _DocServlet(
            issuer, b"svc", trust, mac_sessions=manager, guard=backend
        )
        mac_key = self._grant_session(servlet, alice_kp)
        prover = _alice_prover(alice_kp, server_kp, rng)
        proof = prover.prove(
            MacPrincipal(mac_key.fingerprint()), issuer,
            min_tag=parse_tag("(tag (web))"),
        )
        assert servlet.service(self._mac_request("/doc", mac_key, proof)).status == 200

        # Kill the session's owner node; the new ring owner verifies the
        # MAC against the cluster's one session table, so the client
        # only sees a 401 re-challenge for its proof chain (the dead
        # node's proof cache died with it), never a 403.
        mac_id = mac_key.fingerprint().digest.hex()
        from repro.cluster.ring import session_routing_key

        owner = cluster.membership.node_for(session_routing_key(mac_id))
        cluster.fail_node(owner.node_id)
        retry = servlet.service(self._mac_request("/doc", mac_key))
        assert retry.status == 401
        assert servlet.service(self._mac_request("/doc", mac_key, proof)).status == 200
        assert servlet.service(self._mac_request("/doc", mac_key)).status == 200
        assert cluster.sessions.stats["failures"] == 0


@pytest.mark.parametrize("kind", BACKENDS)
class TestSmtp:
    def test_delivery_roundtrip(self, kind, server_kp, alice_kp, rng):
        net = Network()
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        server = SnowflakeSmtpServer(
            "mail.example",
            lambda mailbox: issuer if mailbox == "bob" else None,
            trust,
            guard=make_backend(kind, trust),
        )
        net.listen("mail.example", server)
        prover = _alice_prover(
            alice_kp, server_kp, rng, tag="(tag (smtp (rcpt bob)))"
        )
        client = SnowflakeSmtpClient(net, "mail.example", prover)
        client.helo()
        reply = client.send("alice@a.example", "bob", b"Subject: hi\r\n\r\nyo")
        assert reply.startswith("250")
        assert server.mailboxes["bob"] == [
            ("alice@a.example", b"Subject: hi\r\n\r\nyo")
        ]
        assert len(server.guard.audit.by_transport("smtp")) == 1

    def test_stranger_refused(self, kind, server_kp, carol_kp, rng):
        net = Network()
        trust = TrustEnvironment(clock=SimClock())
        issuer = KeyPrincipal(server_kp.public)
        server = SnowflakeSmtpServer(
            "mail.example",
            lambda mailbox: issuer if mailbox == "bob" else None,
            trust,
            guard=make_backend(kind, trust),
        )
        net.listen("mail.example", server)
        stranger = Prover()
        stranger.control(KeyClosure(carol_kp, rng))
        client = SnowflakeSmtpClient(net, "mail.example", stranger)
        client.helo()
        with pytest.raises(AuthorizationError):
            client.send("carol@c.example", "bob", b"spam")
        assert "bob" not in server.mailboxes


@pytest.mark.parametrize("kind", BACKENDS)
class TestRmiOverSecureChannels:
    def test_full_figure4_flow(self, kind, host_kp, server_kp, alice_kp, rng):
        """Connect, get challenged, submit the proof, invoke — over a
        secure channel whose bindings and checkAuth both live in the
        parametrized backend."""
        net = Network()
        clock = SimClock()
        trust_clockholder = TrustEnvironment(clock=clock)
        backend = (
            None
            if kind == "guard"
            else make_backend(kind, trust_clockholder, clock=clock)
        )
        server = RmiServer(net, "svc.addr", host_kp, clock=clock,
                           backend=backend)
        KS = KeyPrincipal(server_kp.public)
        state = {"count": 0}

        def increment(amount):
            state["count"] += int(amount.text())
            return state["count"]

        server.export(RemoteObject("counter", KS, {"inc": increment}))
        registry = Registry()
        registry.bind("counter@svc", "svc.addr", "counter", host_kp.public)

        prover = _alice_prover(alice_kp, server_kp, rng, tag="(tag (invoke))")
        identity = ClientIdentity(prover, alice_kp)
        stub = registry.connect(
            net, "counter@svc", alice_kp, identity=identity, rng=rng
        )
        assert stub.invoke("inc", 5).text() == "5"
        assert stub.invoke("inc", 2).text() == "7"
        assert len(server.auth.audit.by_transport("rmi")) == 2

    def test_unauthorized_invocation_refused(
        self, kind, host_kp, server_kp, carol_kp, rng
    ):
        net = Network()
        clock = SimClock()
        trust_clockholder = TrustEnvironment(clock=clock)
        backend = (
            None
            if kind == "guard"
            else make_backend(kind, trust_clockholder, clock=clock)
        )
        server = RmiServer(net, "svc.addr", host_kp, clock=clock,
                           backend=backend)
        KS = KeyPrincipal(server_kp.public)
        server.export(RemoteObject("counter", KS, {"read": lambda: 0}))
        registry = Registry()
        registry.bind("counter@svc", "svc.addr", "counter", host_kp.public)
        stranger = Prover()
        stranger.control(KeyClosure(carol_kp, rng))
        stub = registry.connect(
            net, "counter@svc", carol_kp,
            identity=ClientIdentity(stranger, carol_kp), rng=rng,
        )
        # The challenge cannot be satisfied: it surfaces as the unmet
        # need-auth, identically for every backend.
        with pytest.raises(NeedAuthorizationError):
            stub.invoke("read")
