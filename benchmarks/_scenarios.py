"""World builders for the benchmark harnesses.

Each builder assembles a real protocol stack on the simulated network and
returns callables that perform one operation, plus the shared
:class:`Meter` whose totals are the *simulated* latencies (single-machine,
as in the paper: one meter covers client + server work).
"""

from __future__ import annotations

import random

from repro.core.principals import KeyPrincipal
from repro.http import HttpServer, HttpResponse
from repro.http.auth import ProtectedServlet
from repro.http.docauth import DocumentSigner
from repro.http.mac import MacSessionManager
from repro.http.message import HttpRequest
from repro.http.proxy import SnowflakeProxy
from repro.http.server import Servlet
from repro.net import Network, SecureChannelClient, TrustEnvironment
from repro.prover import KeyClosure, Prover
from repro.rmi import ClientIdentity, Registry, RemoteObject, RemoteStub, RmiServer
from repro.rmi.remote import RmiSkeleton
from repro.sim import Meter, PAPER_COSTS, SimClock
from repro.sim.costmodel import CostModel
from repro.spki import Certificate
from repro.tags import Tag, parse_tag

FILE_CONTENT = b"x" * 2048  # the paper's file-returning test operation


class _UncheckedSkeleton(RmiSkeleton):
    """Baseline 'basic RMI': dispatch without any authorization check."""

    def _invoke(self, request, speaker):
        from repro.sexp import Atom, SList

        object_field = request.find("object")
        method_field = request.find("method")
        args_field = request.find("args")
        obj = self._objects[object_field.items[1].text()]
        result = obj.dispatch(method_field.items[1].text(), list(args_field.tail()))
        return SList([Atom("result"), result])


class _PlainChannel:
    """The 'basic RMI' transport: no encryption, endpoint asserted.

    Models plain Java RMI, where the server simply believes the socket;
    used only as the Figure 6 baseline.
    """

    def __init__(self, service, trust, client_principal, rng):
        from repro.core.principals import ChannelPrincipal
        from repro.core.statements import SpeaksFor
        from repro.sexp import parse_canonical, to_canonical

        self._service = service
        self._trust = trust
        self.channel_principal = ChannelPrincipal.of_secret(
            bytes(rng.getrandbits(8) for _ in range(16))
        )
        self.bound_principal = client_principal
        trust.vouch(SpeaksFor(self.channel_principal, client_principal, Tag.all()))

    def request(self, payload, quoting=None):
        from repro.core.statements import Says
        from repro.sexp import parse_canonical, to_canonical

        request = parse_canonical(to_canonical(payload))
        speaker = self.channel_principal
        if quoting is not None:
            speaker = speaker.quoting(quoting)
        self._trust.vouch(Says(speaker, request))
        return self._service.handle_request(request, speaker, self)


def rmi_world(
    keypool,
    rng,
    mode="sf",
    file_bytes=16,
    ephemeral_channel_key=True,
    model: CostModel = PAPER_COSTS,
):
    """The Figure 6 testbed: a remote object that returns file contents.

    ``mode``: 'basic' (plain transport, no checkAuth), 'ssh' (secure
    channel, no checkAuth), or 'sf' (the full stack).  Returns
    (call, meter, extras); ``call()`` performs one invocation.
    """
    host_kp, object_kp, client_kp = keypool[0], keypool[1], keypool[2]
    channel_kp = keypool[5] if ephemeral_channel_key else client_kp
    payload = b"x" * file_bytes
    net = Network()
    clock = SimClock()
    meter = Meter(model=model, clock=clock)
    server = RmiServer(net, "files.addr", host_kp, clock=clock, meter=meter)
    KS = KeyPrincipal(object_kp.public)
    remote = RemoteObject("files", KS, {"read": lambda: payload})
    if mode in ("basic", "ssh"):
        server.skeleton = _UncheckedSkeleton(server.auth, meter=meter)
        server.listener.service = server.skeleton
    server.skeleton.export(remote)

    prover = Prover()
    prover.control(KeyClosure(client_kp, rng, meter=meter))
    prover.add_certificate(
        Certificate.issue(object_kp, KeyPrincipal(client_kp.public), Tag.all(), rng=rng)
    )
    identity = ClientIdentity(prover, client_kp)
    registry = Registry()
    registry.bind("files", "files.addr", "files", host_kp.public)
    if mode == "basic":
        channel = _PlainChannel(
            server.skeleton, server.trust, KeyPrincipal(client_kp.public), rng
        )
        stub = RemoteStub(channel, "files", identity)
    else:
        stub = registry.connect(net, "files", channel_kp, identity=identity,
                                rng=rng, meter=meter)

    def call():
        return stub.invoke("read")

    extras = {
        "server": server,
        "stub": stub,
        "identity": identity,
        "registry": registry,
        "net": net,
        "client_kp": client_kp,
        "host_kp": host_kp,
        "prover": prover,
        "rng": rng,
    }
    return call, meter, extras


class _PlainFileServlet(Servlet):
    """Unprotected file servlet: the C/Java HTTP baselines."""

    def service(self, request):
        return HttpResponse(200, body=FILE_CONTENT)


class _ProtectedFileServlet(ProtectedServlet):
    def __init__(self, issuer, *args, doc_signer=None, sign_fresh=False, **kwargs):
        super().__init__(*args, **kwargs)
        self._issuer = issuer
        self.doc_signer = doc_signer
        self.sign_fresh = sign_fresh

    def issuer_for(self, request):
        return self._issuer

    def serve(self, request):
        response = HttpResponse(200, body=FILE_CONTENT)
        if self.doc_signer is not None:
            self.doc_signer.attach(response, fresh=self.sign_fresh)
        return response


def http_world(
    keypool,
    rng,
    protected=True,
    stack="java",
    use_mac=False,
    doc_auth=False,
    sign_fresh=False,
    verify_documents=False,
    model: CostModel = PAPER_COSTS,
):
    """The Figure 7/8 testbed: HTTP GET of a 2 KB file under one of the
    protocol variants.  Returns (get, meter, extras)."""
    server_kp, client_kp = keypool[3], keypool[4]
    net = Network()
    clock = SimClock()
    meter = Meter(model=model, clock=clock)
    trust = TrustEnvironment(clock=clock)
    issuer = KeyPrincipal(server_kp.public)
    http = HttpServer(meter=meter, stack=stack)
    if protected:
        macs = MacSessionManager(trust, rng) if use_mac else None
        signer = (
            DocumentSigner(server_kp, meter=meter, rng=rng) if doc_auth else None
        )
        servlet = _ProtectedFileServlet(
            issuer, b"bench-svc", trust, meter=meter, mac_sessions=macs,
            doc_signer=signer, sign_fresh=sign_fresh,
        )
    else:
        servlet = _PlainFileServlet()
    http.mount("/", servlet)
    net.listen("web.addr", http)

    prover = Prover()
    prover.add_certificate(
        Certificate.issue(
            server_kp, KeyPrincipal(client_kp.public),
            parse_tag("(tag (web))"), rng=rng,
        )
    )
    proxy = SnowflakeProxy(
        net, prover, client_kp, rng=rng, meter=meter, use_mac=use_mac,
        verify_documents=verify_documents, trust=trust,
    )

    def get(path="/file"):
        return proxy.get("web.addr", path)

    extras = {"proxy": proxy, "trust": trust, "net": net, "issuer": issuer}
    return get, meter, extras


def ssl_scenario(meter: Meter, stack: str, session: str) -> None:
    """Charge the operation sequence of an SSL-protected GET.

    We do not reimplement SSL; its per-request/resume/full-handshake costs
    are the paper's own measured lumps, composed here by scenario — the
    comparison baseline of Figure 8.
    """
    meter.charge("http_c")
    if stack == "java":
        meter.charge("http_java_extra")
        meter.charge("ssl_record_java")
        if session == "cached":
            meter.charge("ssl_resume_java")
        elif session == "new":
            meter.charge("ssl_full_java")
    else:
        meter.charge("ssl_record_c")
        if session == "cached":
            meter.charge("ssl_resume_c")
        elif session == "new":
            meter.charge("ssl_full_c")


def span(meter: Meter, fn):
    """Run ``fn`` and return the simulated milliseconds it charged."""
    before = meter.snapshot()
    fn()
    return meter.snapshot() - before
