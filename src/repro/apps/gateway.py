"""The quoting protocol gateway (Section 6.3).

An HTML-over-HTTP front end to the RMI email database.  "The gateway's
authority to access Alice's email in the database depends on the gateway
intentionally quoting Alice in its requests.  Therefore, as long as the
gateway correctly quotes its clients in its requests on the database
server, the correct access-control decision is made by the server."

Protocol restaged from the paper:

1. Client sends an unauthorized ``GET /mail/<mailbox>``.
2. The gateway probes the database (an unauthorized RMI invoke), learns
   the issuer ``S`` and required restriction, and answers the client with
   a Snowflake 401 whose required subject is ``G|?`` — "the client knows
   to substitute its identity for the pseudo-principal ?; this shortcut
   saves a round-trip."
3. The client returns (a) a signed copy of its request, proving
   ``R => C``, and (b) an ``Sf-Delegation`` proof of ``G|C => S``.
4. The gateway digests the delegation into its Prover and invokes the
   database *quoting C*; the RMI invoker completes the chain
   ``KCH|C => G|C => S`` automatically, and the database — not the
   gateway — makes the access decision, with the gateway's involvement in
   the audit trail.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.emaildb import EmailClient, OBJECT_NAME
from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import (
    HashPrincipal,
    KeyPrincipal,
    PseudoPrincipal,
    Principal,
)
from repro.core.proofs import proof_from_sexp
from repro.guard import AuthBackend, GuardRequest, ProofCredential, default_backend
from repro.http.auth import SNOWFLAKE_SCHEME, web_request_sexp
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import Servlet
from repro.net.trust import TrustEnvironment
from repro.rmi.invoker import ClientIdentity, RemoteStub
from repro.sexp import from_transport, to_transport
from repro.sim.costmodel import Meter, maybe_charge
from repro.tags import Tag, TagList, TagStar
from repro.tags.tag import TagAtom

DELEGATION_HEADER = "Sf-Delegation"
REQUIRED_SUBJECT_HEADER = "Sf-RequiredSubject"


def mailbox_tag(mailbox: str) -> Tag:
    """Authority over one mailbox of the email database (any method)."""
    return Tag(
        TagList(
            [
                TagAtom("invoke"),
                TagList([TagAtom("object"), TagAtom(OBJECT_NAME)]),
                TagStar(),
                TagList([TagAtom("args"), TagAtom(mailbox)]),
            ]
        )
    )


class QuotingGateway(Servlet):
    """The HTTP servlet half of the gateway."""

    service_id = b"quoting-gateway"

    def __init__(
        self,
        channel,
        identity: ClientIdentity,
        meter: Optional[Meter] = None,
        guard: Optional[AuthBackend] = None,
    ):
        # One RMI channel to the database, shared by per-client stubs that
        # differ only in whom they quote.
        self.channel = channel
        self.identity = identity
        self.meter = meter
        self.gateway_principal = identity.principal
        # The gateway authenticates clients and digests their delegation
        # chains through the shared backend; the *access* decision stays
        # at the database, quoting intact.
        if guard is None:
            guard = default_backend(
                TrustEnvironment(), meter=meter, prover=identity.prover,
                check_charge=None,
            )
        elif getattr(guard, "prover", False) is None:
            # A single-process gateway cannot work without a delegation
            # graph to digest into; an injected shared guard adopts this
            # identity's.  (A cluster backend has no ``prover`` attribute
            # — its nodes' provers search the cluster's one graph.)
            guard.prover = identity.prover
        self.guard = guard
        self._db_issuer: Optional[Principal] = None
        self._stubs: Dict[Principal, RemoteStub] = {}

    # -- HTTP side ------------------------------------------------------------

    def service(self, request: HttpRequest) -> HttpResponse:
        maybe_charge(self.meter, "http_java_extra")  # the gateway's dispatch
        parts = [part for part in request.path.split("/") if part]
        if len(parts) < 2 or parts[0] != "mail":
            return HttpResponse(404, body=b"try /mail/<mailbox>")
        mailbox = parts[1]
        action = parts[2] if len(parts) > 2 else "list"
        try:
            client = self._authenticate_client(request)
        except AuthorizationError as exc:
            return HttpResponse(403, body=str(exc).encode("utf-8"))
        if client is None:
            return self._challenge(request, mailbox)
        try:
            return self._act(client, mailbox, action, parts[3:])
        except NeedAuthorizationError:
            # The database wants proof we do not hold for this client.
            return self._challenge(request, mailbox)
        except AuthorizationError as exc:
            return HttpResponse(403, body=str(exc).encode("utf-8"))

    def _authenticate_client(self, request: HttpRequest) -> Optional[Principal]:
        """Verify the signed request (``R => C``) and digest any delegation."""
        authorization = request.headers.get("Authorization")
        if authorization is None or not authorization.startswith(SNOWFLAKE_SCHEME):
            return None
        logical = web_request_sexp(request, self.service_id)
        # The signed request is a subject-bound proof credential, exactly
        # as at a protected servlet; the guard verifies possession.
        speaker, proof = self.guard.authenticate(
            GuardRequest(
                logical,
                credential=ProofCredential(
                    HashPrincipal(request.hash()),
                    wire=authorization[len(SNOWFLAKE_SCHEME):].strip(),
                ),
                transport="http",
                channel={"method": request.method, "path": request.path},
            )
        )
        client = proof.conclusion.issuer
        delegation_header = request.headers.get(DELEGATION_HEADER)
        if delegation_header is not None:
            maybe_charge(self.meter, "sexp_parse")
            delegation = proof_from_sexp(from_transport(delegation_header))
            maybe_charge(self.meter, "spki_unmarshal")
            delegation.verify(self.guard.context())
            # Digest the client's chain (G|C => ... => S) into our Prover.
            self.guard.digest_delegation(delegation)
        if not self._knows_client(client):
            return None
        self.guard.audit_authentication(logical, proof, transport="http")
        return client

    def _knows_client(self, client: Principal) -> bool:
        """A client is known once its digested delegation chain gives the
        quoting principal ``G|client`` an outgoing edge.  Asking the graph
        (instead of a side table) means a client whose delegation was
        retracted (``graph.remove`` / an ``invalidate_expired`` sweep) is
        automatically re-challenged rather than served from stale gateway
        state.  Merely-expired edges still count here; the database's own
        validity check is what refuses them at use time."""
        quoted = self.gateway_principal.quoting(client)
        return self.guard.outgoing_delegations(quoted) > 0

    def _challenge(self, request: HttpRequest, mailbox: str) -> HttpResponse:
        issuer = self._discover_issuer(mailbox)
        response = HttpResponse(401, body=b"delegate to the gateway quoting you")
        response.headers.set("WWW-Authenticate", SNOWFLAKE_SCHEME)
        response.headers.set(
            "Sf-ServiceIssuer", to_transport(issuer.to_sexp()).decode("ascii")
        )
        response.headers.set(
            "Sf-MinimumTag",
            to_transport(mailbox_tag(mailbox).to_sexp()).decode("ascii"),
        )
        # G|? — the gateway quoting the yet-unnamed client.
        required = self.gateway_principal.quoting(PseudoPrincipal())
        response.headers.set(
            REQUIRED_SUBJECT_HEADER,
            to_transport(required.to_sexp()).decode("ascii"),
        )
        return response

    # -- RMI side ---------------------------------------------------------------

    def _discover_issuer(self, mailbox: str) -> Principal:
        """Probe the database to learn the issuer it demands (the paper's
        gateway does exactly this and relays the parameters)."""
        if self._db_issuer is not None:
            return self._db_issuer
        probe = RemoteStub(self.channel, OBJECT_NAME, self.identity)
        try:
            probe.invoke("select", mailbox)
        except NeedAuthorizationError as exc:
            self._db_issuer = exc.issuer
            return exc.issuer
        except AuthorizationError as exc:
            raise AuthorizationError("database probe failed: %s" % exc)
        raise AuthorizationError("database answered an unauthorized probe")

    def _stub_for(self, client: Principal) -> EmailClient:
        stub = self._stubs.get(client)
        if stub is None:
            stub = RemoteStub(
                self.channel, OBJECT_NAME, self.identity, quoting=client
            )
            self._stubs[client] = stub
        return EmailClient(stub)

    def _act(
        self, client: Principal, mailbox: str, action: str, rest
    ) -> HttpResponse:
        email = self._stub_for(client)
        if action == "list":
            rows = email.inbox(mailbox)
            return HttpResponse(
                200, [("Content-Type", "text/html")], _render_inbox(mailbox, rows)
            )
        if action == "read" and rest:
            email.mark_read(mailbox, int(rest[0]))
            return HttpResponse(
                200, [("Content-Type", "text/html")], b"<p>marked read</p>"
            )
        if action == "delete" and rest:
            email.delete(mailbox, int(rest[0]))
            return HttpResponse(
                200, [("Content-Type", "text/html")], b"<p>deleted</p>"
            )
        return HttpResponse(404, body=b"unknown action")


def _render_inbox(mailbox: str, rows) -> bytes:
    items = "".join(
        "<li>%s<b>%s</b> from %s: %s</li>"
        % (
            "(unread) " if row.get("unread") else "",
            _escape(row.get("subject", "")),
            _escape(row.get("sender", "")),
            _escape(row.get("body", "")),
        )
        for row in rows
    )
    page = "<html><body><h1>Mail for %s</h1><ul>%s</ul></body></html>" % (
        _escape(mailbox),
        items,
    )
    return page.encode("utf-8")


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
