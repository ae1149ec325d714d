"""HTTP authorization methods: Basic, Digest, and Snowflake.

Section 5.3: HTTP's challenge-response frame ("401 Unauthorized" +
``WWW-Authenticate``) carries three methods here:

- **Basic** — cleartext password (RFC 2617 baseline);
- **Digest** — nonce + secure hash of the password (RFC 2617 baseline);
- **Snowflake** — the challenge names the issuer the client must speak for
  and the minimum restriction set (Figure 5); the retry carries a proof
  whose subject is the hash of the request, less the Authorization header.

The :class:`ProtectedServlet` also accepts the MAC-session authorization
of Section 5.3.1 (see :mod:`repro.http.mac`), which amortizes the
per-request public-key operation.

HTTP does no authorization of its own: the servlet turns each request
into a :class:`repro.guard.GuardRequest` (the Figure 5 logical form plus
a credential parsed from the ``Authorization`` header) and delegates to
the shared, transport-agnostic guard pipeline.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.core.errors import AuthorizationError, NeedAuthorizationError
from repro.core.principals import HashPrincipal, Principal
from repro.crypto.rng import default_rng
from repro.guard import AuthBackend, GuardRequest, ProofCredential, default_backend
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import Servlet
from repro.net.trust import TrustEnvironment
from repro.sexp import Atom, SExp, SList, to_transport
from repro.sim.costmodel import Meter
from repro.tags import Tag

SNOWFLAKE_SCHEME = "SnowflakeProof"
MAC_SCHEME = "SnowflakeMac"


def web_request_sexp(request: HttpRequest, service_id: bytes) -> SExp:
    """The logical form of an HTTP request (the paper's Figure 5 shape):
    ``(web (method GET) (service |..|) (resourcePath "/x"))``."""
    return SList(
        [
            Atom("web"),
            SList([Atom("method"), Atom(request.method)]),
            SList([Atom("service"), Atom(service_id)]),
            SList([Atom("resourcePath"), Atom(request.path)]),
        ]
    )


class ProtectedServlet(Servlet):
    """The abstract protected servlet of Section 5.3.4.

    "Concrete implementations extend ProtectedServlet with a method that
    maps a request to an issuer that controls the requested resource and
    to the minimum restriction set required to authorize the request."
    Note the design point the paper calls out: the server identifies a
    *single principal* that controls the resource, never an ACL — group
    knowledge lives in the client's delegations.
    """

    def __init__(
        self,
        service_id: bytes,
        trust: TrustEnvironment,
        meter: Optional[Meter] = None,
        mac_sessions=None,
        guard: Optional[AuthBackend] = None,
    ):
        self.service_id = service_id
        self.trust = trust
        self.meter = meter
        self.mac_sessions = mac_sessions
        if guard is None:
            # HTTP meters its own SPKI handling; no per-check RMI charge.
            # The only sanctioned default construction: the shared
            # backend factory (any AuthBackend may be injected instead,
            # such as a Guard shared with other transports).
            guard = default_backend(
                trust,
                meter=meter,
                check_charge=None,
                sessions=(
                    mac_sessions.registry if mac_sessions is not None else None
                ),
            )
        if mac_sessions is not None:
            # One session authority: the manager mints through (and, for
            # a local guard, shares its table with) the backend.
            mac_sessions.bind(guard)
        self.guard = guard
        # Legacy name: the guard subsumes the per-servlet proof cache.
        self.auth = guard

    # -- the mapping concrete servlets supply ----------------------------

    def issuer_for(self, request: HttpRequest) -> Principal:
        raise NotImplementedError

    def min_tag_for(self, request: HttpRequest) -> Tag:
        return Tag.exactly(web_request_sexp(request, self.service_id))

    def serve(self, request: HttpRequest) -> HttpResponse:
        raise NotImplementedError

    # -- the authorization frame ------------------------------------------

    def service(self, request: HttpRequest) -> HttpResponse:
        issuer = self.issuer_for(request)
        authorization = request.headers.get("Authorization")
        if authorization is None:
            return self.challenge(request, issuer)
        try:
            self.guard.check(self.guard_request(request, issuer, authorization))
        except NeedAuthorizationError:
            return self.challenge(request, issuer)
        except (AuthorizationError, ValueError) as exc:
            return HttpResponse(403, body=str(exc).encode("utf-8"))
        return self.serve(request)

    def guard_request(
        self, request: HttpRequest, issuer: Principal, authorization: str
    ) -> GuardRequest:
        """Map the HTTP request + Authorization header onto the canonical
        guard form (credential included)."""
        scheme, _, payload = authorization.partition(" ")
        if scheme == SNOWFLAKE_SCHEME:
            # The proof's subject must be the hash of the request, less
            # the Authorization header — possession is the binding.
            credential = ProofCredential(
                HashPrincipal(request.hash()), wire=payload.strip()
            )
        elif scheme == MAC_SCHEME:
            if self.mac_sessions is None:
                raise AuthorizationError("MAC sessions not enabled")
            credential = self.mac_sessions.credential(request, payload)
        else:
            raise AuthorizationError(
                "unsupported authorization scheme %r" % scheme
            )
        return GuardRequest(
            web_request_sexp(request, self.service_id),
            issuer=issuer,
            min_tag=self.min_tag_for(request),
            credential=credential,
            transport="http",
            channel={"method": request.method, "path": request.path},
        )

    def challenge(self, request: HttpRequest, issuer: Principal) -> HttpResponse:
        """The 401 of Figure 5: issuer + minimum restriction set."""
        response = HttpResponse(401, body=b"authorization required")
        response.headers.set("WWW-Authenticate", SNOWFLAKE_SCHEME)
        response.headers.set(
            "Sf-ServiceIssuer", to_transport(issuer.to_sexp()).decode("ascii")
        )
        response.headers.set(
            "Sf-MinimumTag",
            to_transport(self.min_tag_for(request).to_sexp()).decode("ascii"),
        )
        if self.mac_sessions is not None:
            self.mac_sessions.offer(request, response)
        return response


def _decode_basic_credentials(authorization: str):
    """Parse a ``Basic`` authorization header into ``(user, password)``;
    a credential that fails to decode is a denial, not a server fault."""
    import base64
    import binascii

    try:
        decoded = base64.b64decode(authorization[6:]).decode("utf-8")
    except (binascii.Error, ValueError, UnicodeDecodeError) as exc:
        raise AuthorizationError("undecodable Basic credentials: %s" % exc)
    user, _, password = decoded.partition(":")
    return user, password


class BasicAuthServlet(Servlet):
    """RFC 2617 Basic Authentication: the hop-by-hop baseline.

    Authenticates "the client as the holder of a secret password, and
    leave[s] authorization to an ACL at the server" — exactly the
    conventional scheme Section 2.1 shows failing across administrative
    boundaries.
    """

    def __init__(self, realm: str, passwords: Dict[str, str], acl: Dict[str, set]):
        self.realm = realm
        self.passwords = dict(passwords)
        self.acl = {path: set(users) for path, users in acl.items()}

    def serve(self, request: HttpRequest, user: str) -> HttpResponse:
        raise NotImplementedError

    def service(self, request: HttpRequest) -> HttpResponse:
        authorization = request.headers.get("Authorization")
        if authorization is None or not authorization.startswith("Basic "):
            response = HttpResponse(401, body=b"authorization required")
            response.headers.set(
                "WWW-Authenticate", 'Basic realm="%s"' % self.realm
            )
            return response
        try:
            user, password = _decode_basic_credentials(authorization)
        except AuthorizationError:
            return HttpResponse(400, body=b"bad credentials encoding")
        if self.passwords.get(user) != password:
            return HttpResponse(403, body=b"bad password")
        allowed = self._allowed(request.path)
        if user not in allowed:
            return HttpResponse(403, body=b"not on the ACL")
        return self.serve(request, user)

    def _allowed(self, path: str) -> set:
        best: set = set()
        best_len = -1
        for prefix, users in self.acl.items():
            if path.startswith(prefix) and len(prefix) > best_len:
                best, best_len = users, len(prefix)
        return best


class DigestAuthServlet(Servlet):
    """RFC 2617 Digest Authentication baseline (nonce + hashed password)."""

    def __init__(
        self,
        realm: str,
        passwords: Dict[str, str],
        acl: Dict[str, set],
        rng=None,
    ):
        self.realm = realm
        self.passwords = dict(passwords)
        self.acl = {path: set(users) for path, users in acl.items()}
        # Deterministic under test, secrets-backed in production: nonces
        # must be unpredictable or the challenge is replayable.
        self._rng = default_rng(rng)
        self._nonces: set = set()

    def serve(self, request: HttpRequest, user: str) -> HttpResponse:
        raise NotImplementedError

    def _fresh_nonce(self) -> str:
        nonce = "%032x" % self._rng.getrandbits(128)
        self._nonces.add(nonce)
        return nonce

    @staticmethod
    def response_hash(user: str, realm: str, password: str, nonce: str,
                      method: str, path: str) -> str:
        ha1 = hashlib.md5(
            ("%s:%s:%s" % (user, realm, password)).encode()
        ).hexdigest()
        ha2 = hashlib.md5(("%s:%s" % (method, path)).encode()).hexdigest()
        return hashlib.md5(("%s:%s:%s" % (ha1, nonce, ha2)).encode()).hexdigest()

    def service(self, request: HttpRequest) -> HttpResponse:
        authorization = request.headers.get("Authorization")
        if authorization is None or not authorization.startswith("Digest "):
            response = HttpResponse(401, body=b"authorization required")
            response.headers.set(
                "WWW-Authenticate",
                'Digest realm="%s", nonce="%s"' % (self.realm, self._fresh_nonce()),
            )
            return response
        params = _parse_kv(authorization[7:])
        user = params.get("username", "")
        nonce = params.get("nonce", "")
        if nonce not in self._nonces:
            return HttpResponse(403, body=b"stale or unknown nonce")
        password = self.passwords.get(user)
        if password is None:
            return HttpResponse(403, body=b"unknown user")
        expected = self.response_hash(
            user, self.realm, password, nonce, request.method, request.path
        )
        if params.get("response") != expected:
            return HttpResponse(403, body=b"digest mismatch")
        allowed = set()
        best_len = -1
        for prefix, users in self.acl.items():
            if request.path.startswith(prefix) and len(prefix) > best_len:
                allowed, best_len = users, len(prefix)
        if user not in allowed:
            return HttpResponse(403, body=b"not on the ACL")
        return self.serve(request, user)


def _parse_kv(text: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in text.split(","):
        if "=" not in part:
            continue
        key, _, value = part.strip().partition("=")
        params[key.strip()] = value.strip().strip('"')
    return params
