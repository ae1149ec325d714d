"""The protected web file server (Section 6.1).

"One user establishes control over the file server by specifying the hash
of his public key when starting up the server; he may delegate to others
permission to read subtrees or individual files."

Notably, the resource issuer is the *hash* of the owner's key — so every
client proof ends with the hash-identity step (``K-owner => H(K-owner)``),
exactly the rule Figure 1 motivates.  ``delegate_subtree`` restricts with
a ``(* prefix ...)`` tag over the resource path.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.fs import FileSystemError, InMemoryFileSystem
from repro.core.principals import HashPrincipal, KeyPrincipal, Principal
from repro.core.proofs import Proof
from repro.core.rules import HashIdentityStep, TransitivityStep
from repro.core.statements import Validity
from repro.crypto.rsa import RsaKeyPair
from repro.http.auth import ProtectedServlet
from repro.http.docauth import DocumentSigner
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.net.trust import TrustEnvironment
from repro.sexp import sexp
from repro.sim.costmodel import Meter
from repro.spki.certificate import Certificate
from repro.tags import Tag, TagList, TagPrefix, TagStar
from repro.tags.tag import TagAtom


class _FileServlet(ProtectedServlet):
    def __init__(self, owner_hash: HashPrincipal, fs: InMemoryFileSystem,
                 service_id: bytes, trust: TrustEnvironment,
                 meter: Optional[Meter] = None, mac_sessions=None,
                 doc_signer: Optional[DocumentSigner] = None, guard=None):
        super().__init__(service_id, trust, meter=meter,
                         mac_sessions=mac_sessions, guard=guard)
        self.owner_hash = owner_hash
        self.fs = fs
        self.doc_signer = doc_signer

    def issuer_for(self, request: HttpRequest) -> Principal:
        return self.owner_hash

    def serve(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            return HttpResponse(403, body=b"read-only server")
        try:
            if self.fs.is_dir(request.path):
                names = self.fs.listdir(request.path)
                body = ("\n".join(names) + "\n").encode("utf-8")
                response = HttpResponse(
                    200, [("Content-Type", "text/plain")], body
                )
            else:
                response = HttpResponse(
                    200,
                    [("Content-Type", "application/octet-stream")],
                    self.fs.read(request.path),
                )
        except FileSystemError:
            return HttpResponse(404, body=b"no such file")
        if self.doc_signer is not None:
            self.doc_signer.attach(response)
        return response


class ProtectedWebServer:
    """The assembled application: file system + servlet + HTTP server."""

    def __init__(
        self,
        owner_keypair: RsaKeyPair,
        service_id: bytes = b"protected-web",
        clock=None,
        meter: Optional[Meter] = None,
        rng=None,
        mac_sessions=None,
        sign_documents: bool = False,
        guard=None,
    ):
        self.owner_keypair = owner_keypair
        self.owner_principal = KeyPrincipal(owner_keypair.public)
        # Control is established by the *hash* of the owner's public key.
        self.owner_hash = self.owner_principal.hash_principal()
        self.service_id = service_id
        self.fs = InMemoryFileSystem()
        self.trust = TrustEnvironment(clock=clock)
        self._rng = rng
        doc_signer = (
            DocumentSigner(owner_keypair, meter=meter, rng=rng)
            if sign_documents
            else None
        )
        self.servlet = _FileServlet(
            self.owner_hash, self.fs, service_id, self.trust,
            meter=meter, mac_sessions=mac_sessions, doc_signer=doc_signer,
            guard=guard,
        )
        # The servlet's backend is the application's authorization state:
        # audit records and stats live there, uniform with the other apps.
        self.guard = self.servlet.guard
        self.http = HttpServer(meter=meter)
        self.http.mount("/", self.servlet)

    def listen(self, network, address: str) -> None:
        network.listen(address, self.http)

    @property
    def audit(self):
        """The end-to-end audit log of every granted request."""
        return self.guard.audit

    # -- delegation helpers --------------------------------------------------

    def owner_identity_proof(self) -> Proof:
        """``K-owner =(*)=> H(K-owner)`` — the hash-identity lemma every
        client chain needs to reach the server's issuer."""
        return HashIdentityStep(
            self.owner_keypair.public.to_sexp(), reverse=True
        )

    def subtree_tag(self, prefix: str, method: str = "GET") -> Tag:
        """Read access to a path prefix: Figure 5's shape with a
        ``(* prefix ...)`` resourcePath."""
        return Tag(
            TagList(
                [
                    TagAtom("web"),
                    TagList([TagAtom("method"), TagAtom(method)]),
                    TagList([TagAtom("service"), TagAtom(self.service_id)]),
                    TagList(
                        [TagAtom("resourcePath"), TagPrefix(prefix)]
                    ),
                ]
            )
        )

    def file_tag(self, path: str, method: str = "GET") -> Tag:
        """Read access to exactly one file."""
        return Tag(
            TagList(
                [
                    TagAtom("web"),
                    TagList([TagAtom("method"), TagAtom(method)]),
                    TagList([TagAtom("service"), TagAtom(self.service_id)]),
                    TagList([TagAtom("resourcePath"), TagAtom(path)]),
                ]
            )
        )

    def delegate(
        self,
        recipient: Principal,
        tag: Tag,
        validity: Validity = Validity.ALWAYS,
    ) -> Proof:
        """Owner grants authority: ``recipient =tag=> H(K-owner)``.

        The returned proof already composes the signed certificate with
        the hash-identity step, so recipients can use it directly.
        """
        certificate = Certificate.issue(
            self.owner_keypair, recipient, tag, validity, rng=self._rng
        )
        from repro.core.proofs import SignedCertificateStep

        return TransitivityStep(
            SignedCertificateStep(certificate), self.owner_identity_proof()
        )

    def delegate_subtree(self, recipient: Principal, prefix: str,
                         validity: Validity = Validity.ALWAYS) -> Proof:
        return self.delegate(recipient, self.subtree_tag(prefix), validity)

    def delegate_file(self, recipient: Principal, path: str,
                      validity: Validity = Validity.ALWAYS) -> Proof:
        return self.delegate(recipient, self.file_tag(path), validity)
