"""The benchmark's seeded world: keys, certificates, sessions, frame tapes.

Everything here is a pure function of ``--seed`` (one ``random.Random``
threaded through every draw), and everything the server ever learns of
it arrives as bytes: control lines that install sessions and
delegations, and pre-built wire frames.  The server process never sees
the seed.

The world, shared by all four workloads:

- one 512-bit server key (the resource issuer) and 8 intermediate group
  keys in 4 pairs, chained ``server -> g[2k] -> g[2k+1]``;
- 256 MAC sessions, each delegated from the server key through a chain
  of depth 1, 2 or 3 (one third each); popularity is zipf(s = 1.1);
- 64 logical requests ``(web (method GET) (path /doc-N))``, uniform;
- victim sessions for the write cycles (each with a pre-signed
  replacement leaf certificate) and 32 sessions with a valid MAC but
  *no* delegation chain (the CHALLENGE share of ``offpath_mixed``).

A *tape* is a list of complete wire frames (length prefix included)
with consecutive request ids and the reply status each id must get.
The request subtree bytes are built once per (session, path) combo and
the id is spliced in per frame, so a 100 000-frame tape costs well
under a second instead of ``encode_check`` x N.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.crypto.mac import MacKey
from repro.crypto.rsa import generate_keypair
from repro.guard import GuardRequest, ProofCredential, SessionCredential
from repro.serve.protocol import HEADER, guard_request_to_sexp
from repro.sexp import sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

KEY_BITS = 512
GROUPS = 8
SESSIONS = 256
PATHS = 64
UNCHAINED = 32
ZIPF_S = 1.1

#: Expected reply status per request id.
OK, CHALLENGE = 0, 1

#: Share of ``offpath_mixed`` frames by kind (the rest are unchained
#: MAC sessions, which must be answered CHALLENGE).
FRESH_SHARE = 0.60
REPEAT_SHARE = 0.25


def check_frame(request_id: int, request_bytes: bytes) -> bytes:
    """One ``(check <id> <request>)`` wire frame, byte-identical to
    ``encode_frame(encode_check(id, request))`` — the request subtree is
    already canonical, so only the id needs formatting."""
    rid = b"%d" % request_id
    body = b"(5:check%d:%s%s)" % (len(rid), rid, request_bytes)
    return HEADER.pack(len(body)) + body


class Session:
    """One MAC session and the certificates that justify it."""

    __slots__ = ("mac_id", "mac_key", "leaf", "replacement")

    def __init__(self, mac_id, mac_key, leaf=None, replacement=None):
        self.mac_id = mac_id
        self.mac_key = mac_key
        self.leaf = leaf                # Certificate naming the MAC
        self.replacement = replacement  # victims only: the re-grant


class Tape:
    """Frames with consecutive ids and the status each must be answered
    with; ``ok_labels`` additionally pins ``(via, stage)`` of OK replies
    where the workload makes them deterministic."""

    __slots__ = ("frames", "first_id", "expect", "ok_labels")

    def __init__(self, first_id: int, ok_labels=None):
        self.frames: List[bytes] = []
        self.first_id = first_id
        self.expect = bytearray()
        self.ok_labels: Optional[Tuple[str, str]] = ok_labels

    def __len__(self) -> int:
        return len(self.frames)

    def add(self, request_bytes: bytes, expect: int) -> None:
        self.frames.append(
            check_frame(self.first_id + len(self.frames), request_bytes)
        )
        self.expect.append(expect)

    def next_id(self) -> int:
        return self.first_id + len(self.frames)


class World:
    """Keys, sessions and request templates for one seed."""

    def __init__(self, seed: int, victims: int):
        rng = self.rng = random.Random(seed)
        self.server = generate_keypair(KEY_BITS, rng=rng)
        self.issuer = KeyPrincipal(self.server.public)
        self.groups = [
            generate_keypair(KEY_BITS, rng=rng) for _ in range(GROUPS)
        ]
        self.tag = Tag.from_sexp(sexp(["tag", ["web"]]))
        # server -> g[2k] -> g[2k+1]: the links the depth-2 and depth-3
        # chains share.  Odd groups are reachable only through their
        # even partner, so a depth-3 chain has no shorter proof.
        self.links = []
        for even in range(0, GROUPS, 2):
            self.links.append(self._issue(
                self.server, KeyPrincipal(self.groups[even].public)))
            self.links.append(self._issue(
                self.groups[even],
                KeyPrincipal(self.groups[even + 1].public)))
        self.sessions = [self._session(i) for i in range(SESSIONS)]
        self.victims = [
            self._session(i, replacement=True) for i in range(victims)
        ]
        self.unchained = [
            self._session(i, chained=False) for i in range(UNCHAINED)
        ]
        self.logicals = []
        for path in range(PATHS):
            node = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % path]])
            self.logicals.append((node, to_canonical(node)))
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(SESSIONS)]
        self._zipf = list(accumulate(weights))
        self._templates: Dict[Tuple[str, int], bytes] = {}
        self._next_id = 1
        self._cold = 0
        self._trace = 0

    # -- certificates and sessions ------------------------------------------

    def _issue(self, issuer_kp, subject) -> Certificate:
        return Certificate.issue(issuer_kp, subject, self.tag, rng=self.rng)

    def _session(self, index: int, chained: bool = True,
                 replacement: bool = False) -> Session:
        mac_key = MacKey.generate(self.rng)
        session = Session(mac_key.fingerprint().digest.hex(), mac_key)
        if not chained:
            return session
        # Depth 1: signed by the server.  Depth 2: by an even group
        # (server -> g[2k] -> mac).  Depth 3: by its odd partner.
        depth = index % 3 + 1
        signer = self.server
        if depth > 1:
            pair = 2 * (index // 3 % (GROUPS // 2))
            signer = self.groups[pair + depth - 2]
        subject = MacPrincipal(mac_key.fingerprint())
        session.leaf = self._issue(signer, subject)
        if replacement:
            session.replacement = self._issue(signer, subject)
        return session

    def install_lines(self) -> List[bytes]:
        """The control lines that make a fresh server hold this world."""
        lines = []
        for cert in self.links:
            lines.append(delegate_line(cert))
        for session in self.sessions + self.victims + self.unchained:
            lines.append(b"session %s %s\n" % (
                session.mac_id.encode("ascii"),
                session.mac_key.secret.hex().encode("ascii"),
            ))
            if session.leaf is not None:
                lines.append(delegate_line(session.leaf))
        return lines

    # -- request templates ----------------------------------------------------

    def _request_bytes(self, logical, credential) -> bytes:
        return to_canonical(guard_request_to_sexp(GuardRequest(
            logical, issuer=self.issuer, credential=credential,
            transport="http",
        )))

    def session_request(self, session: Session, path: int) -> bytes:
        """Canonical request subtree for (session, path), built once."""
        key = (session.mac_id, path)
        template = self._templates.get(key)
        if template is None:
            logical, message = self.logicals[path]
            template = self._request_bytes(logical, SessionCredential(
                session.mac_id, session.mac_key.tag(message), message
            ))
            self._templates[key] = template
        return template

    def _fresh_proof_request(self) -> bytes:
        """A never-seen subject with a never-seen signed certificate:
        nothing on the server amortizes."""
        logical = sexp(
            ["web", ["method", "GET"], ["path", "/cold-%d" % self._cold]]
        )
        self._cold += 1
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        wire = to_transport(
            SignedCertificateStep(self._issue(self.server, subject)).to_sexp()
        )
        return self._request_bytes(
            logical, ProofCredential(subject, wire=wire)
        )

    def _with_trace(self, request_bytes: bytes) -> bytes:
        """Append a unique ``(trace <hex>)`` field, as a client that
        traces every request would: the request bytes never repeat, so
        the listener's decode cache cannot hit."""
        self._trace += 1
        return b"%s(5:trace16:%016x))" % (request_bytes[:-1], self._trace)

    # -- tapes ----------------------------------------------------------------

    def _tape(self, ok_labels=None) -> Tape:
        return Tape(self._next_id, ok_labels)

    def _seal(self, tape: Tape) -> Tape:
        self._next_id = tape.next_id()
        return tape

    def _zipf_draws(self, count: int) -> List[int]:
        total = self._zipf[-1]
        rng = self.rng
        return [
            bisect_right(self._zipf, rng.random() * total)
            for _ in range(count)
        ]

    def steady_tape(self, count: int) -> Tape:
        """zipfian sessions x uniform paths, unique id per frame."""
        tape = self._tape()
        rng = self.rng
        sessions = self.sessions
        for index in self._zipf_draws(count):
            tape.add(
                self.session_request(sessions[index], rng.randrange(PATHS)),
                OK,
            )
        return self._seal(tape)

    def cover_tape(self, sessions: List[Session]) -> Tape:
        """One request per session: warm-up that reaches every chain, so
        no session meets the prover for the first time while timed."""
        tape = self._tape()
        for index, session in enumerate(sessions):
            tape.add(self.session_request(session, index % PATHS), OK)
        return self._seal(tape)

    def offpath_tape(self, count: int) -> Tape:
        """Everything that leaves the MAC fast path (see FRESH_SHARE)."""
        tape = self._tape(ok_labels=("proof", "cache"))
        rng = self.rng
        sent: List[bytes] = []
        for _ in range(count):
            draw = rng.random()
            if draw < FRESH_SHARE or (draw < FRESH_SHARE + REPEAT_SHARE
                                      and not sent):
                request = self._fresh_proof_request()
                sent.append(request)
                expect = OK
            elif draw < FRESH_SHARE + REPEAT_SHARE:
                # zipf over recency: the newest proof is the likeliest
                # repeat, the tail reaches back past the proof caches.
                back = min(int(rng.paretovariate(ZIPF_S)), len(sent))
                request = sent[-back]
                expect = OK
            else:
                session = self.unchained[rng.randrange(UNCHAINED)]
                request = self.session_request(
                    session, rng.randrange(PATHS)
                )
                expect = CHALLENGE
            tape.add(self._with_trace(request), expect)
        return self._seal(tape)

    def take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    def probe_frame(self, session: Session) -> Tuple[int, bytes]:
        """A single check for ``session`` under a fresh id."""
        request_id = self.take_id()
        return request_id, check_frame(
            request_id, self.session_request(session, 0)
        )


def delegate_line(cert: Certificate) -> bytes:
    proof = SignedCertificateStep(cert)
    return b"delegate %s\n" % to_canonical(proof.to_sexp()).hex().encode(
        "ascii"
    )


def revoke_line(cert: Certificate) -> bytes:
    return b"revoke %s\n" % cert.serial.hex().encode("ascii")
