"""A presented proof is paid for once, gated on counts (no clock).

K never-seen signed certificates, each for a never-seen request-hash
subject, go through ``DecodeCache`` + a :class:`~repro.guard.Guard` (the
path a wire check takes) four times each, interleaved.  The first
presentation of each is parsed and its signature checked; every repeat
is a digest lookup in the speaker's proof-cache bucket.  Counted:

- ``RsaPublicKey.verify`` calls: K, not 4K;
- ``proof_from_canonical`` calls, the guard's one decode entry for
  presented bytes: K, not 4K;
- ``Atom`` / ``SList`` nodes built inside the K ``verify_signature``
  calls: none, because the signed body is joined from bytes the
  certificate's parts already memoize;
- a repeat with one signature byte flipped: denied, at exactly one
  decode and one signature check.

And what the K kept proofs hold, when every certificate carries one tag
shape: one ``Tag`` object for all of them (decoded tags are interned by
their bytes) and K subject principals, not 2K (the kept proof's subject
is the speaker the frame decoded), and the proof reader declines none
of them to the tree path.
"""

import gc
import random

import repro.guard.pipeline as pipeline
from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.crypto.rsa import RsaPublicKey
from repro.guard import GuardRequest, ProofCredential, default_backend
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import Prover
from repro.serve.protocol import DecodeCache, encode_check
from repro.sexp import Atom, SList, sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag, parse_tag

K = 64
REPEATS = 4
BATCH = 8


class _Counts:
    """Calls to the three operations a presented proof can cost, and the
    tree nodes built while a certificate's signature is checked."""

    def __init__(self, monkeypatch):
        self.decodes = self.verifies = self.signature_checks = 0
        self.nodes_built = 0
        self._checking = False
        decode = pipeline.proof_from_canonical
        verify = RsaPublicKey.verify
        check = Certificate.verify_signature

        def counted_decode(*args, **kwargs):
            self.decodes += 1
            return decode(*args, **kwargs)

        def counted_verify(key, message, signature):
            self.verifies += 1
            return verify(key, message, signature)

        def counted_check(certificate):
            self.signature_checks += 1
            self._checking = True
            try:
                return check(certificate)
            finally:
                self._checking = False

        monkeypatch.setattr(pipeline, "proof_from_canonical", counted_decode)
        monkeypatch.setattr(RsaPublicKey, "verify", counted_verify)
        monkeypatch.setattr(Certificate, "verify_signature", counted_check)
        for node_type in (Atom, SList):
            monkeypatch.setattr(
                node_type, "__init__", self._counting(node_type.__init__)
            )

    def _counting(self, init):
        def counted(node, *args, **kwargs):
            if self._checking:
                self.nodes_built += 1
            init(node, *args, **kwargs)

        return counted


def _presentation(request_id, logical, subject, issuer, proof):
    return encode_check(request_id, GuardRequest(
        logical, issuer=issuer, transport="http",
        credential=ProofCredential(subject, wire=to_transport(proof.to_sexp())),
    ))


def _serve(guard, cache, frames):
    decisions = []
    for start in range(0, len(frames), BATCH):
        requests = [
            cache.decode(frame).body for frame in frames[start:start + BATCH]
        ]
        decisions += guard.check_many(requests)
    return decisions


def test_a_presented_proof_is_parsed_and_verified_once(keypool, monkeypatch):
    rng = random.Random(0xAD51)
    server = keypool[0]
    issuer = KeyPrincipal(server.public)
    presented = []
    for index in range(K):
        logical = sexp(["web", ["method", "GET"], ["path", "/cold-%d" % index]])
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        proof = SignedCertificateStep(
            Certificate.issue(server, subject, Tag.all(), rng=rng)
        )
        presented.append((logical, subject, proof))
    frames = [
        _presentation(1 + round_ * K + index, *presented[index][:2], issuer,
                      presented[index][2])
        for round_ in range(REPEATS)
        for index in range(K)
    ]
    guard = default_backend(TrustEnvironment(), prover=Prover())
    cache = DecodeCache()
    counts = _Counts(monkeypatch)

    decisions = _serve(guard, cache, frames)
    assert all(decision.granted for decision in decisions)
    print(
        "\n%d proofs x %d presentations: %d decodes, %d RSA verifies, "
        "%d tree nodes built in %d signature checks"
        % (K, REPEATS, counts.decodes, counts.verifies, counts.nodes_built,
           counts.signature_checks)
    )
    assert counts.verifies == K
    assert counts.decodes == K
    assert counts.signature_checks == K
    assert counts.nodes_built == 0
    dedup = guard.metrics.counter("guard.cache.dedup_hits")
    assert dedup == (REPEATS - 1) * K

    # One flipped signature byte is another digest: the full path runs
    # once and refuses.
    logical, subject, proof = presented[0]
    cert = proof.certificate
    forged = SignedCertificateStep(Certificate(
        cert.issuer_key, cert.subject, cert.tag, cert.validity, cert.serial,
        cert.propagate, cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]),
    ))
    (decision,) = _serve(guard, cache, [
        _presentation(1 + REPEATS * K, logical, subject, issuer, forged)
    ])
    assert not decision.granted
    assert counts.decodes == K + 1
    assert counts.verifies == K + 1


def _reachable(root, kind):
    """Distinct ``kind`` objects reachable from ``root``."""
    found, seen, stack = 0, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found += 1
        stack.extend(gc.get_referents(obj))
    return found


def test_kept_proofs_share_their_tag_and_subject(keypool):
    rng = random.Random(0xAD52)
    server = keypool[0]
    issuer = KeyPrincipal(server.public)
    tag = parse_tag("(tag (web))")
    frames = []
    for index in range(K):
        logical = sexp(["web", ["method", "GET"], ["path", "/cold-%d" % index]])
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        proof = SignedCertificateStep(
            Certificate.issue(server, subject, tag, rng=rng)
        )
        frames.append(_presentation(1 + index, logical, subject, issuer, proof))
    metrics = MetricsRegistry()
    guard = default_backend(TrustEnvironment(), prover=Prover(),
                            metrics=metrics)
    decoder = DecodeCache()
    decoder.metrics = metrics
    decisions = _serve(guard, decoder, frames)
    assert all(decision.granted for decision in decisions)

    cache = guard.cache
    subjects = set()
    for speaker, bucket in cache.buckets.items():
        subjects.add(id(speaker))
        for entry in bucket.values():
            subjects.add(id(entry.proof.conclusion.subject))
            subjects.add(id(entry.proof.certificate.subject))
    tags = _reachable(cache, Tag)
    print(
        "\n%d fresh credentials: %d Tag objects and %d subject principals "
        "reachable from the cache" % (K, tags, len(subjects))
    )
    assert tags == 1
    assert len(subjects) == K
    assert metrics.counter("serve.protocol.decode_fallbacks") == 0
    assert metrics.counter("core.proofs.reader_declines") == 0
