"""What a guard keeps per request, gated on counts (no clock).

Run with ``PYTHONHASHSEED=0`` so dict and set layouts repeat.  Two
workloads through ``DecodeCache`` + a :class:`~repro.guard.Guard`, the
path a wire check takes:

- **fresh proofs** — every request carries a never-seen signed
  certificate for a never-seen subject, so each one adds a proof-cache
  entry: the gc-tracked objects that entry costs, and that no
  parser-built list is reachable from a cached proof (a kept proof costs
  its canonical bytes, not its parse tree);
- **one warm MAC session** — once the audit ring is full and the memos
  are warm, serving 2 048 more requests must not grow the heap at all;
- **one MAC session, distinct questions** — every request asks a path
  never asked before, so nothing per question may be kept past the
  audit ring and the decode memos: once both are full, the heap is flat
  from block to block.
"""

import gc
import random

from repro.core.principals import HashPrincipal, KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.crypto.hashes import HashValue
from repro.crypto.rsa import RsaPublicKey
from repro.guard import (
    GuardRequest,
    ProofCredential,
    SessionCredential,
    default_backend,
)
from repro.guard.audit import AUDIT_RETAIN
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.serve.protocol import DecodeCache, encode_check
from repro.sexp import SList, sexp, to_canonical, to_transport
from repro.spki import Certificate
from repro.tags import Tag

FRESH = 2000
BATCH = 8
#: Tracked objects a cached fresh proof may cost.  Measured: 152.4 when
#: decoders adopted parse trees, 33.4 with bytes adopted, decoded issuer
#: keys interned, and no tree memo left on proofs, statements or
#: principals; 25.0 with decoded tags interned too and the proof's
#: subject the speaker the frame decoded; 23.9 with one issuer
#: principal per key and no per-question memo on the guard.  The count
#: repeats exactly
#: under ``PYTHONHASHSEED=0``; the margin is for interpreter versions
#: that track differently.
OBJECTS_PER_FRESH_PROOF = 50


def _serve(guard, cache, frames):
    granted = 0
    for start in range(0, len(frames), BATCH):
        requests = [
            cache.decode(frame).body for frame in frames[start:start + BATCH]
        ]
        granted += sum(d.granted for d in guard.check_many(requests))
    return granted


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _fresh_frames(server, issuer, rng, first_id, count):
    frames = []
    for index in range(first_id, first_id + count):
        logical = sexp(["web", ["method", "GET"], ["path", "/cold-%d" % index]])
        subject = HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
        proof = SignedCertificateStep(
            Certificate.issue(server, subject, Tag.all(), rng=rng)
        )
        frames.append(encode_check(index, GuardRequest(
            logical, issuer=issuer, transport="http",
            credential=ProofCredential(
                subject, wire=to_transport(proof.to_sexp())
            ),
        )))
    return frames


def _lists_under(proof):
    """``SList`` nodes reachable from a proof, not counting the node a
    shared ``RsaPublicKey`` memoizes for itself (one per key, not per
    proof)."""
    found, seen, stack = 0, set(), [proof]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, RsaPublicKey)):
            continue
        seen.add(id(obj))
        if isinstance(obj, SList):
            found += 1
        stack.extend(gc.get_referents(obj))
    return found


def test_a_fresh_proof_costs_its_bytes_not_its_parse_tree(keypool):
    rng = random.Random(0x2E7A)
    server = keypool[0]
    issuer = KeyPrincipal(server.public)
    guard = default_backend(TrustEnvironment(), prover=Prover())
    cache = DecodeCache()
    warm = _fresh_frames(server, issuer, rng, 1, 64)
    frames = _fresh_frames(server, issuer, rng, 65, FRESH)
    assert _serve(guard, cache, warm) == len(warm)

    before = _tracked()
    assert _serve(guard, cache, frames) == FRESH
    per_proof = (_tracked() - before) / FRESH

    entries = [
        entry
        for bucket in guard.cache.buckets.values()
        for entry in bucket.values()
    ]
    assert len(entries) == FRESH + len(warm)
    parse_lists = sum(_lists_under(entry.proof) for entry in entries)
    print(
        "\n%d fresh proofs: %.1f gc-tracked objects retained per proof, "
        "%d parser-built lists reachable from %d cached proofs"
        % (FRESH, per_proof, parse_lists, len(entries))
    )
    assert per_proof <= OBJECTS_PER_FRESH_PROOF
    assert parse_lists == 0


def test_a_warm_session_serves_without_growing_the_heap(keypool):
    rng = random.Random(0x2E7B)
    server = keypool[0]
    issuer = KeyPrincipal(server.public)
    guard = default_backend(TrustEnvironment(), prover=Prover())
    mac_id, mac_key = guard.mint_session(rng)
    guard.digest_delegation(SignedCertificateStep(Certificate.issue(
        server, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
    )))
    logical = sexp(["web", ["method", "GET"], ["path", "/doc-0"]])
    message = to_canonical(logical)
    request = GuardRequest(
        logical, issuer=issuer, transport="http",
        credential=SessionCredential(mac_id, mac_key.tag(message), message),
    )
    cache = DecodeCache()
    sizes = []
    for block in range(3):
        first = 1 + block * AUDIT_RETAIN
        frames = [
            encode_check(request_id, request)
            for request_id in range(first, first + AUDIT_RETAIN)
        ]
        assert _serve(guard, cache, frames) == AUDIT_RETAIN
        del frames
        sizes.append(_tracked())
    assert guard.audit.recorded == 3 * AUDIT_RETAIN
    assert guard.audit.evicted == 2 * AUDIT_RETAIN
    print(
        "\ngc-tracked objects after each block of %d warm requests: %s"
        % (AUDIT_RETAIN, sizes)
    )
    # The ring filled during the first block; after that the heap is flat.
    assert abs(sizes[2] - sizes[1]) <= 0.01 * sizes[1]


#: Blocks of ``AUDIT_RETAIN`` distinct questions in the distinct-questions
#: case: the ring and the decode memos fill in the first.
DISTINCT_BLOCKS = 5


def test_distinct_questions_leave_nothing_behind(keypool):
    rng = random.Random(0x2E7C)
    server = keypool[0]
    issuer = KeyPrincipal(server.public)
    guard = default_backend(TrustEnvironment(), prover=Prover())
    mac_id, mac_key = guard.mint_session(rng)
    guard.digest_delegation(SignedCertificateStep(Certificate.issue(
        server, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
    )))
    cache = DecodeCache()
    sizes = []
    for block in range(DISTINCT_BLOCKS):
        frames = []
        first = 1 + block * AUDIT_RETAIN
        for request_id in range(first, first + AUDIT_RETAIN):
            logical = sexp(
                ["web", ["method", "GET"], ["path", "/doc-%d" % request_id]]
            )
            message = to_canonical(logical)
            frames.append(encode_check(request_id, GuardRequest(
                logical, issuer=issuer, transport="http",
                credential=SessionCredential(
                    mac_id, mac_key.tag(message), message
                ),
            )))
        assert _serve(guard, cache, frames) == AUDIT_RETAIN
        del frames, logical
        sizes.append(_tracked())
    print(
        "\ngc-tracked objects after each block of %d distinct questions: %s"
        % (AUDIT_RETAIN, sizes)
    )
    # The ring and the decode memos filled during the first block; after
    # that each block leaves the heap as it found it.
    settled = sizes[1:]
    assert max(settled) - min(settled) <= 0.01 * min(settled)
