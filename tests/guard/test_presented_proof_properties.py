"""Differential property test: admitting a presented proof by digest.

A guard admits a proof it already holds by looking its bytes up, with no
parse and no signature check.  The reference below is a guard that
forgets every cached proof before each check, so it parses and verifies
every presentation, while keeping its invalidation tombstones.  Over
random sequences of presentations (fresh, repeated, tampered, for the
wrong subject, single and batched), revocations and clock moves, the two
must reach the same decision every time, and both must match a
one-line model of what a presented certificate chain justifies.

Each request subject has exactly one genuine proof.  A speaker's bucket
grants from any proof it holds, so a second proof for the same subject
would let the caching guard grant where the forgetful reference cannot
(whether it should is the request-hash question of ``docs/guard.md``),
which is not what this test is about.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import Validity
from repro.crypto import generate_keypair
from repro.crypto.hashes import HashValue
from repro.guard import Guard, GuardRequest, ProofCredential
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.sexp import sexp, to_canonical, to_transport
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

_SERVER = generate_keypair(384, random.Random(0xAD15))
_MIDDLE = generate_keypair(384, random.Random(0xAD16))
ISSUER = KeyPrincipal(_SERVER.public)
LOGICALS = [sexp(["web", ["path", "/doc-%d" % i]]) for i in range(4)]
SUBJECTS = [
    HashPrincipal(HashValue.of_bytes(to_canonical(logical)))
    for logical in LOGICALS
]
SERIALS = [b"serial-0", b"serial-1", b"link"]


def _certificate(signer, subject, validity, serial):
    return Certificate.issue(
        signer, subject, Tag.all(), validity=validity, serial=serial
    )


def _catalogue():
    """``(proof, serials, windows)`` for each subject's one proof: three
    single certificates (unbounded, lapsing, not yet valid) and a chain
    through a middle key; two serials are shared, so one revocation
    kills two proofs."""
    windows = [Validity.ALWAYS, Validity(0, 50), Validity(20, 80)]
    serials = [b"serial-0", b"serial-1", b"serial-0"]
    entries = []
    for subject, window, serial in zip(SUBJECTS, windows, serials):
        entries.append((
            SignedCertificateStep(
                _certificate(_SERVER, subject, window, serial)
            ),
            (serial,), (window,),
        ))
    link = SignedCertificateStep(_certificate(
        _SERVER, KeyPrincipal(_MIDDLE.public), Validity.ALWAYS, b"link"
    ))
    leaf = SignedCertificateStep(_certificate(
        _MIDDLE, SUBJECTS[3], Validity(0, 50), b"serial-1"
    ))
    entries.append((
        TransitivityStep(leaf, link), (b"serial-1", b"link"),
        (Validity(0, 50),),
    ))
    return entries


CATALOGUE = _catalogue()


def _tampered(proof):
    """The same proof with one signature byte flipped in its first
    certificate."""
    step = proof if isinstance(proof, SignedCertificateStep) else proof.premises[0]
    cert = step.certificate
    forged = SignedCertificateStep(Certificate(
        cert.issuer_key, cert.subject, cert.tag, cert.validity, cert.serial,
        cert.propagate, cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]),
    ))
    if proof is step:
        return forged
    return TransitivityStep(forged, proof.premises[1])


WIRES = [
    (to_transport(proof.to_sexp()), to_transport(_tampered(proof).to_sexp()))
    for proof, _, _ in CATALOGUE
]


def _presentation(request_index, proof_index, tampered):
    return GuardRequest(
        LOGICALS[request_index],
        issuer=ISSUER,
        credential=ProofCredential(
            SUBJECTS[request_index], wire=WIRES[proof_index][tampered]
        ),
        transport="http",
    )


def _justified(request_index, proof_index, tampered, revoked, now):
    _, serials, windows = CATALOGUE[proof_index]
    return (
        not tampered
        and proof_index == request_index
        and not revoked.intersection(serials)
        and all(window.contains(now) for window in windows)
    )


_present = st.tuples(
    st.integers(0, len(SUBJECTS) - 1),
    st.integers(0, len(CATALOGUE) - 1),
    st.booleans(),
)
_operation = st.one_of(
    st.tuples(st.just("present"), st.lists(_present, min_size=1, max_size=3)),
    st.tuples(st.just("revoke"), st.sampled_from(SERIALS)),
    st.tuples(st.just("advance"), st.sampled_from([10.0, 30.0, 60.0])),
)


def _outcome(decision):
    return decision.granted, type(decision.error)


@settings(max_examples=300, deadline=None)
@given(operations=st.lists(_operation, max_size=25))
def test_a_digest_hit_decides_as_a_full_verification_would(operations):
    clock = SimClock()
    guard = Guard(TrustEnvironment(clock=clock), check_charge=None,
                  metrics=MetricsRegistry())
    reference = Guard(TrustEnvironment(clock=clock), check_charge=None,
                      metrics=MetricsRegistry())
    revoked = set()
    for name, argument in operations:
        if name == "revoke":
            guard.revoke_serial(argument)
            reference.revoke_serial(argument)
            revoked.add(argument)
        elif name == "advance":
            clock.advance(argument)
        else:
            batch = [_presentation(*presented) for presented in argument]
            reference.cache.forget()
            expected = reference.check_many(batch)
            decided = guard.check_many(batch)
            for presented, got, want in zip(argument, decided, expected):
                assert _outcome(got) == _outcome(want)
                assert got.granted == _justified(
                    *presented, revoked, clock.now()
                )
    verified = "guard.credential_verifications"
    assert reference.metrics.counter(verified) >= (
        guard.metrics.counter(verified)
    )
