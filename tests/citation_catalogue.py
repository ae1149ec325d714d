"""A small catalogue of proofs that cite each other's parts, shared by
the two citation-index property tests (``tests/guard`` for the proof
cache, ``tests/prover`` for the delegation graph).

Two certificates share serial-0, every leaf sits under more than one
chain, and some windows lapse — so one bucket regularly holds siblings
citing the same thing, and one removal regularly cascades.
"""

import random

from repro.core.principals import KeyPrincipal, NamePrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.crypto import generate_keypair
from repro.spki import Certificate
from repro.tags import Tag

_KP = generate_keypair(384, random.Random(0x1DE))
K = KeyPrincipal(_KP.public)
A, B, C, D = (NamePrincipal(K, name) for name in "abcd")
SERIALS = [b"serial-0", b"serial-1", b"nobody-cites-this"]


def _cert(subject, serial, validity=Validity.ALWAYS):
    return SignedCertificateStep(Certificate.issue(
        _KP, subject, Tag.all(), validity=validity, serial=serial,
        rng=random.Random(7),
    ))


def _premise(subject, issuer, validity=Validity.ALWAYS):
    return PremiseStep(SpeaksFor(subject, issuer, Tag.all(), validity))


_C1 = _cert(A, SERIALS[0])
_C2 = _cert(B, SERIALS[0], Validity(0, 10))
_C3 = _cert(A, SERIALS[1], Validity(0, 20))
PREMISE_STEPS = [
    _premise(B, A), _premise(C, B), _premise(C, A),
    _premise(D, C, Validity(0, 10)),
]
_P1, _P2, _P3, _P4 = PREMISE_STEPS
_T1 = TransitivityStep(_P1, _C1)
_T2 = TransitivityStep(_P2, _T1)
PROOFS = [
    _C1, _C2, _C3, _P1, _P2, _P3, _P4, _T1, _T2,
    TransitivityStep(_P3, _C1),
    TransitivityStep(_P3, _C3),
    TransitivityStep(_P2, _C2),
    TransitivityStep(_P4, _T2),
]


def serials_cited(proof):
    """The scan's own walk (deliberately not ``proof_citations``)."""
    return {
        lemma.certificate.serial for lemma in proof.lemmas()
        if isinstance(lemma, SignedCertificateStep)
    }


def lemmas_embedded(proof):
    """Digest of every lemma of ``proof``, its own included."""
    return {lemma.digest() for lemma in proof.lemmas()}


def premises_cited(proof):
    return {
        lemma.conclusion for lemma in proof.lemmas()
        if isinstance(lemma, PremiseStep)
    }
