"""Property-based tests: a decoded proof keeps its bytes, not its parse
tree.

Invariant: for a proof built from any registered rule, decoding its
canonical bytes yields a proof with the same ``canonical()``,
``digest()``, equality and hash, whose ``to_sexp()`` re-encodes to the
same bytes — and from which no S-expression node is reachable except
the ground values a proof *is made of* (a ``Says.request``, a
``hash-identity`` preimage) and the node a shared, interned
``RsaPublicKey`` memoizes for itself.  A kept proof therefore costs its
bytes, not 96 tracked objects of parse tree.
"""

import gc
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.principals import (
    ConjunctPrincipal,
    KeyPrincipal,
    NamePrincipal,
    ThresholdPrincipal,
)
from repro.core.proofs import (
    _RULE_REGISTRY,
    PremiseStep,
    SignedCertificateStep,
    VerificationContext,
    proof_from_sexp,
)
from repro.core.rules import (
    ConjunctionIntroStep,
    ConjunctionProjectionStep,
    DerivedSaysStep,
    HashIdentityStep,
    NameMonotonicityStep,
    QuotingCollapseStep,
    QuotingLeftMonotonicityStep,
    QuotingRightMonotonicityStep,
    ReflexivityStep,
    RestrictionWeakeningStep,
    ThresholdIntroStep,
    TransitivityStep,
)
from repro.core.statements import Says, SpeaksFor, Validity
from repro.crypto import generate_keypair
from repro.crypto.rsa import RsaPublicKey
from repro.guard import default_backend
from repro.guard.cache import ProofCache
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import Atom, SList, parse_canonical, sexp, to_canonical
from repro.spki import Certificate
from repro.tags import parse_tag

_KP = generate_keypair(384, random.Random(0xB17E5))
_KEY = KeyPrincipal(_KP.public)
_NODES = [NamePrincipal(_KEY, "p%d" % i) for i in range(5)] + [_KEY]
_TAGS = [
    parse_tag("(tag (*))"),
    parse_tag("(tag (web))"),
    parse_tag("(tag (web (method GET)))"),
]
_WINDOWS = [Validity.ALWAYS, Validity(0, 10), Validity(5, None)]
_REQUEST = sexp(["web", ["method", "GET"], ["path", "/x"]])


def _node(n):
    return _NODES[n % len(_NODES)]


def _link(a, b, c=0, d=0):
    return PremiseStep(SpeaksFor(
        _node(a), _node(b), _TAGS[c % len(_TAGS)], _WINDOWS[d % len(_WINDOWS)]
    ))


def _certificate(a, c, d):
    return Certificate.issue(
        _KP, _node(a), _TAGS[c % len(_TAGS)], _WINDOWS[d % len(_WINDOWS)],
        rng=random.Random(a * 31 + c * 7 + d),
    )


#: One builder per registered rule; each takes four small integers.
RECIPES = {
    "premise": lambda a, b, c, d: (
        _link(a, b, c, d) if d % 2 else PremiseStep(Says(_node(a), _REQUEST))
    ),
    "signed-certificate": lambda a, b, c, d: SignedCertificateStep(
        _certificate(a, c, d)
    ),
    "transitivity": lambda a, b, c, d: TransitivityStep(
        _link(a, b, c), _link(b, a + 1, d)
    ),
    "reflexivity": lambda a, b, c, d: ReflexivityStep(_node(a)),
    "weakening": lambda a, b, c, d: RestrictionWeakeningStep(
        _link(a, b, 0), _TAGS[c % len(_TAGS)]
    ),
    "name-monotonicity": lambda a, b, c, d: NameMonotonicityStep(
        _link(a, b, c, d), "n%d" % d
    ),
    "quoting-left": lambda a, b, c, d: QuotingLeftMonotonicityStep(
        _link(a, b, c), _node(d)
    ),
    "quoting-right": lambda a, b, c, d: QuotingRightMonotonicityStep(
        _link(a, b, c), _node(d)
    ),
    "quoting-collapse": lambda a, b, c, d: QuotingCollapseStep(_node(a)),
    "conjunction-intro": lambda a, b, c, d: ConjunctionIntroStep(
        _link(a, b, c), _link(a, b + 1, d)
    ),
    "conjunction-projection": lambda a, b, c, d: ConjunctionProjectionStep(
        ConjunctPrincipal([_node(a), _node(a + 1)]), _node(a)
    ),
    "threshold-intro": lambda a, b, c, d: ThresholdIntroStep(
        [_link(a, b, c), _link(a, b + 1, d)],
        ThresholdPrincipal(2, [_node(b), _node(b + 1), _node(b + 2)]),
    ),
    "hash-identity": lambda a, b, c, d: HashIdentityStep(
        _node(a).to_sexp(), reverse=bool(d % 2)
    ),
    "derived-says": lambda a, b, c, d: DerivedSaysStep(
        PremiseStep(Says(_node(a), _REQUEST)), _link(a, b, c)
    ),
}


def test_every_registered_rule_has_a_recipe():
    assert set(RECIPES) == set(_RULE_REGISTRY)


small = st.integers(0, 7)
proofs = st.builds(
    lambda rule, a, b, c, d: RECIPES[rule](a, b, c, d),
    st.sampled_from(sorted(RECIPES)), small, small, small, small,
)


def sexp_nodes_kept_by(root):
    """S-expression nodes reachable from ``root`` other than the ground
    values a proof is made of and an interned key's own memo."""
    found, seen, stack = [], set(), [root]
    opaque = (type, types.ModuleType, types.FunctionType, bytes, str, int,
              float, type(None), RsaPublicKey)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Atom, SList)):
            found.append(obj)
            continue
        if isinstance(obj, opaque):
            continue
        skip = None
        if isinstance(obj, Says):
            skip = obj.request
        elif isinstance(obj, HashIdentityStep):
            skip = obj.preimage
        stack.extend(
            ref for ref in gc.get_referents(obj) if ref is not skip
        )
    return found


@given(proofs)
@settings(max_examples=200, deadline=None)
def test_decoded_proof_is_its_bytes_and_holds_no_parse_tree(proof):
    wire = proof.canonical()
    decoded = proof_from_sexp(parse_canonical(wire))
    assert decoded.canonical() == wire
    assert decoded.digest() == proof.digest()
    assert decoded == proof and hash(decoded) == hash(proof)
    for lemma, original in zip(decoded.lemmas(), proof.lemmas()):
        assert lemma.canonical() == original.canonical()
    assert sexp_nodes_kept_by(decoded) == []
    # to_sexp() rebuilds on demand, to the same bytes, and is not kept.
    assert to_canonical(decoded.to_sexp()) == wire
    assert sexp_nodes_kept_by(decoded) == []


@given(proofs)
@settings(max_examples=200, deadline=None)
def test_composed_bytes_are_the_trees_encoding(proof):
    """``canonical()`` / ``canonical_key()`` assemble bytes from what
    the parts memoize; ``to_sexp()`` builds the tree.  One layout, two
    writers — they must agree on every proof and every conclusion."""
    for lemma in proof.lemmas():
        assert lemma.canonical() == to_canonical(lemma.to_sexp())
        conclusion = lemma.conclusion
        assert conclusion.canonical_key() == to_canonical(conclusion.to_sexp())


@given(proofs)
@settings(max_examples=100, deadline=None)
def test_digesting_a_local_proof_pins_no_tree_either(proof):
    for lemma in proof.lemmas():
        lemma.digest()
    assert sexp_nodes_kept_by(proof) == []


@given(proofs)
@settings(max_examples=100, deadline=None)
def test_decoded_proof_verifies_like_the_original(proof):
    decoded = proof_from_sexp(parse_canonical(proof.canonical()))
    context = VerificationContext(
        now=7.0,
        trusted_premises=[
            lemma.conclusion
            for lemma in proof.lemmas()
            if isinstance(lemma, PremiseStep)
        ],
    )
    decoded.verify(context)


# -- a parseable but non-normal encoding ---------------------------------------


def _splice_comment_into_cert_body(node):
    """``node`` with ``(comment x)`` appended to its certificate body —
    a field ``Certificate.from_sexp`` ignores, so the signature (over
    the body the decoder *rebuilds*) still verifies."""
    if not isinstance(node, SList):
        return node
    items = [_splice_comment_into_cert_body(item) for item in node.items]
    if node.head() == "cert":
        items.append(SList([Atom("comment"), Atom("x")]))
    return SList(items)


@pytest.fixture()
def clean_and_spliced():
    clean = SignedCertificateStep(_certificate(1, 1, 0))
    wire = to_canonical(_splice_comment_into_cert_body(clean.to_sexp()))
    assert wire != clean.canonical()
    return clean, wire, proof_from_sexp(parse_canonical(wire))


class TestNonNormalEncoding:
    def test_its_canonical_is_exactly_the_bytes_received(
        self, clean_and_spliced
    ):
        clean, wire, spliced = clean_and_spliced
        spliced.verify(VerificationContext())
        assert spliced.canonical() == wire
        assert spliced.digest() != clean.digest()
        assert spliced != clean
        assert spliced.conclusion == clean.conclusion
        assert sexp_nodes_kept_by(spliced) == []

    def test_retracting_the_clean_digest_does_not_touch_it(
        self, clean_and_spliced
    ):
        """Pinned, not endorsed: a non-normal encoding gets a key that
        matches nothing local, so a retraction *by digest* of the clean
        form passes it by.  What does reach it is what names the
        certificate rather than an encoding of it: its serial."""
        clean, _, spliced = clean_and_spliced
        cache = ProofCache()
        assert cache.add(spliced)
        assert cache.add(clean)  # a different digest: no dedup either
        assert cache.retract_dependents(clean.digest()) == 1
        assert cache.count() == 1
        assert cache.retract_serial(clean.certificate.serial) == 1
        assert cache.count() == 0

    def test_a_guard_revocation_reaches_it_under_the_digest_it_was_cached_under(
        self, clean_and_spliced
    ):
        """``to_sexp()`` rebuilds from the decoded fields, so it yields
        the normal form; nothing re-encodes a cached proof, so its entry
        stays under the digest of the bytes it arrived as, and a
        revocation, which names the certificate's serial rather than an
        encoding, reaches it there."""
        clean, wire, spliced = clean_and_spliced
        assert to_canonical(spliced.to_sexp()) == clean.canonical()
        guard = default_backend(TrustEnvironment(), prover=Prover())
        speaker = spliced.conclusion.subject
        assert guard.cache.add(spliced)
        entry = guard.cache.buckets[speaker][spliced.digest()]
        assert entry.proof.canonical() == wire
        assert guard.revoke_serial(clean.certificate.serial) == 1
        assert guard.cache.count() == 0
