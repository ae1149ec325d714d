"""Property-based tests: the one-pass proof reader agrees with the tree.

Invariant (``proof_from_canonical``'s docstring): on any bytes, and
whatever subject the caller hands it, the reader returns a proof equal
to ``proof_from_sexp(parse_canonical(b))`` or it declines to that call.
So on honest proofs and on every byte mutation of them, either both
raise, or both return proofs with equal ``canonical()``, equal
conclusion bytes, and equal certificate fields lemma by lemma.  Honest
``signed-certificate`` / ``transitivity`` bytes are read without a
decline; any other rule or a name certificate in the tree declines, and
the tree path decides.  A given subject equal to the chain's is the
object the read proof keeps.
"""

import random

from hypothesis import given, settings, strategies as st

import repro.crypto.rsa as rsa
from repro.core.principals import (
    HashPrincipal,
    KeyPrincipal,
    NamePrincipal,
    principal_from_sexp,
)
from repro.core.proofs import (
    PremiseStep,
    SignedCertificateStep,
    proof_from_canonical,
    proof_from_sexp,
)
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.crypto import generate_keypair
from repro.crypto.hashes import HashValue
from repro.obs import MetricsRegistry
from repro.sexp import SList, parse_canonical, to_canonical
from repro.spki import Certificate
from repro.tags import parse_tag
from repro.tags import tag as tag_module

_KEYS = [generate_keypair(384, random.Random(0x5EED + i)) for i in range(5)]
_TAGS = [
    parse_tag("(tag (*))"),
    parse_tag("(tag (web))"),
    parse_tag("(tag (web (method GET)))"),
]
#: Every pair of windows overlaps (all hold 5..50), so a chain of them
#: composes whatever the draw.
_WINDOWS = [Validity.ALWAYS, Validity(0, 100), Validity(5, None),
            Validity(None, 50)]
_SUBJECTS = [
    HashPrincipal(HashValue.of_bytes(b"request")),
    NamePrincipal(KeyPrincipal(_KEYS[4].public), "alice"),
    KeyPrincipal(_KEYS[4].public),
]


def _chain(links, subject, leaf_premise, named_top):
    """``subject => K0 => ... => K(n-1)`` as signed certificates (the last
    one a name certificate when ``named_top``), folded into transitivity
    steps; ``leaf_premise`` makes the first link a premise step instead.
    ``links`` is a list of (tag, window, propagate, serial seed)."""
    steps = []
    holder = subject
    for index, (tag, window, propagate, seed) in enumerate(links):
        signer = _KEYS[index]
        named = named_top and index == len(links) - 1
        if index == 0 and leaf_premise:
            statement = SpeaksFor(
                holder, KeyPrincipal(signer.public), _TAGS[tag], _WINDOWS[window]
            )
            steps.append(PremiseStep(statement))
        else:
            steps.append(SignedCertificateStep(Certificate.issue(
                signer, holder, _TAGS[tag], _WINDOWS[window],
                propagate=propagate, rng=random.Random(seed),
                issuer_name="group" if named else None,
            )))
        holder = KeyPrincipal(signer.public)
    proof = steps[0]
    for step in steps[1:]:
        proof = TransitivityStep(proof, step)
    return proof


_link = st.tuples(
    st.integers(0, len(_TAGS) - 1),
    st.integers(0, len(_WINDOWS) - 1),
    st.booleans(),
    st.integers(0, 2 ** 16),
)
#: Mostly what the reader reads; sometimes a tree with another rule or a
#: name certificate in it, which it declines.
_rarely = st.integers(0, 4).map(lambda draw: draw == 0)
honest = st.builds(
    _chain,
    st.lists(_link, min_size=1, max_size=5),
    st.sampled_from(_SUBJECTS),
    _rarely,
    _rarely,
)
readable = st.builds(
    _chain,
    st.lists(_link, min_size=1, max_size=5),
    st.sampled_from(_SUBJECTS),
    st.just(False),
    st.just(False),
)


# -- byte mutations ---------------------------------------------------------


def _prefix_offsets(data):
    """Offsets of every atom's length prefix in canonical ``data``."""
    offsets, pos = [], 0
    while pos < len(data):
        if data[pos] in b"()":
            pos += 1
            continue
        colon = data.index(b":", pos)
        offsets.append(pos)
        pos = colon + 1 + int(data[pos:colon])
    return offsets


def _lists(node, path=()):
    """``(path, list)`` for every list in ``node``, depth first."""
    if isinstance(node, SList):
        yield path, node
        for index, item in enumerate(node.items):
            yield from _lists(item, path + (index,))


def _rebuilt(node, path, change):
    if not path:
        return change(node)
    items = list(node.items)
    items[path[0]] = _rebuilt(items[path[0]], path[1:], change)
    return SList(items)


def _field_mutation(data, draw):
    """Drop, duplicate or swap an item of one list of the proof."""
    root = parse_canonical(data)
    path, target = draw(st.sampled_from(list(_lists(root))))
    if len(target.items) < 2:
        return data
    index = draw(st.integers(1, len(target.items) - 1))
    op = draw(st.sampled_from(["drop", "duplicate", "swap"]))

    def change(node):
        items = list(node.items)
        if op == "drop":
            del items[index]
        elif op == "duplicate":
            items.insert(index, items[index])
        else:
            other = draw(st.integers(1, len(items) - 1))
            items[index], items[other] = items[other], items[index]
        return SList(items)

    return to_canonical(_rebuilt(root, path, change))


@st.composite
def mutated(draw):
    data = draw(readable).canonical()
    kind = draw(st.sampled_from([
        "flip", "leading-zero", "hint", "field", "trailing", "truncate",
        "conclusion", "conclusion-swap",
    ]))
    if kind == "flip":
        pos = draw(st.integers(0, len(data) - 1))
        bit = draw(st.integers(0, 7))
        return data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]
    if kind in ("leading-zero", "hint"):
        pos = draw(st.sampled_from(_prefix_offsets(data)))
        insert = b"0" if kind == "leading-zero" else b"[1:x]"
        return data[:pos] + insert + data[pos:]
    if kind == "field":
        return _field_mutation(data, draw)
    if kind == "trailing":
        return data + draw(st.sampled_from([b")", b"(", b"1:x", b"()", data]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    # The top step's claimed conclusion: one byte of it changed, or the
    # whole of it replaced by another proof's (well-formed, but not what
    # the step derives).
    start = data.rindex(b"(10:conclusion") + len(b"(10:conclusion")
    end = len(data) - 2
    if kind == "conclusion":
        pos = draw(st.integers(start, end - 1))
        return data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:]
    other = draw(readable).conclusion.canonical_key()
    return data[:start] + other + data[end:]


# -- the property -----------------------------------------------------------


def _fields(proof):
    """What two decodes of the same bytes must agree on."""
    seen = [proof.canonical(), proof.conclusion.canonical_key()]
    for lemma in proof.lemmas():
        seen.append((type(lemma), lemma.canonical(),
                     lemma.conclusion.canonical_key()))
        if isinstance(lemma, SignedCertificateStep):
            cert = lemma.certificate
            seen.append((
                cert.issuer_key, cert.subject.canonical_key(),
                cert.tag.canonical_key(), cert.validity, cert.serial,
                cert.propagate, cert.signature, cert.issuer_name,
                cert.issuer_via_hash, cert.body_canonical(),
            ))
    return seen


def _outcome(decode, data):
    try:
        return _fields(decode(data))
    except Exception as exc:  # any refusal counts as one
        return ("raised", type(exc).__name__)


#: What a caller may hand the reader as the chain's subject: nothing,
#: one of the subjects built here, or one decoded from its bytes (as the
#: wire codec decodes a credential's subject).
_GIVEN_SUBJECTS = st.sampled_from(
    [None]
    + _SUBJECTS
    + [principal_from_sexp(parse_canonical(s.canonical_key()))
       for s in _SUBJECTS]
)


def _agree(data, cold, subject=None):
    tree = _outcome(lambda b: proof_from_sexp(parse_canonical(b)), data)
    for given in (None, subject):
        if cold:
            # The reader meets an issuer key and a tag it never decoded
            # (the tree decode above interned them): no intern hit.
            rsa._DECODED_KEYS.clear()
            tag_module._DECODED_TAGS.clear()
        read = _outcome(lambda b: proof_from_canonical(b, None, given), data)
        if tree[0] == "raised":
            assert read[0] == "raised", data
        else:
            assert read == tree, data


@given(honest, st.booleans(), _GIVEN_SUBJECTS)
@settings(max_examples=150, deadline=None)
def test_honest_proofs_read_as_the_tree_decodes_them(proof, cold, subject):
    data = proof.canonical()
    _agree(data, cold, subject)
    registry = MetricsRegistry()
    read = proof_from_canonical(data, registry, subject)
    assert read.canonical() == data
    assert read.conclusion == proof.conclusion
    # A given subject equal to the chain's is the one object it keeps.
    first = next(
        lemma for lemma in read.lemmas()
        if isinstance(lemma, (PremiseStep, SignedCertificateStep))
    )
    if (
        subject == proof.conclusion.subject
        and isinstance(first, SignedCertificateStep)
        and first.certificate.issuer_name is None
        and not registry.counter("core.proofs.reader_declines")
    ):
        assert first.certificate.subject is subject
        assert read.conclusion.subject is subject
    declined = any(
        isinstance(lemma, PremiseStep)
        or (isinstance(lemma, SignedCertificateStep)
            and lemma.certificate.issuer_name is not None)
        for lemma in proof.lemmas()
    )
    assert registry.counter("core.proofs.reader_declines") == int(declined)


@given(mutated(), st.booleans(), _GIVEN_SUBJECTS)
@settings(max_examples=400, deadline=None)
def test_mutated_bytes_are_refused_or_read_as_the_tree_reads_them(
    data, cold, subject
):
    _agree(data, cold, subject)


def test_a_conclusion_the_step_does_not_derive_is_declined():
    """A well-formed conclusion of another proof, in place of the one
    the step derives: the reader declines and the tree path refuses."""
    first = _chain([(0, 0, True, 1)], _SUBJECTS[0], False, False)
    second = _chain([(1, 1, False, 2)], _SUBJECTS[0], False, False)
    data = first.canonical()
    start = data.rindex(b"(10:conclusion") + len(b"(10:conclusion")
    swapped = data[:start] + second.conclusion.canonical_key() + data[-2:]
    registry = MetricsRegistry()
    read = _outcome(lambda b: proof_from_canonical(b, registry), swapped)
    assert read[0] == "raised"
    assert registry.counter("core.proofs.reader_declines") == 1


#: A tag with a display hint in its body, and the claim its hint-less
#: reading would give.
_HINTED_TAGS = [
    # A hinted ``*`` is not ``*``: the tag would read as a plain list and
    # write ``(* foo)``, which does not decode.
    (b"(3:tag([1:x]1:*3:foo))", b"(3:tag(1:*3:foo))"),
    # A dropped hint: the tag would read as ``(foo)`` and match this
    # claim, and the signature be checked over bytes without the hint.
    (b"(3:tag([1:x]3:foo))", b"(3:tag(3:foo))"),
]


def test_a_display_hint_declines():
    """A certificate whose tag carries a display hint, claiming the
    conclusion the hint-less tag would give: the reader declines (a hint
    in a subtree it parses) and the tree path refuses the tag, for both
    forms a hint could take."""
    proof = _chain([(1, 0, True, 3)], _SUBJECTS[0], False, False)
    honest, web = proof.canonical(), b"(3:tag(3:web))"
    assert honest.count(web) == 2
    cert_at, claim_at = honest.index(web), honest.rindex(web)
    for hinted, claimed in _HINTED_TAGS:
        data = (
            honest[:cert_at] + hinted
            + honest[cert_at + len(web):claim_at] + claimed
            + honest[claim_at + len(web):]
        )
        registry = MetricsRegistry()
        read = _outcome(lambda b: proof_from_canonical(b, registry), data)
        assert read == ("raised", "TagError"), hinted
        assert read == _outcome(
            lambda b: proof_from_sexp(parse_canonical(b)), data
        )
        assert registry.counter("core.proofs.reader_declines") == 1
