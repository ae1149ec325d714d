"""Differential properties of the decode fast path.

``decode_command`` (parse the whole frame, walk the tree) is the
reference; ``DecodeCache.decode`` — question memo, field memo, the
length-prefix credential readers — must be indistinguishable from it on
every input: equal request fields, or the same exception type, and that
type only ever ``WireError``.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.crypto.hashes import HashValue
from repro.guard import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.serve.protocol import (
    DecodeCache,
    WireError,
    decode_command,
    encode_check,
    guard_request_to_sexp,
)
from repro.sexp import Atom, SList, to_canonical
from repro.tags import Tag, parse_tag

# Small pools, so the frames of one example share field values the way
# real traffic does (and the memo has something to hit).
_ATOMS = st.one_of(
    st.sampled_from([b"web", b"GET", b"/doc-1", b"/doc-2", b""]).map(Atom),
    st.binary(max_size=8).map(Atom),
    # A display hint is legal canonical form the byte path does not
    # read: those frames must fall back, not differ.
    st.binary(max_size=4).map(lambda value: Atom(value, hint=b"text/x")),
)
_LOGICALS = st.recursive(
    _ATOMS,
    lambda children: st.lists(children, max_size=3).map(SList),
    max_leaves=6,
)
_HASHES = st.sampled_from([b"alice", b"bob"]).map(
    lambda seed: HashPrincipal(HashValue.of_bytes(seed))
)
_TAGS = st.sampled_from([
    Tag.all(), parse_tag("(tag (web))"),
    parse_tag("(tag (web (method GET)))"),
])
_TEXT = st.sampled_from(["http", "serve", "smtp", "é"])
_TRACES = st.sampled_from(["00ff", "deadbeefdeadbeef", "é0"])
# Non-ASCII ids are valid UTF-8 the length-prefix reader declines.
_SESSION_IDS = st.sampled_from(["s-1", "s-2", "é", ""])


def _tree(item):
    if isinstance(item, list):
        return SList([_tree(child) for child in item])
    return Atom(item)


# Credential fields that are not what a well-formed client sends: a
# session list one atom short or long, a list where an atom belongs, a
# subject field of the wrong shape, a proof with a second wire, an id
# that is not UTF-8.
_NEAR_MISS_CREDENTIALS = st.sampled_from([
    ["session", "s-1", "t"],
    ["session", "s-1", "t", "m", "p", "extra"],
    ["session", "s-1", ["t"], "m"],
    ["proof", "w", ["subject"]],
    ["proof", "w", "w2"],
    ["proof", ["w"]],
    ["session", b"\xff", "t", "m"],
]).map(lambda items: SList([Atom("credential"), _tree(items)]))


def _principals(keypool):
    return st.one_of(
        _HASHES, st.sampled_from(keypool[:2]).map(
            lambda pair: KeyPrincipal(pair.public)
        ),
    )


def _credentials(keypool):
    return st.one_of(
        st.none(),
        _principals(keypool).map(ChannelCredential),
        st.builds(
            SessionCredential,
            _SESSION_IDS,
            st.binary(max_size=6),
            st.binary(max_size=12),
            proof_wire=st.none() | st.binary(max_size=6),
        ),
        st.builds(
            lambda subject, wire: ProofCredential(subject, wire=wire),
            st.none() | _HASHES,
            st.binary(max_size=12),
        ),
    )


def _requests(keypool):
    return st.builds(
        GuardRequest,
        _LOGICALS,
        issuer=st.none() | _principals(keypool),
        min_tag=st.none() | _TAGS,
        credential=_credentials(keypool),
        transport=_TEXT,
        trace=st.none() | _TRACES,
    )


@st.composite
def _payloads(draw, keypool):
    """1–5 check frames, plus up to 3 that ask an earlier frame's
    question with another credential and trace (a question-memo hit with
    a new tail); some carry a malformed credential, repeat a field (the
    last occurrence wins) or borrow one from a sibling frame."""
    requests = draw(st.lists(_requests(keypool), min_size=1, max_size=5))
    for asked, credential, trace in draw(st.lists(
        st.tuples(
            st.sampled_from(requests), _credentials(keypool),
            st.none() | _TRACES,
        ),
        max_size=3,
    )):
        requests.append(GuardRequest(
            asked.logical, issuer=asked.issuer, min_tag=asked.min_tag,
            credential=credential, transport=asked.transport, trace=trace,
        ))
    trees = [list(guard_request_to_sexp(r).items) for r in requests]
    payloads = []
    for items in trees:
        near_miss = draw(st.none() | _NEAR_MISS_CREDENTIALS)
        if near_miss is not None:
            # In the credential's own place, where the length-prefix
            # readers look: after the question, before any trace.
            fields = items[1:]
            items = (
                items[:1]
                + [f for f in fields if f.head() not in ("credential", "trace")]
                + [near_miss]
                + [f for f in fields if f.head() == "trace"]
            )
        extras = draw(st.lists(
            st.sampled_from([f for tree in trees for f in tree[1:]]),
            max_size=2,
        ))
        payloads.append(to_canonical(SList([
            Atom("check"), Atom(str(draw(st.integers(0, 10 ** 6)))),
            SList(items + extras),
        ])))
    return payloads


def _mutate(draw, payload: bytes) -> bytes:
    kind = draw(st.sampled_from(["flip", "drop", "insert", "cut"]))
    at = draw(st.integers(0, len(payload) - 1))
    if kind == "flip":
        flipped = bytes([draw(st.integers(0, 255))])
        return payload[:at] + flipped + payload[at + 1:]
    if kind == "drop":
        return payload[:at] + payload[at + 1:]
    if kind == "insert":
        return payload[:at] + draw(st.sampled_from(
            [b"(", b")", b"0", b"9", b":", b"[", b"+", b"_", b" "]
        )) + payload[at:]
    return payload[:at]


def _outcome(decode, payload):
    """What a decoder made of ``payload``, in comparable form: the
    command re-encoded (canonical form is injective, so equal bytes are
    equal fields), or the exception type."""
    try:
        command = decode(payload)
    except WireError:
        return WireError
    if command.op != "check":
        return (command.op, command.request_id, command.body)
    return (
        command.request_id, encode_check(command.request_id, command.body)
    )


def _assert_cache_agrees(payloads):
    reference = [_outcome(decode_command, payload) for payload in payloads]
    for payload, expected in zip(payloads, reference):
        assert _outcome(DecodeCache().decode, payload) == expected
    # One cache for the whole list: on the first pass the memos fill as
    # they go, on the second every question that decoded is a hit.
    warm = DecodeCache()
    for payload, expected in list(zip(payloads, reference)) * 2:
        assert _outcome(warm.decode, payload) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cache_agrees_with_the_full_decoder(keypool, data):
    _assert_cache_agrees(data.draw(_payloads(keypool)))


#: A mutant this property once found only by chance: a key's ``(n)``
#: field lost its value, and both decoders raised ``IndexError``.
HOSTILE_KEY_FRAME = (
    b"(5:check1:1(7:request(7:logical3:web)(10:credential(7:channel"
    b"(10:public-key(3:rsa(1:e3:\x01\x00\x01)(1:n)))))))"
)


#: A trace atom whose length swallows the request's own ")": the frame
#: is one ")" short, so ``decode_command`` raises, but a reader that
#: checks only for a ")" after the atom decodes it.  Pinned bare, and
#: after a well-formed frame that memoises its question, so the
#: credential reader meets it on a question hit.
TRACE_SWALLOWS_CLOSE = (
    b"(5:check1:0(7:request(9:transport4:http)(7:logical3:web)"
    b"(9:transport4:http)(5:trace4:0ff)))"
)
QUESTION_THEN_SWALLOWED_CLOSE = (
    b"(5:check1:1(7:request(9:transport4:http)(7:logical3:web)"
    b"(10:credential(5:proof1:x))(5:trace3:0ff)))",
    b"(5:check1:2(7:request(9:transport4:http)(7:logical3:web)"
    b"(10:credential(5:proof1:x))(5:trace4:0ff)))",
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pinned=st.just(()))
@example(data=None, pinned=(HOSTILE_KEY_FRAME,))
@example(data=None, pinned=(TRACE_SWALLOWS_CLOSE,))
@example(data=None, pinned=QUESTION_THEN_SWALLOWED_CLOSE)
def test_cache_agrees_on_mutated_frames(keypool, data, pinned):
    """Drawn frames each followed by a mutant; an explicit example
    checks its ``pinned`` frames instead."""
    mutated = list(pinned)
    if data is not None:
        for payload in data.draw(_payloads(keypool)):
            mutated.append(payload)       # warms the memo for its mutant
            mutated.append(_mutate(data.draw, payload))
    _assert_cache_agrees(mutated)
