"""The client's reply decoder on hostile bytes, and the stats value codec.

``ServeClient.data_received`` catches ``WireError`` and nothing else:
any other exception a reply's bytes raise escapes the protocol callback
and hands the waiting callers something they were not promised.  So
arbitrary bytes, reply-shaped trees whose fields have the wrong type,
and mutants of every reply the server emits must each decode or raise
``WireError`` — through the parser and through the learned-OK byte
path alike.  The ``(stats)`` value codec round-trips JSON-shaped values.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.principals import HashPrincipal, KeyPrincipal
from repro.crypto.hashes import HashValue
from repro.serve.protocol import (
    CHALLENGE,
    DENIED,
    ERROR,
    OK,
    PONG,
    PROOF_OK,
    RETRY,
    STATS_OK,
    Reply,
    WireError,
    decode_reply,
    encode_reply,
    value_from_sexp,
    value_to_sexp,
)
from repro.sexp import Atom, SList, parse_canonical, to_canonical
from repro.tags import Tag, parse_tag

from tests.serve.test_decode_properties import _mutate

STATUSES = [OK, CHALLENGE, DENIED, RETRY, ERROR, PROOF_OK, PONG, STATS_OK]

#: Every name a reply field or a tagged value can start with.
_HEADS = [
    "via", "stage", "issuer", "tag", "uptime", "nil", "true", "false",
    "int", "num", "str", "vec", "map", "hash", "public-key", "*",
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

_ATOMS = st.one_of(
    st.sampled_from(_HEADS + STATUSES + ["1", "1.5", "-3"]).map(Atom),
    st.binary(max_size=6).map(Atom),
    st.just(Atom(b"\xff")),
)


#: Small s-expressions, heavy on the names the decoder dispatches on.
_TREES = st.recursive(
    _ATOMS,
    lambda children: st.lists(children, max_size=4).map(SList),
    max_leaves=8,
)


@st.composite
def _reply_shaped(draw):
    """``(<status> <id> <field>...)`` with arbitrary fields."""
    items = [
        Atom(draw(st.sampled_from(STATUSES))),
        Atom(str(draw(st.integers(0, 10 ** 6)))),
    ]
    items += draw(st.lists(_TREES, max_size=3))
    return to_canonical(SList(items))


def _replies(keypool):
    """Every reply kind the server emits, with drawn contents."""
    text = st.text(max_size=8)
    issuers = st.one_of(
        st.sampled_from(keypool[:2]).map(lambda pair: KeyPrincipal(pair.public)),
        st.binary(max_size=4).map(
            lambda seed: HashPrincipal(HashValue.of_bytes(seed))
        ),
    )
    tags = st.sampled_from([Tag.all(), parse_tag("(tag (web))")])
    ids = st.integers(0, 10 ** 6)
    return st.one_of(
        st.builds(lambda i, via, stage: Reply(OK, i, via=via, stage=stage),
                  ids, text, text),
        st.builds(lambda i, issuer, tag: Reply(CHALLENGE, i, issuer=issuer,
                                               tag=tag),
                  ids, issuers, st.none() | tags),
        st.builds(lambda status, i, message: Reply(status, i, message=message),
                  st.sampled_from([DENIED, RETRY, ERROR]), ids, text),
        st.builds(lambda i: Reply(PROOF_OK, i), ids),
        st.builds(lambda i, uptime: Reply(PONG, i, uptime=uptime), ids,
                  st.none() | st.floats(0, 1e6)),
        st.builds(lambda i, data: Reply(STATS_OK, i, data=data), ids, _JSON),
    )


def _decodes_or_refuses(payload: bytes) -> None:
    try:
        decode_reply(payload)
    except WireError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | _reply_shaped())
def test_arbitrary_reply_bytes_only_raise_wire_error(payload):
    _decodes_or_refuses(payload)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_replies_only_raise_wire_error(keypool, data):
    """A reply decodes; its mutant decodes or is refused.  An OK reply
    first teaches the learned-OK byte path its tail, so the mutant of a
    granted reply is also tried against the sliced path."""
    payload = encode_reply(data.draw(_replies(keypool)))
    decode_reply(payload)
    _decodes_or_refuses(_mutate(data.draw, payload))


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_value_codec_round_trips_json_shaped_values(value):
    node = parse_canonical(to_canonical(value_to_sexp(value)))
    decoded = value_from_sexp(node)
    assert json.dumps(decoded, sort_keys=True) == json.dumps(
        value, sort_keys=True
    )
    reply = decode_reply(encode_reply(Reply(STATS_OK, 1, data=value)))
    assert json.dumps(reply.data, sort_keys=True) == json.dumps(
        value, sort_keys=True
    )
