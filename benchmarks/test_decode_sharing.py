"""Field-granular decode, gated on counts that repeat exactly.

A seeded tape shaped like deployment traffic — 256 sessions of zipf(1.1)
popularity asking 64 paths of one issuer, a unique id per frame — goes
through ``DecodeCache``.  Two things are counted, neither with a clock,
so neither needs a noise margin:

- the bytes handed to ``parse_canonical``: a whole-request LRU alone
  re-parses every byte of every frame it misses; with the field memo a
  miss parses only the fields that are new (the credential);
- the distinct ``logical`` / ``issuer`` objects the decoded requests
  hold: one per distinct value, however many sessions ask.
"""

import random
from bisect import bisect_right
from itertools import accumulate

from repro.core.principals import KeyPrincipal
from repro.guard import GuardRequest, SessionCredential
from repro.serve import protocol
from repro.serve.protocol import DecodeCache, decode_command, encode_check
from repro.sexp import sexp, to_canonical

FRAMES = 4096
SESSIONS = 256
PATHS = 64
ZIPF_S = 1.1


def _tape(keypool):
    rng = random.Random(0xDEC0DE)
    issuer = KeyPrincipal(keypool[0].public)
    logicals = [
        sexp(["web", ["method", "GET"], ["path", "/doc-%d" % path]])
        for path in range(PATHS)
    ]
    sessions = ["%064x" % rng.getrandbits(256) for _ in range(SESSIONS)]
    zipf = list(accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(SESSIONS)
    ))
    templates = {}
    frames = []
    for request_id in range(1, FRAMES + 1):
        session = bisect_right(zipf, rng.random() * zipf[-1])
        path = rng.randrange(PATHS)
        request = templates.get((session, path))
        if request is None:
            message = to_canonical(logicals[path])
            request = templates[session, path] = GuardRequest(
                logicals[path],
                issuer=issuer,
                credential=SessionCredential(
                    sessions[session], rng.randbytes(20), message
                ),
                transport="http",
            )
        frames.append(encode_check(request_id, request))
    return frames


def _parsed_bytes(monkeypatch, decode, frames):
    """Run ``frames`` through ``decode``; returns the commands and how
    many bytes the codec handed to ``parse_canonical`` on the way."""
    handed = []
    parse = protocol.parse_canonical

    def counting(data):
        handed.append(len(data))
        return parse(data)

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "parse_canonical", counting)
        commands = [decode(frame) for frame in frames]
    return commands, sum(handed)


def test_a_miss_parses_what_changed_and_shares_what_repeats(
    keypool, monkeypatch
):
    frames = _tape(keypool)
    reference, full_bytes = _parsed_bytes(monkeypatch, decode_command, frames)
    assert full_bytes == sum(map(len, frames))
    cache = DecodeCache()
    commands, cache_bytes = _parsed_bytes(monkeypatch, cache.decode, frames)
    assert [c.request_id for c in commands] == list(range(1, FRAMES + 1))
    for got, want in zip(commands, reference):
        assert encode_check(got.request_id, got.body) == encode_check(
            want.request_id, want.body
        )

    print(
        "\n%d frames, LRU hit ratio %.2f: parse_canonical took %.0f B/frame "
        "through DecodeCache, %.0f B/frame decoding every frame in full, "
        "%.0f B/frame re-parsing every LRU miss in full"
        % (FRAMES, cache.hits / FRAMES, cache_bytes / FRAMES,
           full_bytes / FRAMES, full_bytes / FRAMES * cache.misses / FRAMES)
    )
    # The traffic is deployment-like, not byte-identical frames: the
    # whole-request LRU misses about as often as it hits.
    assert 0.3 < cache.hits / FRAMES < 0.7
    assert cache_bytes * 2 <= full_bytes

    logicals = {id(c.body.logical): c.body.logical for c in commands}
    issuers = {id(c.body.issuer) for c in commands}
    assert len(logicals) == len(set(logicals.values())) == PATHS
    assert len(issuers) == 1
