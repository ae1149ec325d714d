"""Question-memo decode, gated on counts that repeat exactly.

A seeded tape shaped like deployment traffic — 256 sessions of zipf(1.1)
popularity asking 64 paths of one issuer, a unique id per frame — goes
through ``DecodeCache``.  Three things are counted, none with a clock,
so none needs a noise margin:

- question hits: every frame but each question's first sighting, since
  the MAC tag makes frames unique but not what they ask;
- the bytes handed to ``parse_canonical``: a question's fields on its
  first sighting, and nothing after it — the credential is read by its
  length prefixes, with no tree;
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
    """Run ``frames`` through ``decode``; returns the commands and the
    byte count the codec handed to ``parse_canonical`` for each frame."""
    handed = []
    parse = protocol.parse_canonical

    def counting(data):
        handed[-1] += len(data)
        return parse(data)

    commands = []
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "parse_canonical", counting)
        for frame in frames:
            handed.append(0)
            commands.append(decode(frame))
    return commands, handed


def test_a_question_is_parsed_once_and_shared(keypool, monkeypatch):
    frames = _tape(keypool)
    reference, full_bytes = _parsed_bytes(monkeypatch, decode_command, frames)
    assert full_bytes == list(map(len, frames))
    cache = DecodeCache()
    commands, cache_bytes = _parsed_bytes(monkeypatch, cache.decode, frames)
    assert [c.request_id for c in commands] == list(range(1, FRAMES + 1))
    for got, want in zip(commands, reference):
        assert encode_check(got.request_id, got.body) == encode_check(
            want.request_id, want.body
        )

    # Transport and issuer are the same on every frame: a question is
    # its path.
    asked = set()
    first_sightings = set()
    for index, command in enumerate(commands):
        question = to_canonical(command.body.logical)
        if question not in asked:
            asked.add(question)
            first_sightings.add(index)
    print(
        "\n%d frames, %d distinct questions: %d question hits; "
        "parse_canonical took %d B through DecodeCache (all on first "
        "sightings), %d B decoding every frame in full"
        % (FRAMES, len(asked), cache.hits, sum(cache_bytes),
           sum(full_bytes))
    )
    assert len(asked) == PATHS
    assert cache.hits == FRAMES - PATHS
    assert cache.misses == PATHS
    assert all(
        count == 0
        for index, count in enumerate(cache_bytes)
        if index not in first_sightings
    )

    logicals = {id(c.body.logical): c.body.logical for c in commands}
    issuers = {id(c.body.issuer) for c in commands}
    assert len(logicals) == len(set(logicals.values())) == PATHS
    assert len(issuers) == 1
