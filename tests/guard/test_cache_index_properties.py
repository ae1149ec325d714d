"""Differential property test: the proof cache's citation index against
a scan.

Every invalidation hook used to sweep every bucket; it now looks the
named thing up in a ``cited -> speakers`` index.  The reference below is
that sweep, written over a plain model of the cache, and after *every*
step of a random operation sequence the real cache must agree with it:
same return value, same buckets in the same LRU order.  Beside it, the
index invariant that makes the lookup as good as the sweep: a speaker
is listed under a thing exactly while its bucket holds an entry citing
it — so nothing leaks through eviction, ``forget``, or the removal of
one of two siblings citing the same certificate.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.principals import NamePrincipal
from repro.core.statements import SpeaksFor
from repro.guard.cache import CachedProof, ProofCache
from repro.obs import MetricsRegistry
from repro.tags import Tag
from tests.citation_catalogue import (
    A, B, C, D, K, PREMISE_STEPS, PROOFS, SERIALS,
    lemmas_embedded, premises_cited, serials_cited,
)

_SPEAKERS = [None, A, B, C, D]
_PREMISES = [step.conclusion for step in PREMISE_STEPS] + [
    SpeaksFor(D, A, Tag.all())
]
_P1, _P4, _T2 = PROOFS[3], PROOFS[6], PROOFS[8]


def _cites(proof):
    """``{kind: set of things}`` by the scan's own walks."""
    return {
        "serial": serials_cited(proof),
        "lemma": lemmas_embedded(proof),
        "premise": premises_cited(proof),
    }


class _ScanCache:
    """The cache as it was: every hook reads every entry."""

    def __init__(self, max_speakers):
        self.buckets = OrderedDict()
        self.max_speakers = max_speakers

    def place(self, proof, speaker):
        if speaker is None:
            speaker = proof.conclusion.subject
        bucket = self.buckets.get(speaker)
        if bucket is None:
            bucket = self.buckets[speaker] = {}
            while len(self.buckets) > self.max_speakers:
                self.buckets.popitem(last=False)
        else:
            self.buckets.move_to_end(speaker)
        if proof.digest() in bucket:
            return False
        bucket[proof.digest()] = proof
        return True

    def touch(self, speaker):
        if speaker in self.buckets:
            self.buckets.move_to_end(speaker)

    def drop(self, speaker, keys):
        bucket = self.buckets.get(speaker)
        if bucket is None:
            return
        for key in keys:
            bucket.pop(key, None)
        if keys and not bucket:
            del self.buckets[speaker]

    def forget(self, speaker):
        if speaker is None:
            self.buckets.clear()
        else:
            self.buckets.pop(speaker, None)

    def retract(self, kind, cited):
        removed = 0
        for speaker in list(self.buckets):
            bucket = self.buckets[speaker]
            dead = [
                key for key, proof in bucket.items()
                if cited in _cites(proof)[kind]
            ]
            for key in dead:
                del bucket[key]
            removed += len(dead)
            if not bucket:
                del self.buckets[speaker]
        return removed


def _indexes(cache):
    return {
        "serial": cache._by_serial,
        "lemma": cache._by_lemma,
        "premise": cache._by_premise,
    }


def _assert_index_is_exact(cache):
    indexes = _indexes(cache)
    for speaker, bucket in cache.buckets.items():
        for entry in bucket.values():
            for kind, things in _cites(entry.proof).items():
                for cited in things:
                    assert speaker in indexes[kind].holders(cited), (
                        "a live entry is not listed under what it cites"
                    )
    for kind, index in indexes.items():
        for cited in index:
            for speaker in index.holders(cited):
                assert any(
                    cited in _cites(entry.proof)[kind]
                    for entry in cache.buckets.get(speaker, {}).values()
                ), "a listing outlived every entry citing it"
    if not cache.buckets:
        assert [len(index) for index in indexes.values()] == [0, 0, 0]


_proof_ix = st.integers(0, len(PROOFS) - 1)
_speaker = st.sampled_from(_SPEAKERS)

_operation = st.one_of(
    st.tuples(st.just("add"), _proof_ix, _speaker),
    st.tuples(st.just("add_entry"), _proof_ix, _speaker),
    st.tuples(st.just("touch"), st.sampled_from(_SPEAKERS[1:])),
    st.tuples(
        st.just("drop"), st.sampled_from(_SPEAKERS[1:]),
        st.lists(_proof_ix, max_size=3),
    ),
    st.tuples(st.just("forget"), _speaker),
    st.tuples(st.just("retract_serial"), st.sampled_from(SERIALS)),
    st.tuples(st.just("retract_dependents"), _proof_ix),
    st.tuples(st.just("retract_premise"), st.sampled_from(_PREMISES)),
)


@settings(max_examples=200, deadline=None)
@given(
    max_speakers=st.integers(1, 3),
    operations=st.lists(_operation, max_size=30),
)
def test_indexed_purges_match_a_full_sweep(max_speakers, operations):
    cache = ProofCache(max_speakers)
    model = _ScanCache(max_speakers)
    for operation in operations:
        name, args = operation[0], operation[1:]
        if name == "add":
            proof, speaker = PROOFS[args[0]], args[1]
            assert cache.add(proof, speaker) == model.place(proof, speaker)
        elif name == "add_entry":
            proof, speaker = PROOFS[args[0]], args[1]
            got = cache.add(proof, speaker, CachedProof(proof))
            assert got == model.place(proof, speaker)
        elif name == "touch":
            cache.bucket(args[0])
            model.touch(args[0])
        elif name == "drop":
            keys = [PROOFS[index].digest() for index in args[1]]
            cache.drop(args[0], keys)
            model.drop(args[0], keys)
        elif name == "forget":
            cache.forget(args[0])
            model.forget(args[0])
        elif name == "retract_serial":
            got = cache.retract_serial(args[0])
            assert got == model.retract("serial", args[0])
        elif name == "retract_dependents":
            digest = PROOFS[args[0]].digest()
            got = cache.retract_dependents(digest)
            assert got == model.retract("lemma", digest)
        else:
            got = cache.retract_premise(args[0])
            assert got == model.retract("premise", args[0])
        # Same speakers in the same LRU order, same digests under each.
        assert [
            (speaker, list(bucket)) for speaker, bucket in cache.buckets.items()
        ] == [
            (speaker, list(bucket)) for speaker, bucket in model.buckets.items()
        ]
        _assert_index_is_exact(cache)


def test_a_purge_reads_only_the_buckets_that_cite_the_thing():
    """The point of the index, as a count: with the same victim beside
    8 and beside 64 bystander speakers, a purge examines the victim's
    bucket and nothing else."""
    for bystanders in (8, 64):
        cache = ProofCache()
        cache.metrics = MetricsRegistry()
        for index in range(bystanders):
            cache.add(_P1, NamePrincipal(K, "bystander-%d" % index))
        cache.add(_T2, C)
        cache.add(_P4, C)
        assert cache.retract_serial(SERIALS[0]) == 1
        assert cache.metrics.counter("guard.cache.retract_examined") == 2
        assert cache.count() == bystanders + 1
