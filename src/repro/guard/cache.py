"""The digest-deduped, speaker-LRU proof cache — one policy for every
transport.

Before the guard existed the repo grew three separate caches (the RMI
server's proof cache, the HTTP servlet's private copy of it, and the MAC
session table).  They are unified here: verified speaks-for
proofs keyed by the speaker principal, each speaker holding a bucket
keyed by the proof's canonical digest, with the speaker set LRU-bounded.

The digest keying makes repeated submissions of the same proof free
instead of growing the bucket; the LRU bound matters because the HTTP
Snowflake path mints a fresh hash-principal speaker per request, so an
unbounded cache would grow by one entry per request for the life of the
server.

Each entry memoizes the proof's premise leaves so a cache hit can
re-validate cheaply (Section 7.2's "sees that the proof has already been
verified"): signatures are immutable once verified, so only the
environment-dependent parts — premise vouching and validity windows —
need re-checking per hit.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Dict, Iterable, Optional

from repro.core.errors import AuthorizationError
from repro.core.proofs import CitationIndex, Proof, proof_citations
from repro.core.statements import SpeaksFor, Statement
from repro.obs.registry import default_registry


class CachedProof:
    """A verified proof plus the facts it leans on.

    Besides the premise statements (re-checked per hit), each entry
    keeps its constituent lemma digests and certificate serials: the
    cache lists the entry's speaker under each of them, and an
    invalidation event — a retracted delegation, a revoked certificate —
    re-reads them on the few buckets that listing names.
    """

    __slots__ = ("proof", "premises", "lemma_keys", "serials")

    def __init__(self, proof: Proof):
        self.proof = proof
        # Three tuples, built once: the index makes sets unnecessary.
        self.serials, self.lemma_keys, self.premises = proof_citations(proof)


_SERIALS = attrgetter("serials")
_LEMMA_KEYS = attrgetter("lemma_keys")
_PREMISES = attrgetter("premises")


class ProofCache:
    """speaker -> {proof digest -> cached proof}, speaker-LRU-bounded."""

    def __init__(self, max_speakers: int = 4096):
        self._buckets: "OrderedDict[object, Dict[bytes, CachedProof]]" = (
            OrderedDict()
        )
        # cited thing -> the speakers whose bucket holds an entry citing
        # it, one index per kind of invalidation event (see the hooks).
        self._by_serial = CitationIndex()
        self._by_lemma = CitationIndex()
        self._by_premise = CitationIndex()
        self._citing = (
            (self._by_serial, _SERIALS),
            (self._by_lemma, _LEMMA_KEYS),
            (self._by_premise, _PREMISES),
        )
        self.max_speakers = max_speakers
        self.metrics = default_registry()  # a guard points it at its own

    def add(self, proof: Proof, speaker=None,
            entry: Optional[CachedProof] = None) -> bool:
        """Cache a verified proof for ``speaker`` (defaults to the proof's
        own subject).  Returns False if an identical proof was already
        cached — the memoized canonical digest makes the dedup a dict
        lookup, not a re-serialization.  ``entry`` is the proof's
        :class:`CachedProof` when the caller already built it (the
        guard reads its citations before verifying).

        The one way in: find or open the speaker's bucket, dedup on the
        digest, list the speaker under everything the entry cites, then
        age out the oldest speakers past the bound."""
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            raise AuthorizationError("cached proofs must conclude speaks-for")
        if speaker is None:
            speaker = conclusion.subject
        bucket = self._buckets.get(speaker)
        if bucket is None:
            bucket = self._buckets[speaker] = {}
        else:
            self._buckets.move_to_end(speaker)
        key = proof.digest()
        if key in bucket:
            self.metrics.inc("guard.cache.dedup_hits")
            return False
        if entry is None:
            entry = CachedProof(proof)
        bucket[key] = entry
        for index, cites in self._citing:
            for cited in cites(entry):
                index.add(cited, speaker)
        self.metrics.inc("guard.cache.insertions")
        while len(self._buckets) > self.max_speakers:
            oldest, aged = self._buckets.popitem(last=False)
            self._unlist(oldest, aged.values(), ())
            self.metrics.inc("guard.cache.evictions")
        return True

    def lookup(self, speaker, digest: bytes) -> Optional[CachedProof]:
        """The entry cached for ``speaker`` under ``digest``, touching the
        LRU, or ``None``.  A hit is a presented proof the cache already
        holds, so it counts in ``guard.cache.dedup_hits`` exactly as the
        duplicate ``add`` it replaces would have."""
        entry = self.bucket(speaker).get(digest)
        if entry is not None:
            self.metrics.inc("guard.cache.dedup_hits")
        return entry

    def _unlist(self, speaker, gone, kept) -> None:
        """The one way out of the index: ``gone`` entries just left
        ``speaker``'s bucket and ``kept`` are the ones still in it.  The
        speaker stays listed under whatever a kept sibling also cites."""
        for index, cites in self._citing:
            for entry in gone:
                for cited in cites(entry):
                    for other in kept:
                        if cited in cites(other):
                            break
                    else:
                        index.discard(cited, speaker)

    def _remove(self, speaker, bucket, keys) -> int:
        """Take ``keys`` out of ``speaker``'s bucket (and the bucket out
        of the map once empty); returns how many were there."""
        gone = [bucket.pop(key) for key in keys if key in bucket]
        if gone:
            self._unlist(speaker, gone, bucket.values())
            if not bucket:
                del self._buckets[speaker]
        return len(gone)

    def bucket(self, speaker) -> Dict[bytes, CachedProof]:
        """The speaker's proofs (touching the LRU), or an empty dict.

        Re-queried speakers (RMI channels, MAC sessions) stay hot in the
        speaker LRU; one-shot request-hash speakers age out.
        """
        bucket = self._buckets.get(speaker)
        if bucket is None:
            return {}
        self._buckets.move_to_end(speaker)
        return bucket

    def drop(self, speaker, keys: Iterable[bytes]) -> None:
        """Retract lapsed entries discovered during a lookup."""
        keys = list(keys)
        if not keys:
            return
        bucket = self._buckets.get(speaker)
        if bucket is None:
            return
        self._remove(speaker, bucket, keys)

    # -- invalidation-event hooks ------------------------------------------
    #
    # Each hook retracts every entry citing the thing the event names and
    # returns the number removed.  The invariant that makes a lookup as
    # good as a sweep: a speaker is listed under a thing exactly while
    # its bucket holds an entry citing it — ``add`` lists, ``_unlist``
    # is the only way a listing goes, and every removal (drop, retract,
    # LRU eviction, forget) passes through it.  The listing is a hint,
    # never a decision: the event's predicate is re-read on each entry of
    # the buckets found, so a purge costs what cites the thing, not what
    # the cache holds.

    def _retract_citing(self, index: CitationIndex, cites, cited) -> int:
        removed = examined = 0
        for speaker in index.holders(cited):
            bucket = self._buckets[speaker]
            examined += len(bucket)
            removed += self._remove(speaker, bucket, [
                key for key, entry in bucket.items() if cited in cites(entry)
            ])
        self.metrics.inc("guard.cache.retract_examined", examined)
        self.metrics.inc("guard.cache.invalidations", removed)
        return removed

    def retract_serial(self, serial: bytes) -> int:
        """Drop every cached proof citing the certificate with ``serial``
        (a revocation kills each chain that certificate justified)."""
        return self._retract_citing(self._by_serial, _SERIALS, serial)

    def retract_dependents(self, digest: bytes) -> int:
        """Drop every cached proof embedding the lemma with ``digest``
        (a retracted delegation kills each chain built on it)."""
        return self._retract_citing(self._by_lemma, _LEMMA_KEYS, digest)

    def retract_premise(self, statement: Statement) -> int:
        """Drop every cached proof leaning on ``statement`` (a closed
        channel kills each chain its binding vouched for)."""
        return self._retract_citing(self._by_premise, _PREMISES, statement)

    def forget(self, speaker=None) -> None:
        if speaker is None:
            self._buckets.clear()
            for index, _ in self._citing:
                index.clear()
            return
        bucket = self._buckets.pop(speaker, None)
        if bucket is not None:
            self._unlist(speaker, bucket.values(), ())

    def count(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __len__(self) -> int:
        return len(self._buckets)

    @property
    def buckets(self) -> "OrderedDict[object, Dict[bytes, CachedProof]]":
        """The raw speaker map (introspection and tests)."""
        return self._buckets
