"""Warm shard handoff: planned topology changes without re-derivation storms.

A cold ``leave()`` is *correct* — every grant is re-derivable from first
principles, so successors re-prove and re-mint on first miss — but it is
not *free*: each inherited speaker pays a full Prover search plus real
signature verification before its first post-leave grant.  This module
makes a planned departure cost ~zero re-derivations: the draining node
enumerates its warm state (proof-cache entries, MAC sessions, channel
bindings), encodes each item as a serializable :class:`HandoffRecord`,
and streams the records to the ring successors that will inherit each
shard.

The safety argument is the guard's, not ours: **a handed-off proof is
never a handed-off decision**.  Every record is re-admitted through the
receiving guard's import hooks, which re-validate against the receiver's
own premise snapshot, clock, and invalidation tombstones — and when the
cluster's invalidation generation moved between export and install, the
whole tree is re-verified.  State revoked, retracted, closed, or lapsed
in transit is refused at install, and the next check for it takes the
full Prover path.

This module deliberately speaks only the guard's export/import surface
(plus the core codecs): it never imports the prover or the cache types
directly, so the transport-boundary lint (ARCH002) holds for the handoff
plane exactly as it does for the serving plane.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster.membership import UP
from repro.cluster.ring import (
    GuardNode,
    principal_fingerprint,
    session_routing_key,
)
from repro.core.principals import MacPrincipal, principal_from_sexp
from repro.core.proofs import (
    Proof,
    ProofError,
    proof_from_sexp,
    proof_to_lemma_sexp,
)
from repro.core.statements import SpeaksFor, statement_from_sexp
from repro.crypto.mac import MacKey
from repro.sexp import Atom, SExp, SList, parse_canonical, to_canonical

#: Record kinds, in install order: channel bindings must be vouched
#: before the cached chains leaning on them re-validate their premises.
KINDS = ("channel", "session", "proof")

#: Install-order rank per kind (see KINDS).
_KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


def shard_key_for(speaker) -> bytes:
    """The ring key a speaker's warm state routes by — which must agree
    with how the speaker's *requests* route, or a handoff would warm the
    wrong successor.  MAC principals route by session id (as their
    requests do); everything else by principal fingerprint."""
    if isinstance(speaker, MacPrincipal):
        return session_routing_key(speaker.mac_id.digest.hex())
    return principal_fingerprint(speaker)


def _format_stamp(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class HandoffRecord:
    """One serializable unit of warm state.

    ``kind`` is one of :data:`KINDS`; ``generation`` is the cluster-wide
    invalidation generation at export time (the receiver compares it to
    its own and escalates to full re-verification on mismatch);
    ``payload`` is kind-shaped: a :class:`Proof` for ``proof``, a
    ``(mac_id, MacKey, minted_at)`` triple for ``session``, a
    :class:`SpeaksFor` binding for ``channel``.  ``proof`` records also
    carry the exporting bucket's speaker (a MAC session's cache bucket is
    keyed by the MAC principal, not the chain subject).

    ``cite`` (never serialized) is the sender-side lemma predicate: when
    set, proof payloads are encoded with
    :func:`~repro.core.proofs.proof_to_lemma_sexp`, so subtrees the
    receiver already holds (base delegations replicated cluster-wide,
    plus subproofs delivered earlier in the same stream) travel as
    ``(lemma <digest>)`` stubs instead of full subtrees.  The
    ``digest`` field always names the *full* form, so the receiver's
    resolved reconstruction is integrity-checked end to end.
    """

    __slots__ = ("kind", "generation", "speaker", "payload", "cite")

    def __init__(self, kind: str, generation: int, payload, speaker=None,
                 cite=None):
        if kind not in KINDS:
            raise ValueError("unknown handoff record kind %r" % kind)
        self.kind = kind
        self.generation = generation
        self.speaker = speaker
        self.payload = payload
        self.cite = cite

    # -- codec ---------------------------------------------------------

    def to_sexp(self) -> SExp:
        items = [
            Atom("handoff"),
            SList([Atom("kind"), Atom(self.kind)]),
            SList([Atom("generation"), Atom(str(self.generation))]),
        ]
        if self.speaker is not None:
            items.append(SList([Atom("speaker"), self.speaker.to_sexp()]))
        if self.kind == "proof":
            proof: Proof = self.payload
            items.append(SList([Atom("digest"), Atom(proof.digest())]))
            body = (
                proof_to_lemma_sexp(proof, self.cite)
                if self.cite is not None
                else proof.to_sexp()
            )
            items.append(SList([Atom("payload"), body]))
        elif self.kind == "session":
            mac_id, mac_key, minted_at = self.payload
            items.append(
                SList([
                    Atom("payload"),
                    Atom(mac_id),
                    Atom(mac_key.secret),
                    Atom(_format_stamp(minted_at)),
                ])
            )
        else:  # channel
            items.append(SList([Atom("payload"), self.payload.to_sexp()]))
        return SList(items)

    def to_wire(self) -> bytes:
        return to_canonical(self.to_sexp())

    @classmethod
    def from_sexp(cls, node: SExp, lemmas=None) -> "HandoffRecord":
        if not isinstance(node, SList) or node.head() != "handoff":
            raise ValueError("expected (handoff ...), got %r" % (node,))
        fields: Dict[str, SExp] = {}
        for field in node.tail():
            if not isinstance(field, SList) or len(field) < 2:
                raise ValueError("bad handoff field %r" % (field,))
            fields[field.head()] = field
        kind = fields["kind"].items[1].text()
        generation = int(fields["generation"].items[1].text())
        speaker = None
        if "speaker" in fields:
            speaker = principal_from_sexp(fields["speaker"].items[1])
        payload_field = fields["payload"]
        if kind == "proof":
            proof = proof_from_sexp(payload_field.items[1], lemmas=lemmas)
            declared = fields["digest"].items[1].value
            if proof.digest() != declared:
                raise ValueError("handoff record digest mismatch")
            payload = proof
        elif kind == "session":
            if len(payload_field) != 4:
                raise ValueError("bad session payload %r" % (payload_field,))
            payload = (
                payload_field.items[1].text(),
                MacKey(payload_field.items[2].value),
                float(payload_field.items[3].text()),
            )
        elif kind == "channel":
            premise = statement_from_sexp(payload_field.items[1])
            if not isinstance(premise, SpeaksFor):
                raise ValueError("channel records carry speaks-for bindings")
            payload = premise
        else:
            raise ValueError("unknown handoff record kind %r" % kind)
        return cls(kind, generation, payload, speaker=speaker)

    @classmethod
    def from_wire(cls, wire: bytes, lemmas=None) -> "HandoffRecord":
        return cls.from_sexp(parse_canonical(wire), lemmas=lemmas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HandoffRecord(%s gen=%d)" % (self.kind, self.generation)


class _StreamCiter:
    """The sender half of a stream's shared proof dictionary.

    A premise is citable when the receiver is guaranteed to hold it:
    base delegations replicated cluster-wide (``replicated``), plus any
    subproof of a record already decoded earlier in *this* stream —
    streams install in order, so the shared spine of a working set
    (e.g. the common upper hops of every session's chain) travels once
    and is a ``(lemma <digest>)`` stub in every later record."""

    __slots__ = ("replicated", "sent")

    def __init__(self, replicated):
        self.replicated = replicated
        self.sent = set()

    def __call__(self, proof: Proof) -> bool:
        return proof.digest() in self.sent or self.replicated(proof)

    def register(self, proof: Proof) -> None:
        for lemma in proof.lemmas():
            self.sent.add(lemma.digest())


class _StreamResolver:
    """The receiver half: resolve citations against the node's own
    trusted graph, or against subproofs this stream already delivered
    (each was digest-checked when its record decoded)."""

    __slots__ = ("resolve", "seen")

    def __init__(self, resolve):
        self.resolve = resolve
        self.seen: Dict[bytes, Proof] = {}

    def __call__(self, digest: bytes) -> Optional[Proof]:
        proof = self.seen.get(digest)
        return proof if proof is not None else self.resolve(digest)

    def register(self, proof: Proof) -> None:
        for lemma in proof.lemmas():
            self.seen[lemma.digest()] = lemma


class DrainReport:
    """What one planned departure transferred, and how long it took."""

    __slots__ = (
        "node_id", "offered", "installed", "refused", "duplicates",
        "successors", "duration_ms",
    )

    def __init__(self, node_id: str, offered: int, installed: int,
                 refused: int, duplicates: int, successors: List[str],
                 duration_ms: float):
        self.node_id = node_id
        self.offered = offered
        self.installed = installed
        self.refused = refused
        self.duplicates = duplicates
        self.successors = successors
        self.duration_ms = duration_ms

    def as_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "offered": self.offered,
            "installed": self.installed,
            "refused": self.refused,
            "duplicates": self.duplicates,
            "successors": list(self.successors),
            "duration_ms": self.duration_ms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DrainReport(%s %d/%d in %.1fms)" % (
            self.node_id, self.installed, self.offered, self.duration_ms,
        )


class HandoffCoordinator:
    """The cluster's handoff plane: export, stream, re-admit.

    Owned by :class:`~repro.cluster.dispatch.AuthCluster`; a drain
    enumerates warm state into :class:`HandoffRecord` objects,
    round-trips each through its canonical wire form (the stream is the
    protocol, not a handed-over object graph), and installs them on the
    receivers through the guard import hooks.
    """

    #: Reports kept for the aggregate view (newest last).
    REPORT_LIMIT = 64

    def __init__(self, cluster):
        self.cluster = cluster
        self.metrics = cluster.metrics
        self.reports: List[DrainReport] = []
        self.stats = {
            "records_offered": 0,
            "records_installed": 0,
            "records_refused_stale": 0,
            "records_duplicate": 0,
            "proofs_offered": 0,
            "sessions_offered": 0,
            "channels_offered": 0,
            "drains": 0,
            "bytes_streamed": 0,
            "last_drain_ms": 0.0,
            "drain_ms_total": 0.0,
        }

    # -- export ----------------------------------------------------------

    def export_node(self, node: GuardNode) -> "OrderedDict[str, List[HandoffRecord]]":
        """Plan a drain: every warm record on ``node``, grouped by the
        ring successor that inherits its shard (install order: channels,
        then sessions, then proofs — bindings must be vouched before the
        chains leaning on them re-validate)."""
        generation = self.cluster.invalidation_generation
        plan: "OrderedDict[str, List[HandoffRecord]]" = OrderedDict()
        # One stream dictionary per inheritor: the first record carries
        # the working set's shared spine in full, every later record
        # cites it by digest (see _StreamCiter).
        citers: Dict[str, _StreamCiter] = {}

        def assign(key: bytes, record: HandoffRecord) -> None:
            inheritor = self._inheritor(key, node.node_id)
            if inheritor is None:
                return
            if record.kind == "proof":
                record.cite = citers.setdefault(
                    inheritor, _StreamCiter(node.guard.replicated_lemma)
                )
            plan.setdefault(inheritor, []).append(record)
            self.stats["records_offered"] += 1

        ring = self.cluster.membership.ring
        for fingerprint, premise in self.cluster.channel_bindings():
            if ring.node_for(fingerprint) != node.node_id:
                continue
            self.stats["channels_offered"] += 1
            assign(
                fingerprint,
                HandoffRecord("channel", generation, premise),
            )
        for mac_id, mac_key, minted_at in node.guard.export_sessions():
            self.stats["sessions_offered"] += 1
            assign(
                session_routing_key(mac_id),
                HandoffRecord(
                    "session", generation, (mac_id, mac_key, minted_at)
                ),
            )
        for speaker, proof in node.guard.export_proof_entries():
            self.stats["proofs_offered"] += 1
            assign(
                shard_key_for(speaker),
                HandoffRecord("proof", generation, proof, speaker=speaker),
            )
        for records in plan.values():
            records.sort(key=lambda record: _KIND_RANK[record.kind])
        return plan

    def _inheritor(self, key: bytes, draining_id: str) -> Optional[str]:
        """Who inherits ``key`` once ``draining_id`` leaves: the first
        serving successor that is not the departing node.  (For state the
        node holds on someone else's shard — left from an older ring
        layout — that is simply the owner; the install dedups.)"""
        membership = self.cluster.membership
        ring = membership.ring
        for node_id in ring.successors(key, len(ring)):
            if node_id == draining_id:
                continue
            if membership.state_of(node_id) == UP:
                return node_id
        return None

    # -- streaming + install ----------------------------------------------

    def _stream(
        self, records: List[HandoffRecord], resolver=None
    ) -> Tuple[List[HandoffRecord], int]:
        """Round-trip records through their canonical wire form — the
        handoff is a byte protocol, and decoding on the receiving side is
        what keeps the codec honest in production, not just in tests.

        ``resolver`` is the *receiver's* lemma resolver: citation stubs
        are resolved against the trusted graph of the node installing the
        record — plus subproofs delivered earlier in this same stream,
        each of which was digest-checked when its record decoded.  A
        record that fails to decode — a cited delegation the receiver no
        longer holds (revoked in transit), or malformed bytes — is
        refused, not fatal: returns ``(decoded, refused)``."""
        decoded: List[HandoffRecord] = []
        receiver_dict = _StreamResolver(resolver) if resolver is not None else None
        refused = 0
        for record in records:
            wire = record.to_wire()
            self.stats["bytes_streamed"] += len(wire)
            try:
                arrived = HandoffRecord.from_wire(wire, lemmas=receiver_dict)
            except (ValueError, ProofError):
                refused += 1
                continue
            decoded.append(arrived)
            if arrived.kind == "proof":
                # Grow both halves of the stream dictionary only once the
                # record landed: a refused record's subtrees stay citable
                # by nobody, so anything leaning on them refuses too.
                if isinstance(record.cite, _StreamCiter):
                    record.cite.register(record.payload)
                if receiver_dict is not None:
                    receiver_dict.register(arrived.payload)
        if refused:
            self.stats["records_refused_stale"] += refused
            self.metrics.inc("cluster.handoff.refused_stale", refused)
        return decoded, refused

    def install(
        self, receiver: GuardNode, records: List[HandoffRecord]
    ) -> Tuple[int, int, int]:
        """Re-admit records on ``receiver`` through its guard's import
        hooks; returns ``(installed, refused, duplicates)``.  A record
        whose export generation differs from the cluster's current one
        is re-verified in full — the tombstones catch known-stale state,
        the generation escalation catches anything they aged out."""
        current = self.cluster.invalidation_generation
        installed = refused = duplicates = 0
        for record in records:
            full_verify = record.generation != current
            outcome = self._install_one(receiver, record, full_verify)
            if outcome == "installed":
                installed += 1
            elif outcome == "duplicate":
                duplicates += 1
            else:
                refused += 1
        self.stats["records_installed"] += installed
        self.stats["records_refused_stale"] += refused
        self.stats["records_duplicate"] += duplicates
        self.metrics.inc("cluster.handoff.installed", installed)
        self.metrics.inc("cluster.handoff.refused_stale", refused)
        return installed, refused, duplicates

    @staticmethod
    def _install_one(
        receiver: GuardNode, record: HandoffRecord, full_verify: bool
    ) -> str:
        guard = receiver.guard
        if record.kind == "channel":
            return guard.import_channel(record.payload)
        if record.kind == "session":
            mac_id, mac_key, minted_at = record.payload
            return guard.import_session(mac_id, mac_key, minted_at)
        return guard.import_proof_entry(
            record.payload,
            speaker=record.speaker,
            full_verify=full_verify,
        )

    # -- the drain ------------------------------------------------------------

    def drain(self, node: GuardNode) -> DrainReport:
        """Transfer a draining node's warm state to the inheriting
        successors, shard by shard.  The node is still serving while this
        runs (membership holds it DRAINING); the caller finalizes with
        ``leave()`` once the report returns."""
        timebase = self.metrics.timebase
        started = timebase.now()
        plan = self.export_node(node)
        offered = sum(len(records) for records in plan.values())
        installed = refused = duplicates = 0
        for successor_id, records in plan.items():
            receiver = self.cluster.membership.get(successor_id)
            if receiver is None:
                refused += len(records)
                continue
            decoded, undecodable = self._stream(
                records, receiver.guard.resolve_lemma
            )
            got, bad, dup = self.install(receiver, decoded)
            installed += got
            refused += bad + undecodable
            duplicates += dup
        duration_ms = (timebase.now() - started) * 1000.0
        report = DrainReport(
            node.node_id, offered, installed, refused, duplicates,
            list(plan.keys()), duration_ms,
        )
        self.reports.append(report)
        del self.reports[:-self.REPORT_LIMIT]
        self.stats["drains"] += 1
        self.stats["last_drain_ms"] = duration_ms
        self.stats["drain_ms_total"] += duration_ms
        self.metrics.inc("cluster.handoff.drains")
        return report
