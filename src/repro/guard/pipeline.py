"""The transport-agnostic authorization guard pipeline.

One authorization logic spans every transport end-to-end (the paper's
core claim); this module is where it lives.  A :class:`Guard` takes
:class:`~repro.guard.request.GuardRequest` objects from HTTP servlets,
the RMI skeleton, the SMTP server, and secure-channel listeners, and runs
them through the same staged pipeline:

1. **admission** (session/MAC fast path): resolve the credential to the
   uttering principal — free for channel-vouched speakers, one HMAC for
   MAC sessions, one digest lookup for a subject-bound proof the cache
   already holds and one byte read + verify for a new one;
2. **proof cache**: find a cached, digest-deduped, already-verified proof
   connecting the speaker to the resource issuer (the paper's 5 ms
   ``checkAuth`` steady state) — signatures are immutable, so a hit
   re-checks only premise vouching and validity windows;
3. **full verification**: consult the server-side :class:`Prover` (if one
   is attached) for a proof assembled from digested delegations —
   Section 7.2's 190 ms path runs here or at proof submission;
4. **audit**: every grant appends an end-to-end :class:`AuditRecord`
   naming the transport, so trails are uniform across applications.

``check_many`` verifies independent requests in one pass: one admission
sweep, one trusted-premise snapshot shared across the batch (and the
prover's read-only graph views underneath it), and one metered
``checkAuth`` charge.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
    ProofError,
    VerificationError,
)
from repro.core.principals import MacPrincipal, Principal
from repro.core.proofs import PremiseStep, Proof, proof_from_canonical
from repro.core.rules import DerivedSaysStep
from repro.core.statements import Says, SpeaksFor
from repro.guard.audit import AuditLog, AuditRecord
from repro.guard.cache import CachedProof, ProofCache
from repro.guard.request import (
    ChannelCredential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.guard.sessions import SessionRegistry
from repro.crypto.rng import default_rng
from repro.obs.registry import SIZE_BUCKETS, default_registry
from repro.obs.trace import NULL_SPAN, Tracer, default_tracer
from repro.sexp import sexp, to_canonical, transport_to_canonical
from repro.sim.costmodel import Meter, maybe_charge
from repro.tags import Tag

#: What the cost model charges for SPKI handling on every request that
#: reaches admission with a MAC or a presented proof (Table 1).
_SPKI_CHARGES = ("sexp_parse", "spki_unmarshal", "sf_overhead")


def stage_label(via, stage) -> str:
    """The observability name of a granting stage: the paper's three
    answers.  ``session`` admission hitting the cache is the MAC
    fast path; any other cache hit is a proof-cache grant; a prover
    grant paid full verification."""
    if stage == "cache":
        return "fastpath" if via == "session" else "proof_cache"
    return "prover"


class GuardDecision:
    """The outcome of one pipeline run."""

    __slots__ = ("granted", "via", "stage", "speaker", "proof", "record",
                 "error")

    def __init__(self, granted, via=None, stage=None, speaker=None,
                 proof=None, record=None, error=None):
        self.granted = granted
        self.via = via        # admission path: channel | session | proof
        self.stage = stage    # granting stage: cache | prover
        self.speaker = speaker
        self.proof = proof    # the derived ``issuer says request`` proof
        self.record = record
        self.error = error

    def granted_or_raise(self) -> "GuardDecision":
        """The single-request surface of a batch outcome: the decision
        itself when granted, else the error it carries, raised."""
        if not self.granted:
            raise self.error
        return self


def _detached(exc: Exception) -> Exception:
    """``exc`` as a decision keeps it: its type and message, without its
    traceback or the exception it was raised from, whose frames hold the
    batch being decided — the requests, the context snapshot, every
    decision — in a cycle only the cyclic GC frees."""
    exc.__cause__ = exc.__context__ = None
    return exc.with_traceback(None)


class _Admitted:
    """A request past stage 1: speaker resolved, credential verified."""

    __slots__ = ("request", "speaker", "credential_proof", "via")

    def __init__(self, request, speaker, credential_proof, via):
        self.request = request
        self.speaker = speaker
        self.credential_proof = credential_proof
        self.via = via


class Guard:
    """The shared authorization state: sessions + proof cache + audit log.

    One instance typically guards one server process (whatever mix of
    transports it listens on).  ``check_charge`` names the meter operation
    charged per authorization decision — ``"rmi_checkauth"`` for the RMI
    stack, ``None`` for transports that meter themselves.
    """

    def __init__(
        self,
        trust,
        meter: Optional[Meter] = None,
        prover=None,
        cache: Optional[ProofCache] = None,
        sessions: Optional[SessionRegistry] = None,
        audit: Optional[AuditLog] = None,
        check_charge: Optional[str] = "rmi_checkauth",
        rng=None,
        metrics=None,
        tracer=None,
    ):
        self.trust = trust
        self.meter = meter
        self.prover = prover
        # The metrics registry and tracer ride in together (a caller
        # may pass its own pair).  An injected registry without
        # a tracer gets a private tracer bound to it, so span-duration
        # histograms land beside the counters they explain.
        self.metrics = default_registry(metrics)
        if tracer is not None:
            self.tracer = tracer
        elif metrics is not None:
            self.tracer = Tracer(registry=self.metrics)
        else:
            self.tracer = default_tracer()
        # Default RNG for session minting; ``None`` falls back to the
        # secrets-backed default at mint time.  Injected for determinism
        # the same way the clock rides in on ``trust``.
        self.rng = rng
        self.cache = cache if cache is not None else ProofCache()
        self.sessions = (
            sessions if sessions is not None
            else SessionRegistry(clock=trust.clock)
        )
        # What the guard holds counts where the guard does.
        for part in (self.cache, self.sessions, prover):
            if part is not None:
                part.metrics = self.metrics
        self.audit = (
            audit if audit is not None else AuditLog(metrics=self.metrics)
        )
        self.check_charge = check_charge
        # Derived-step memo for the grant hot path ("each proof need be
        # verified only once" — Section 4.3).  Keyed by (speaker, logical)
        # canonical bytes; a hit is honored only when it still hangs off
        # the *same* proof object the cache/prover just produced, and the
        # two context-sensitive obligations (utterance vouched now,
        # validity window contains now) are re-checked per request.
        self._derived_memo: Dict[Tuple[bytes, bytes], "DerivedSaysStep"] = {}
        # Value-object interning for the admission/vouch hot path: the
        # session principal per MAC fingerprint, and the ``speaker says
        # logical`` utterance per (speaker, logical) canonical pair.
        # Both are immutable value objects, so sharing instances only
        # shares their memoized canonical encodings.
        self._session_principals: Dict[object, MacPrincipal] = {}
        self._says_memo: Dict[Tuple[bytes, bytes], Says] = {}
        # Invalidation tombstones: the serials and lemma digests this
        # guard has seen revoked or retracted, kept for good, as a CRL
        # keeps its entries (a serial names no one certificate, so no
        # expiry can retire it).  Purging derived state only removes what
        # was held at the time; a proof presented again is read against
        # the tombstones before it is admitted.  A closed channel needs
        # none: its premise is gone from the premise set, which every
        # admission re-checks.
        self._revoked_serials: Set[bytes] = set()
        self._retracted_digests: Set[bytes] = set()

    # -- stage 1: admission (session/MAC fast path) ----------------------

    def authenticate(self, request: GuardRequest) -> Tuple[Principal, Optional[Proof]]:
        """Resolve the request's credential to its uttering principal.

        Returns ``(speaker, credential_proof)`` where the proof is the
        verified subject-binding for proof credentials (``None`` for
        channel and steady-state session credentials).  Raises
        :class:`AuthorizationError` if the credential does not hold.
        """
        admitted = self._admit(request)
        return admitted.speaker, admitted.credential_proof

    def _admit(self, request: GuardRequest) -> _Admitted:
        credential = request.credential
        if credential is None:
            raise AuthorizationError("request carries no credential")
        if isinstance(credential, ChannelCredential):
            return _Admitted(request, credential.speaker, None, "channel")
        try:
            if isinstance(credential, SessionCredential):
                return self._admit_session(request, credential)
            if isinstance(credential, ProofCredential):
                return self._admit_proof(request, credential)
        except (VerificationError, ProofError, ValueError) as exc:
            # A credential that fails to decode or verify is a denial,
            # not a server fault: transports map AuthorizationError to
            # their 403/554, and a batch keeps going.
            raise AuthorizationError("credential rejected: %s" % exc)
        raise AuthorizationError(
            "unsupported credential kind %r" % credential.kind
        )

    def _admit_session(
        self, request: GuardRequest, credential: SessionCredential
    ) -> _Admitted:
        """The MAC fast path: one symmetric operation authenticates the
        session principal; the first request of a session also digests
        its delegation chain into the proof cache."""
        maybe_charge(self.meter, "mac_compute")
        mac_key = self.sessions.verify_tag(
            credential.session_id, credential.message, credential.tag
        )
        principal = self._session_principal(mac_key.fingerprint())
        proof: Optional[Proof] = None
        if credential.proof_wire is not None:
            # First request of the session: digest the delegation chain.
            # A chain that does not make the session principal speak for
            # anyone is useless but harmless: ignore it so the client
            # still gets a challenge (not a 403) on its next request.
            proof = self._admit_presented(
                transport_to_canonical(credential.proof_wire), principal
            )
        else:
            # Steady state still pays SPKI handling for the request's
            # logical form and the cached proof's tag match (Table 1).
            for operation in _SPKI_CHARGES:
                maybe_charge(self.meter, operation)
        return _Admitted(request, principal, proof, "session")

    def _admit_proof(
        self, request: GuardRequest, credential: ProofCredential
    ) -> _Admitted:
        """A subject-bound proof: verify possession (the hash binding),
        then cache the chain so the authorization stage finds it."""
        if credential.node is None:
            canonical = transport_to_canonical(credential.wire)
        else:
            canonical = to_canonical(credential.node)
        proof = self._admit_presented(canonical, credential.expected_subject)
        if proof is None:
            raise AuthorizationError(
                "proof does not conclude that this request's subject "
                "speaks for anyone"
            )
        return _Admitted(request, proof.conclusion.subject, proof, "proof")

    def _admit_presented(self, canonical: bytes,
                         speaker: Optional[Principal]) -> Optional[Proof]:
        """The one admission path for a proof a client presents, as the
        canonical bytes it arrived as.

        Returns the verified proof, cached under ``speaker`` (its own
        subject when ``speaker`` is ``None``), or ``None`` when it does
        not conclude ``speaker => someone``.  The bytes are looked up by
        digest first: a hit is the already-verified proof the cache
        holds, admitted without a parse, a tree build or a signature
        check.  That is as safe as verifying again, because
        - the cache's one write path (``add``) only receives verified
          proofs, and every invalidation event purges through the
          citation index;
        - ``_authorize`` re-checks validity and premises on every hit;
        - tampered or non-canonical bytes hash to another digest and
          take the full path.
        A miss reads the bytes in one pass (:func:`proof_from_canonical`:
        anything outside the encoder's layout declines to the parse-tree
        decoder), handing it ``speaker`` so the kept proof's subject is
        that one object.  A live revocation policy re-judges every
        certificate on every use, so with one there is no lookup: the
        full path consults it.
        """
        # The meter models the paper's server, which parsed every carried
        # proof: both branches pay the same charges.
        for operation in _SPKI_CHARGES:
            maybe_charge(self.meter, operation)
        if speaker is not None and self.trust.revocation is None:
            entry = self.cache.lookup(speaker, sha256(canonical).digest())
            if entry is not None and entry.proof.conclusion.subject == speaker:
                return entry.proof
        proof = proof_from_canonical(canonical, self.metrics, speaker)
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            return None
        if speaker is None:
            speaker = conclusion.subject
        elif conclusion.subject != speaker:
            return None
        return self._verify_and_cache(proof, speaker)

    def _verify_and_cache(self, proof: Proof, speaker=None) -> Proof:
        """Admit a proof the cache does not hold: refuse it if it cites
        anything this guard saw revoked or retracted, verify it, and
        cache it under ``speaker``."""
        entry = self._untombstoned(proof)
        proof.verify(self.trust.context())
        self.metrics.inc("guard.credential_verifications")
        self.cache.add(proof, speaker, entry)
        return proof

    # -- stages 2-4: authorize against the issuer -------------------------

    def check(self, request: GuardRequest) -> GuardDecision:
        """Run the full pipeline for one request: a batch of one.

        Returns a granted :class:`GuardDecision` or raises
        :class:`NeedAuthorizationError` (carrying the issuer and minimum
        restriction set for the client's invoker) /
        :class:`AuthorizationError`.
        """
        return self.check_many([request])[0].granted_or_raise()

    def check_many(self, requests: Iterable[GuardRequest]) -> List[GuardDecision]:
        """Verify independent requests in one pass.

        One admission sweep, one trusted-premise snapshot shared by the
        whole batch, one ``checkAuth`` meter charge.  Failures do not
        interrupt the batch: each failed request yields an ungranted
        decision carrying its error.
        """
        requests = list(requests)
        self.metrics.observe(
            "guard.batch_size", len(requests), buckets=SIZE_BUCKETS
        )
        if self.check_charge:
            maybe_charge(self.meter, self.check_charge)
        # One span per request, opened un-activated — a batch holds many
        # open spans; each is made current only around its own authorize
        # call (so ``_grant`` stamps the right ids into the audit record).
        # A request without a trace id gets one first, so its audit
        # record names its trace whether or not the tracer keeps it.
        tracer = self.tracer
        spans = []
        for request in requests:
            if request.trace is None:
                request.trace = tracer.mint_trace_id()
            spans.append(tracer.start_span(
                "guard.check", trace=request.trace, activate=False
            ))
        admitted_batch: List[Tuple[Optional[_Admitted], Optional[Exception]]] = []
        for request, span in zip(requests, spans):
            try:
                admitted = self._admit_timed(request, span)
            except (AuthorizationError, NeedAuthorizationError, ValueError) as exc:
                span.annotate("status", "denied")
                admitted_batch.append((None, _detached(exc)))
                continue
            admitted_batch.append((admitted, None))
        # One context snapshot shared by the whole batch (and the
        # prover's graph views beneath it); all the batch's utterances
        # are vouched on the snapshot, not the durable premise set.
        context = self.trust.context()
        for admitted, _ in admitted_batch:
            if admitted is not None:
                context.trust(
                    self._utterance(
                        admitted.speaker, admitted.request.logical
                    )
                )
        decisions: List[GuardDecision] = []
        for (admitted, error), span in zip(admitted_batch, spans):
            if admitted is None:
                self.metrics.inc("guard.denials")
                decisions.append(GuardDecision(False, error=error))
            else:
                try:
                    with self.tracer.activate(span):
                        decisions.append(
                            self._authorize_timed(admitted, context, span)
                        )
                except (AuthorizationError, NeedAuthorizationError) as exc:
                    if isinstance(exc, NeedAuthorizationError):
                        self.metrics.inc("guard.challenges")
                        span.annotate("status", "challenge")
                    else:
                        self.metrics.inc("guard.denials")
                        span.annotate("status", "denied")
                    decisions.append(
                        GuardDecision(False, via=admitted.via,
                                      speaker=admitted.speaker,
                                      error=_detached(exc))
                    )
            self.tracer.finish(span)
        return decisions

    def _admit_timed(self, request: GuardRequest, span) -> _Admitted:
        """Admission plus its observability: duration histogram and span
        annotations (stage 1 of the per-stage latency story), for a kept
        trace only — a sampled-out request reads no clock."""
        if span is NULL_SPAN:
            return self._admit(request)
        timebase = self.metrics.timebase
        started = timebase.now()
        admitted = self._admit(request)
        admission_ms = (timebase.now() - started) * 1000.0
        self.metrics.observe("guard.admission_ms", admission_ms)
        span.annotate("via", admitted.via)
        span.annotate("admission_ms", admission_ms)
        return admitted

    def _authorize_timed(self, admitted: _Admitted, context,
                         span) -> GuardDecision:
        """Authorize plus its observability: the granting stage's label
        (fastpath / proof_cache / prover) counted for every request, its
        latency observed for the kept traces."""
        traced = span is not NULL_SPAN
        timebase = self.metrics.timebase
        started = timebase.now() if traced else 0.0
        try:
            decision = self._authorize(admitted, context)
        except (AuthorizationError, NeedAuthorizationError):
            if traced:
                self.metrics.observe(
                    "guard.stage.refused_ms",
                    (timebase.now() - started) * 1000.0,
                )
            raise
        label = stage_label(decision.via, decision.stage)
        if traced:
            elapsed_ms = (timebase.now() - started) * 1000.0
            self.metrics.observe("guard.stage.%s_ms" % label, elapsed_ms)
            span.annotate("stage", label)
            span.annotate("authorize_ms", elapsed_ms)
            span.annotate("status", "granted")
        self.metrics.inc("guard.stage.%s" % label)
        return decision

    def _authorize(self, admitted: _Admitted, context) -> GuardDecision:
        request = admitted.request
        speaker = admitted.speaker
        issuer = request.issuer
        if issuer is None:
            raise AuthorizationError("request names no resource issuer")
        logical = request.logical
        now = context.now
        bucket = self.cache.bucket(speaker)
        stale: List[bytes] = []
        for key, entry in bucket.items():
            # The cache's only write path requires speaks-for conclusions.
            conclusion = entry.proof.conclusion
            # The lapsed-window check runs before the issuer filter so
            # dead entries for *any* issuer are retracted instead of
            # being re-skipped on every future call.
            if not conclusion.validity.contains(now):
                not_after = conclusion.validity.not_after
                if not_after is not None and now > not_after:
                    stale.append(key)
                continue
            if conclusion.issuer != issuer:
                continue
            if not conclusion.tag.matches(logical):
                continue
            if not self._revalidate(entry, context):
                continue
            decision = self._grant(admitted, entry.proof, context, "cache")
            self.cache.drop(speaker, stale)
            return decision
        self.cache.drop(speaker, stale)
        # Stage 3: full Prover verification over digested delegations.
        if self.prover is not None:
            found = self.prover.find_proof(
                speaker, issuer, request=logical,
                min_tag=request.min_tag, now=now,
            )
            if found is not None:
                try:
                    found.verify(context)
                except VerificationError:
                    found = None
            if found is not None:
                self.cache.add(found, speaker)
                return self._grant(admitted, found, context, "prover")
        raise NeedAuthorizationError(issuer, request.effective_min_tag())

    def _revalidate(self, entry: CachedProof, context) -> bool:
        """A cached proof was fully verified when it entered the cache;
        signatures cannot change, so a hit re-checks only what the
        environment controls: premise vouching (a closed channel retracts
        its binding) and, when a revocation policy is live, the whole
        tree."""
        if self.trust.revocation is not None:
            try:
                entry.proof.verify(context)
            except VerificationError:
                return False
            return True
        for statement in entry.premises:
            if statement not in context.trusted_premises:
                return False
        context.mark_verified(entry.proof)
        return True

    def _grant(self, admitted: _Admitted, proof: Proof, context,
               stage: str) -> GuardDecision:
        request = admitted.request
        derived = self._derived_step(admitted, proof, context)
        # The request's trace id (``check_many`` set one) is the
        # correlation key, so the guard's audit trail lines up with
        # the trace store.  The span id is the guard span
        # ``check_many`` activated around this request — present only
        # when the tracer keeps the trace.
        span = self.tracer.current()
        record = AuditRecord(
            request.logical, admitted.speaker, request.issuer, derived,
            context.now, transport=request.transport,
            trace_id=request.trace,
            span_id=(
                span.span_id
                if span is not None and span.trace_id == request.trace
                else None
            ),
        )
        self.audit.record(record)
        return GuardDecision(
            True, via=admitted.via, stage=stage, speaker=admitted.speaker,
            proof=derived, record=record,
        )

    #: Bound on each hot-path memo dict.
    DERIVED_MEMO_LIMIT = 4096

    def _memoize(self, memo: dict, key, value):
        """Insert into one of the three hot-path memos under the one
        bound they share: a full dict is cleared wholesale (the steady
        state is a small working set of (speaker, logical) pairs, so a
        rare full reset beats per-entry bookkeeping)."""
        if len(memo) >= self.DERIVED_MEMO_LIMIT:
            memo.clear()
        memo[key] = value
        return value

    def _session_principal(self, fingerprint) -> MacPrincipal:
        """One :class:`MacPrincipal` instance per MAC fingerprint, so
        every steady-state request for a session reuses the principal's
        memoized canonical encoding."""
        principal = self._session_principals.get(fingerprint)
        if principal is None:
            principal = self._memoize(
                self._session_principals, fingerprint,
                MacPrincipal(fingerprint),
            )
        return principal

    def _utterance(self, speaker: Principal, logical) -> Says:
        """One ``speaker says logical`` instance per canonical pair:
        the statement is vouched into a context snapshot and looked up
        again at grant time on every request, and interning makes both
        sides one memoized-bytes hash instead of a tree walk."""
        key = (speaker.canonical_key(), to_canonical(logical))
        says = self._says_memo.get(key)
        if says is None:
            says = self._memoize(
                self._says_memo, key, Says(speaker, logical)
            )
        return says

    def _derived_step(self, admitted: _Admitted, proof: Proof,
                      context) -> DerivedSaysStep:
        """Build-or-reuse the final ``issuer says r`` inference.

        The derivation's structural checks (subject matches the utterer,
        the request is inside the delegated restriction set, the
        conclusion is well-formed) are pure functions of (speaker,
        logical, proof), so a repeat of the same question over the same
        proof object can reuse the step verified the first time.  What
        the environment controls is re-checked on every hit: the
        utterance must be vouched in *this* request's context snapshot,
        and the delegation's validity window must contain *this* ``now``.
        A memo entry hanging off a different proof object than the one
        the cache/prover just validated is ignored — retraction swaps
        the proof object, so staleness can never satisfy the identity
        test."""
        request = admitted.request
        key = (
            admitted.speaker.canonical_key(),
            to_canonical(request.logical),
        )
        derived = self._derived_memo.get(key)
        if (
            derived is not None
            and derived.premises[1] is proof
            and derived.premises[0].conclusion in context.trusted_premises
            and proof.conclusion.validity.contains(context.now)
        ):
            context.mark_verified(derived)
            return derived
        utterance = PremiseStep(
            self._utterance(admitted.speaker, request.logical)
        )
        try:
            derived = DerivedSaysStep(utterance, proof)
            derived.verify(context)
        except (ProofError, VerificationError) as exc:
            # A proof that cannot derive this grant refuses this one
            # request; ``check_many`` keeps deciding the rest of the batch.
            raise AuthorizationError("grant not derivable: %s" % exc)
        return self._memoize(self._derived_memo, key, derived)

    # -- transport delivery (secure channels, local pipes) ----------------

    def open_channel(self, channel_principal: Principal,
                     bound_principal: Principal) -> SpeaksFor:
        """A completed key exchange convinced the transport that
        ``channel => bound``; vouch it and hand back the premise so the
        connection can retract it on close."""
        premise = SpeaksFor(channel_principal, bound_principal, Tag.all())
        self.trust.vouch(premise)
        return premise

    def close_channel(self, premise: SpeaksFor) -> int:
        """Withdraw a channel binding: retract the premise and eagerly
        drop cached proofs leaning on it; returns the entries removed."""
        self.trust.retract(premise)
        return self.cache.retract_premise(premise)

    def deliver(self, request: GuardRequest) -> Principal:
        """Post-handshake delivery: the transport hands a decrypted
        request to the pipeline, which vouches the utterance and returns
        the speaker for the service layer's authorization check."""
        admitted = self._admit(request)
        self.trust.vouch(Says(admitted.speaker, request.logical))
        return admitted.speaker

    def retract_delivery(self, speaker: Principal, logical) -> None:
        """Withdraw a delivered utterance — connections retract what they
        vouched at teardown, so the premise set stays bounded by live
        traffic instead of growing for the life of the server."""
        self.trust.retract(Says(speaker, sexp(logical)))

    # -- MAC sessions (the backend surface over the registry) --------------

    def mint_session(self, rng=None) -> Tuple[str, "object"]:
        """Mint a MAC session in this guard's registry.  ``rng`` defaults
        to the guard's injected RNG (secrets-backed when none was)."""
        return self.sessions.mint(default_rng(rng if rng is not None else self.rng))

    def install_session(self, mac_id: str, mac_key, minted_at=None) -> None:
        """Register an externally minted session (a front that minted
        before binding to this backend hands its table over here)."""
        self.sessions.install(mac_id, mac_key, minted_at=minted_at)

    def sweep_sessions(self) -> int:
        """Eagerly reap expired sessions; returns the count removed."""
        return self.sessions.sweep()

    # -- server-side prover feeding ---------------------------------------

    def digest_delegation(self, proof: Proof) -> None:
        """Digest a client-supplied delegation chain into the attached
        prover (the gateway's Section 6.3 move), unless it cites what
        this guard saw revoked or retracted."""
        if self.prover is None:
            raise AuthorizationError("guard has no prover attached")
        self._untombstoned(proof)
        self.prover.add_proof(proof)

    def outgoing_delegations(self, principal: Principal) -> int:
        """How many delegation edges leave ``principal`` in the attached
        prover's graph (0 without a prover) — the quoting gateway's
        known-client question, asked of any backend uniformly."""
        if self.prover is None:
            return 0
        return len(self.prover.graph.outgoing(principal))

    # -- invalidation events ------------------------------------------------

    def retract_delegation(self, proof_or_digest) -> int:
        """Withdraw a previously digested delegation by proof or digest.

        Drops the prover edge (cascading into every edge embedding it)
        and every cached proof embedding it, and tombstones the digest;
        returns the number of entries removed.
        """
        digest = (
            proof_or_digest
            if isinstance(proof_or_digest, bytes)
            else proof_or_digest.digest()
        )
        self._retracted_digests.add(digest)
        removed = self.cache.retract_dependents(digest)
        if self.prover is not None:
            removed += self.prover.invalidate_proof(digest)
        return removed

    def revoke_serial(self, serial: bytes) -> int:
        """A certificate landed on a revocation list: drop every cached
        proof and prover edge citing its serial, and tombstone it.

        This is the event-driven complement to ``trust.revocation``:
        a live policy re-checks the tree per cache hit, while the event
        purges derived state even on guards running without one.
        """
        self._revoked_serials.add(serial)
        removed = self.cache.retract_serial(serial)
        if self.prover is not None:
            removed += self.prover.invalidate_serial(serial)
        return removed

    def _untombstoned(self, proof: Proof) -> CachedProof:
        """``proof``'s cache entry, or :class:`VerificationError` when it
        cites a serial this guard saw revoked or a lemma it saw
        retracted: a purge only removes what was held at the time, so a
        proof presented or digested again is read against the
        tombstones before it is admitted."""
        entry = CachedProof(proof)
        revoked, retracted = self._revoked_serials, self._retracted_digests
        if (any(serial in revoked for serial in entry.serials)
                or any(key in retracted for key in entry.lemma_keys)):
            raise VerificationError(
                "proof cites a revoked certificate or a retracted delegation"
            )
        return entry

    # -- audit helpers ------------------------------------------------------

    def audit_authentication(self, logical, proof: Proof,
                             transport: str = "unknown") -> AuditRecord:
        """Record a verified authentication (a subject-bound ``R => C``
        proof) so front ends that authorize elsewhere — the quoting
        gateway — still leave uniform audit trails."""
        conclusion = proof.conclusion
        if not isinstance(conclusion, SpeaksFor):
            raise AuthorizationError("authentication proofs conclude speaks-for")
        span = self.tracer.current()
        record = AuditRecord(
            sexp(logical), conclusion.subject, conclusion.issuer, proof,
            self.trust.clock.now(), transport=transport,
            trace_id=span.trace_id if span is not None else None,
            span_id=span.span_id if span is not None else None,
        )
        self.audit.record(record)
        return record

    # -- proof submission ---------------------------------------------------

    def submit_proof(self, proof_wire: bytes) -> Proof:
        """Receive, parse, verify, and cache a proof from a client (the
        proofRecipient object).

        This is the 190 ms path of Section 7.2: "the server spends 190 ms
        parsing and verifying the proof from the client" — the single
        charge below covers parse, unmarshal, and verification together,
        as the paper's figure does.
        """
        proof = proof_from_canonical(proof_wire, self.metrics)
        maybe_charge(self.meter, "proof_parse_verify")
        return self._verify_and_cache(proof)

    def context(self, now: Optional[float] = None):
        return self.trust.context(now)
