"""End-to-end audit records, shared by every transport.

Because proofs are structured, every granted request leaves an
*end-to-end audit record*: the complete proof tree connecting the
requesting channel to the resource issuer, including any gateway's
quoting involvement.  The guard pipeline emits one record per grant
regardless of which transport carried the request, so an HTTP GET, an
RMI invocation, and an SMTP delivery justified by the same delegation
chain leave structurally identical trails.

Where the record goes is :class:`AuditLog`'s concern: memory holds the
last ``retain`` of them (a ring), and an optional ``sink`` sees every
one — so a guard's heap stops growing with the requests it has served,
and the durable trail is whatever the operator points the sink at.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.core.principals import Principal
from repro.core.proofs import Proof
from repro.core.statements import Says, SpeaksFor
from repro.obs.registry import default_registry
from repro.sexp import SExp


def proof_skeleton(proof: Proof) -> Tuple:
    """The rule-name tree of a proof — its transport-independent shape."""
    return (proof.rule,) + tuple(
        proof_skeleton(premise) for premise in proof.premises
    )


class AuditRecord:
    """One granted request and the proof that justified it."""

    __slots__ = ("request", "speaker", "issuer", "proof", "when", "transport",
                 "trace_id", "span_id")

    def __init__(
        self,
        request: SExp,
        speaker,
        issuer,
        proof: Proof,
        when: float,
        transport: Optional[str] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ):
        self.request = request
        self.speaker = speaker
        self.issuer = issuer
        self.proof = proof
        self.when = when
        self.transport = transport
        # The trace/span that produced this grant (see repro.obs.trace):
        # the correlation key between the guard's audit trail and the
        # serving layer's spans.
        self.trace_id = trace_id
        self.span_id = span_id

    def involved_principals(self):
        """Every principal that appears in the justifying proof — the
        end-to-end audit trail (e.g. both Alice and the gateway)."""
        seen = []
        for lemma in self.proof.lemmas():
            conclusion = lemma.conclusion
            principals = []
            if isinstance(conclusion, SpeaksFor):
                principals = [conclusion.subject, conclusion.issuer]
            elif isinstance(conclusion, Says):
                principals = [conclusion.speaker]
            for principal in principals:
                if principal not in seen:
                    seen.append(principal)
        return seen

    def skeleton(self) -> Tuple:
        """The shape of the justifying proof, for cross-transport
        comparison."""
        return proof_skeleton(self.proof)

    def render(self) -> str:
        label = " [%s]" % self.transport if self.transport else ""
        if self.trace_id is not None:
            label += " trace=%s/%s" % (self.trace_id, self.span_id or "-")
        return "%.3f%s %s by %s:\n%s" % (
            self.when,
            label,
            self.request.to_advanced(),
            self.speaker.display(),
            self.proof.display_tree(1),
        )


#: Records an :class:`AuditLog` keeps in memory.  It is not the size of
#: the tracer's span ring and need not be: every record carries its
#: request's trace id, kept trace or not, so a record joins its spans
#: whenever that trace was kept and is still in the tracer's ring.
AUDIT_RETAIN = 2048


class AuditLog:
    """The last ``retain`` authorization decisions, oldest first.

    Memory holds the tail; durability is the sink's job.  ``sink(record)``
    is called with every record before it enters the ring, so "every
    granted request leaves an end-to-end audit record" is true of the
    sink's destination for the life of the server and of ``records`` for
    the last ``retain`` grants.  A sink that raises is counted
    (``guard.audit.sink_errors``); the record still enters the ring and
    the grant stands — the decision was already justified by its proof,
    and refusing service because the log's destination is down would let
    a full disk deny every request.
    """

    def __init__(self, retain: int = AUDIT_RETAIN, sink=None, metrics=None):
        if retain < 0:
            raise ValueError("retention cap cannot be negative")
        self.retain = retain
        self.sink: Optional[Callable[[AuditRecord], None]] = sink
        self.metrics = default_registry(metrics)
        self._ring: "deque[AuditRecord]" = deque(maxlen=retain)
        #: Records ever passed to :meth:`record`.
        self.recorded = 0

    def record(self, record: AuditRecord) -> None:
        if self.sink is not None:
            try:
                self.sink(record)
            except Exception:  # boundary: an operator's callable
                self.metrics.inc("guard.audit.sink_errors")
        self._ring.append(record)
        self.recorded += 1

    @property
    def evicted(self) -> int:
        """Recorded grants that have since left the ring."""
        return self.recorded - len(self._ring)

    @property
    def records(self) -> List[AuditRecord]:
        """The retained tail as a fresh list, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def involving(self, principal: Principal) -> List[AuditRecord]:
        return [
            record
            for record in self._ring
            if principal in record.involved_principals()
        ]

    def by_transport(self, transport: str) -> List[AuditRecord]:
        return [
            record for record in self._ring if record.transport == transport
        ]
