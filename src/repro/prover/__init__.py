"""The Prover: collects delegations, caches proofs, constructs new ones.

Section 4.4: "A Prover object helps Snowflake applications collect and
create proofs.  It has three tasks: it collects delegations, caches proofs,
and constructs new delegations."

- The *delegation graph* (:mod:`repro.prover.graph`) stores principals as
  nodes and proofs as edges; received multi-step proofs are "digested" into
  component edges, and derived proofs are added back as *shortcut* edges
  that cache deep traversals.
- The *search* (:mod:`repro.prover.prover`) runs a bidirectional BFS —
  backward from the required issuer and forward from the subject — meeting
  in the middle and composing transitivity steps.  Each step walks the
  frontier whose head node has fewer edges, and the search ends as soon as
  either frontier runs dry, so a refusal costs what the *speaker* holds
  (one expansion for a speaker with no delegation) and a cold grant costs
  the chain's depth — neither grows with the graph.  The two rules and
  the argument that each wave alone is a complete depth-bounded search
  are stated once, on ``Prover._bidirectional``.
- *Closures* (:mod:`repro.prover.closures`) represent principals the
  application controls (a held private key, a capability): the Prover uses
  them to complete proofs by minting the final restricted delegation.

Engine internals
----------------

**Indexing.**  Every edge is registered under both its issuer (the
``incoming`` index the backward wave walks) and its subject (the
``outgoing`` index the forward wave walks).  Each index entry buckets its
edges by usability cost: derived shortcuts (scanned first, newest first),
wildcard edges whose tag is the universal set (no per-request tag test),
then restricted edges.  ``incoming()``/``outgoing()`` return read-only
views whose ``len()`` is O(1) — the search compares the two frontier
heads with it every step — and principal and edge counts are maintained
incrementally.

**Shortcut LRU.**  Collected delegations are permanent; *derived* shortcut
edges live in an LRU bounded by ``max_shortcuts`` (:class:`Prover` kwarg).
Deriving or re-using a shortcut refreshes its recency; the least recently
useful shortcut is evicted under pressure.  Eviction is pure cache
pressure — evicted conclusions remain provable from the base edges.

**Invalidation generations.**  Every shortcut records the leaf delegations
its proof was derived from.  Removing a leaf — explicitly via
``DelegationGraph.remove``, or because its ``Validity`` lapsed
(``Prover.invalidate_expired``) — cascades to exactly the dependent
shortcuts and bumps the graph ``generation``.  Expired or revoked
delegations therefore can never satisfy a query through a stale cached
proof, while independent still-valid shortcuts survive (the Figure 1
lemma-reuse property).  A query's ``now`` stays hypothetical: time-aware
searches skip expired edges but never delete them, so probing a future
time cannot destroy still-valid state.

**Proof digests.**  :class:`repro.core.proofs.Proof` memoizes its canonical
serialization and a SHA-256 digest of it; the graph keys edges, the
dependency index, and the LRU by that digest, so inserting an
already-known proof is a dict lookup rather than a re-serialization.

``Prover.stats`` reports ``searches``, ``nodes_expanded``,
``shortcut_hits``, ``shortcut_cache_size``, ``shortcut_evictions``,
``invalidations``, and the current ``generation``.
"""

from repro.prover.graph import DelegationGraph, Edge
from repro.prover.prover import Prover
from repro.prover.closures import Closure, KeyClosure, PremiseClosure

__all__ = [
    "DelegationGraph",
    "Edge",
    "Prover",
    "Closure",
    "KeyClosure",
    "PremiseClosure",
]
