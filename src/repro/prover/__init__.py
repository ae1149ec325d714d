"""The Prover: collects delegations, caches proofs, constructs new ones.

Section 4.4: "A Prover object helps Snowflake applications collect and
create proofs.  It has three tasks: it collects delegations, caches proofs,
and constructs new delegations."  Here the second task is the guard's:
its proof cache is the one store of derived chains.

- The *delegation graph* (:mod:`repro.prover.graph`) stores principals as
  nodes and proofs as edges; received multi-step proofs are "digested" into
  component edges.  A proof the search derives is not added back: the
  guard caches it per speaker (see "Derived chains" below).
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
edges by usability cost: wildcard edges whose tag is the universal set
(no per-request tag test) first, then restricted edges.
``incoming()``/``outgoing()`` return read-only views whose ``len()`` is
O(1) — the search compares the two frontier heads with it every step —
and principal and edge counts are maintained incrementally.

**Derived chains.**  The paper's prover added every chain it derived back
into the graph as a dotted edge of Figure 2, a cache "that eliminates
most deep traversals".  Here the guard consults the prover only after a
proof-cache miss and caches the chain it gets under the speaker, so that
edge would hold the same proof twice; the graph holds collected
delegations only.  ``find_proof`` over a premise chain with 3 dead-end
delegates per chain node, min of 200 runs, µs (expansions), Xeon,
Python 3.11, with derived edges stored and without::

    depth   cold, with   cold, without   repeat, with   repeat, without
        2       49 (2)          16 (2)         12 (1)            12 (2)
        3       70 (3)          22 (3)         14 (1)            18 (3)
        8      171 (8)          49 (8)         17 (1)            44 (8)
       16     321 (16)         91 (16)         20 (1)            86 (16)

Storing the derived edge cost more than the search it saved, and no
served repeat reaches the prover: it is a proof-cache hit
(``prover.searches_per_kreq`` is 0 on ``steady_pipelined`` and
``steady_paced``).

**Invalidation.**  Every edge is listed under the serials and lemma
digests its proof cites.  Removing an edge — explicitly via
``DelegationGraph.remove``, by revocation (``Prover.invalidate_serial``),
or because its ``Validity`` lapsed (``Prover.invalidate_expired``) —
cascades to exactly the composite lemmas built on it and bumps the graph
``generation``.  Expired or revoked delegations therefore can never
satisfy a query, while independent still-valid edges survive (the
Figure 1 lemma-reuse property).  A query's ``now`` stays hypothetical:
time-aware searches skip expired edges but never delete them, so probing
a future time cannot destroy still-valid state.

**Proof digests.**  :class:`repro.core.proofs.Proof` memoizes its canonical
serialization and a SHA-256 digest of it; the graph keys edges and the
citation indexes by that digest, so inserting an already-known proof is
a dict lookup rather than a re-serialization.

``Prover.stats`` reports the prover's own work: ``searches``,
``nodes_expanded`` and ``invalidate_examined``.  What the graph holds is
counted once, on the graph (``edge_count()``, ``invalidations``,
``generation``), since several provers may search one graph — every
node of an ``AuthCluster`` searches the cluster's.
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
