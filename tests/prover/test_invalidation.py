"""Delegation-graph invalidation: expired or retracted delegations must
not keep proving through the composite edges built on them.

Digesting a multi-step proof stores every lemma, the composite ones
included.  The graph lists each composite under the lemmas its proof
embeds, so removing a leaf — explicitly or because its ``Validity``
lapsed — cascades to exactly the dependent composites, bumps the graph
generation, and leaves independent still-valid edges in place (the
Figure 1 lemma-reuse property).
"""

import random

import pytest

from repro.core.principals import KeyPrincipal, NamePrincipal
from repro.core.proofs import PremiseStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.crypto import generate_keypair
from repro.prover import DelegationGraph, Prover
from repro.tags import Tag

_BASE_KP = generate_keypair(384, random.Random(0xDECAF))
_BASE = KeyPrincipal(_BASE_KP.public)


def _p(name):
    return NamePrincipal(_BASE, name)


def _edge(subject, issuer, validity=Validity.ALWAYS):
    return PremiseStep(SpeaksFor(subject, issuer, Tag.all(), validity))


def _digest_chain(prover, *hops):
    """Digest ``hops[0] . hops[1] . ...`` as one collected proof: every
    hop and every composite lemma becomes an edge."""
    chain = hops[-1]
    for hop in reversed(hops[:-1]):
        chain = TransitivityStep(hop, chain)
    prover.add_proof(chain)
    return chain


class TestExpiredDelegations:
    def test_expired_delegation_stops_proving(self):
        prover = Prover()
        prover.add_proof(_edge(_p("b"), _p("a"), Validity(0, 10)))
        assert prover.find_proof(_p("b"), _p("a"), now=5.0) is not None
        assert prover.find_proof(_p("b"), _p("a"), now=50.0) is None

    def test_shortcut_derived_from_expired_delegation_dies_with_it(self):
        """Digest a chain containing a bounded delegation, expire it, and
        confirm its composite lemma no longer satisfies queries — even
        time-oblivious ones once the expiry sweep runs."""
        prover = Prover()
        chain = _digest_chain(
            prover, _edge(_p("c"), _p("b"), Validity(0, 10)),
            _edge(_p("b"), _p("a")),
        )
        assert chain in prover.graph  # the composite c => a is an edge
        assert prover.find_proof(_p("c"), _p("a"), now=5.0) is not None
        # After expiry a time-aware query must refuse the composite.
        assert prover.find_proof(_p("c"), _p("a"), now=50.0) is None
        # The sweep retracts the dead leaf and the composite built on it,
        # so even a time-oblivious query (now=None) cannot ride it.
        assert prover.invalidate_expired(50.0) == 2
        assert chain not in prover.graph
        assert prover.find_proof(_p("c"), _p("a")) is None
        assert prover.graph.invalidations >= 2
        assert prover.graph.generation >= 1

    def test_queries_with_future_now_never_destroy_state(self):
        """A query's ``now`` is a hypothetical: probing a future time (e.g.
        a renewal check, or one skewed timestamp) must not delete
        delegations that are still valid at real time."""
        prover = Prover()
        prover.add_proof(_edge(_p("b"), _p("a"), Validity(0, 100)))
        assert prover.find_proof(_p("b"), _p("a"), now=10.0) is not None
        assert prover.find_proof(_p("b"), _p("a"), now=200.0) is None
        # Still provable at the real (earlier) time — nothing was swept.
        assert prover.find_proof(_p("b"), _p("a"), now=10.0) is not None
        assert prover.graph.invalidations == 0

    def test_explicit_invalidate_expired_sweeps_shortcuts(self):
        prover = Prover()
        _digest_chain(
            prover, _edge(_p("c"), _p("b"), Validity(0, 10)),
            _edge(_p("b"), _p("a")),
        )
        # Time-oblivious: the prover never sees a clock.
        assert prover.find_proof(_p("c"), _p("a")) is not None
        assert prover.graph.edge_count() == 3
        removed = prover.invalidate_expired(50.0)
        assert removed == 2  # the bounded leaf plus the composite on it
        assert prover.find_proof(_p("c"), _p("a")) is None

    def test_independent_shortcut_survives_cascade(self):
        """Figure 1: retracting one leaf kills only proofs built on it."""
        prover = Prover()
        prover.add_proof(_edge(_p("c"), _p("b"), Validity(0, 10)))
        prover.add_proof(_edge(_p("b"), _p("a")))
        prover.add_proof(_edge(_p("z"), _p("y")))
        prover.add_proof(_edge(_p("y"), _p("x")))
        assert prover.find_proof(_p("c"), _p("a"), now=5.0) is not None
        assert prover.find_proof(_p("z"), _p("x"), now=5.0) is not None
        prover.invalidate_expired(50.0)
        # The all-unbounded chain is untouched, and still two hops.
        before = prover.stats["nodes_expanded"]
        assert prover.find_proof(_p("z"), _p("x")) is not None
        assert prover.stats["nodes_expanded"] - before <= 2

    def test_validity_bounded_query_never_serves_shortcut_stale(self):
        """A chain derived inside the window is found again inside it;
        no sweep ran, and none is needed for an earlier ``now``."""
        prover = Prover()
        prover.add_proof(_edge(_p("c"), _p("b"), Validity(0, 10)))
        prover.add_proof(_edge(_p("b"), _p("a")))
        assert prover.find_proof(_p("c"), _p("a"), now=5.0) is not None
        # Query an *earlier* time: no sweep (clock high-water only moves
        # forward past expiry), but coverage still rejects nothing here.
        assert prover.find_proof(_p("c"), _p("a"), now=6.0) is not None


class TestRemovalCascade:
    def test_remove_cascades_to_derived_shortcuts(self):
        graph = DelegationGraph()
        leaf_ab = _edge(_p("b"), _p("a"))
        leaf_bc = _edge(_p("c"), _p("b"))
        graph.add(leaf_ab)
        graph.add(leaf_bc)
        composite = TransitivityStep(leaf_bc, leaf_ab)
        graph.add(composite)
        assert graph.edge_count() == 3
        removed = graph.remove(leaf_ab)
        assert removed == 2  # the leaf and the composite riding on it
        assert composite not in graph
        assert graph.generation == 1
        assert leaf_bc in graph  # the other leaf is untouched

    def test_remove_composite_cascades_to_embedding_shortcuts(self):
        """Removing a composite must also retract larger composites whose
        proofs embed it, not just composites built on its leaves."""
        graph = DelegationGraph()
        leaf_cb = _edge(_p("c"), _p("b"))
        leaf_ba = _edge(_p("b"), _p("a"))
        leaf_dc = _edge(_p("d"), _p("c"))
        for leaf in (leaf_cb, leaf_ba, leaf_dc):
            graph.add(leaf)
        s1 = TransitivityStep(leaf_cb, leaf_ba)          # c => a
        s2 = TransitivityStep(leaf_dc, s1)               # d => a, embeds s1
        graph.add(s1)
        graph.add(s2)
        removed = graph.remove(s1)
        assert removed == 2  # s1 and the embedding s2
        assert s2 not in graph
        assert all(leaf in graph for leaf in (leaf_cb, leaf_ba, leaf_dc))

    def test_remove_unknown_proof_is_noop(self):
        graph = DelegationGraph()
        graph.add(_edge(_p("b"), _p("a")))
        assert graph.remove(_edge(_p("q"), _p("r"))) == 0
        assert graph.generation == 0


class TestStats:
    def test_stats_report_cache_metrics(self):
        """A prover counts its own work; what the graph holds is counted
        once, on the graph, because several provers may search it."""
        prover = Prover()
        assert set(prover.stats) == {
            "searches",
            "nodes_expanded",
            "invalidate_examined",
        }
        prover.add_proof(_edge(_p("c"), _p("b")))
        prover.add_proof(_edge(_p("b"), _p("a")))
        prover.find_proof(_p("c"), _p("a"))
        assert prover.stats["searches"] == 1
        # A found chain is not stored: the graph holds what was collected.
        assert prover.graph.edge_count() == 2
        prover.invalidate_proof(_edge(_p("b"), _p("a")))
        assert prover.graph.invalidations == 1
        assert prover.graph.generation == 1

    def test_provers_sharing_a_graph_count_their_own_searches(self):
        graph = DelegationGraph()
        first, second = Prover(graph=graph), Prover(graph=graph)
        first.add_proof(_edge(_p("b"), _p("a")))
        assert second.find_proof(_p("b"), _p("a")) is not None
        assert (first.stats["searches"], second.stats["searches"]) == (0, 1)
        assert second.invalidate_proof(_edge(_p("b"), _p("a"))) == 1
        # Applied again, through the other prover, it finds nothing.
        assert first.invalidate_proof(_edge(_p("b"), _p("a"))) == 0
        assert first.find_proof(_p("b"), _p("a")) is None
