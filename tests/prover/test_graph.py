"""Unit tests for the delegation graph."""

import pytest

from repro.core.principals import KeyPrincipal
from repro.core.proofs import PremiseStep
from repro.core.statements import Says, SpeaksFor
from repro.prover import DelegationGraph, Edge
from repro.tags import Tag


@pytest.fixture()
def A(alice_kp):
    return KeyPrincipal(alice_kp.public)


@pytest.fixture()
def B(bob_kp):
    return KeyPrincipal(bob_kp.public)


@pytest.fixture()
def C(carol_kp):
    return KeyPrincipal(carol_kp.public)


def edge_proof(subject, issuer, tag=None):
    return PremiseStep(SpeaksFor(subject, issuer, tag or Tag.all()))


class TestDelegationGraph:
    def test_add_and_query_incoming(self, A, B):
        graph = DelegationGraph()
        graph.add(edge_proof(B, A))
        edges = graph.incoming(A)
        assert len(edges) == 1
        assert edges[0].subject == B and edges[0].issuer == A

    def test_duplicate_proofs_deduplicated(self, A, B):
        graph = DelegationGraph()
        assert graph.add(edge_proof(B, A))
        assert not graph.add(edge_proof(B, A))
        assert len(graph.incoming(A)) == 1

    def test_distinct_tags_are_distinct_edges(self, A, B):
        from repro.tags import parse_tag

        graph = DelegationGraph()
        graph.add(edge_proof(B, A, parse_tag("(tag read)")))
        graph.add(edge_proof(B, A, parse_tag("(tag write)")))
        assert len(graph.incoming(A)) == 2

    def test_principals_enumerates_both_sides(self, A, B, C):
        graph = DelegationGraph()
        graph.add(edge_proof(B, A))
        graph.add(edge_proof(C, B))
        assert set(graph.principals()) == {A, B, C}
        assert len(graph) == 3

    def test_rejects_says_proofs(self, A):
        graph = DelegationGraph()
        with pytest.raises(ValueError):
            graph.add(PremiseStep(Says(A, "x")))

    def test_incoming_is_a_read_only_view(self, A, B):
        graph = DelegationGraph()
        graph.add(edge_proof(B, A))
        edges = graph.incoming(A)
        # Views cannot mutate the graph; a caller needing a frozen copy
        # can list() the view.
        assert not hasattr(edges, "clear")
        with pytest.raises((TypeError, AttributeError)):
            edges[0] = None
        snapshot = list(edges)
        snapshot.clear()
        assert len(graph.incoming(A)) == 1

    def test_view_tracks_graph_across_removal_and_readd(self, A, B, C):
        graph = DelegationGraph()
        first = edge_proof(B, A)
        graph.add(first)
        view = graph.incoming(A)
        assert len(view) == 1
        graph.remove(first)
        assert len(view) == 0
        graph.add(edge_proof(C, A))
        # The view stays live even though A's bucket was dropped and
        # recreated in between.
        assert len(view) == 1
        assert view[0].subject == C

    def test_outgoing_index_mirrors_incoming(self, A, B, C):
        graph = DelegationGraph()
        graph.add(edge_proof(B, A))
        graph.add(edge_proof(B, C))
        outgoing = graph.outgoing(B)
        assert len(outgoing) == 2
        assert {edge.issuer for edge in outgoing} == {A, C}
        assert len(graph.outgoing(A)) == 0

    def test_len_and_edge_count_track_removal(self, A, B, C):
        graph = DelegationGraph()
        first = edge_proof(B, A)
        graph.add(first)
        graph.add(edge_proof(C, B))
        assert len(graph) == 3
        assert graph.edge_count() == 2
        assert graph.remove(first) == 1
        assert len(graph) == 2  # A dropped out; B survives via C=>B
        assert graph.edge_count() == 1
        assert graph.generation == 1
