"""Differential property test: the delegation graph's citation indexes
against a scan.

``Prover.invalidate_serial`` used to walk every edge's proof tree; it
now looks the serial up in the graph's ``serial -> edge keys`` index,
which sits beside the ``digest -> dependents`` index cascades run on.
The reference below keeps a plain ordered model of the graph and answers
every removal by reading all of it.  After *every* step of a random
operation sequence the real graph must agree — same return value, same
edges in the same order — and both indexes must be exact: an edge is
listed under a thing exactly while it is in the graph and cites it.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.prover import Prover
from tests.citation_catalogue import (
    PROOFS, SERIALS, lemmas_embedded, serials_cited as _serials,
)


def _embedded(proof):
    """Digests of every sub-lemma but the proof's own."""
    return lemmas_embedded(proof) - {proof.digest()}


class _ScanGraph:
    """key -> proof in insertion order, and removals that read every
    edge."""

    def __init__(self):
        self.edges = OrderedDict()

    def add(self, proof):
        key = proof.digest()
        if key in self.edges:
            return False
        self.edges[key] = proof
        return True

    def remove(self, key, cascade=True):
        if key not in self.edges:
            return 0
        del self.edges[key]
        removed = 1
        if cascade:
            for other in [
                other for other, proof in self.edges.items()
                if key in _embedded(proof)
            ]:
                removed += self.remove(other)
        return removed

    def invalidate_expired(self, now):
        dead = [
            key for key, proof in self.edges.items()
            if proof.conclusion.validity.not_after is not None
            and now > proof.conclusion.validity.not_after
        ]
        return sum(self.remove(key) for key in dead)

    def invalidate_serial(self, serial):
        dead = [
            key for key, proof in self.edges.items()
            if serial in _serials(proof)
        ]
        return sum(self.remove(key) for key in dead)


def _assert_indexes_are_exact(graph):
    live = {edge.key: edge.proof for edge in graph.edges()}
    for index, cites in (
        (graph._citing_serial, _serials), (graph._dependents, _embedded),
    ):
        for key, proof in live.items():
            for cited in cites(proof):
                assert key in index.holders(cited), (
                    "a live edge is not listed under what it cites"
                )
        for cited in index:
            for key in index.holders(cited):
                assert key in live and cited in cites(live[key]), (
                    "a listing outlived the edge citing it"
                )
        if not live:
            assert len(index) == 0


_proof_ix = st.integers(0, len(PROOFS) - 1)

_operation = st.one_of(
    st.tuples(st.just("add"), _proof_ix),
    st.tuples(st.just("remove"), _proof_ix, st.booleans()),
    st.tuples(st.just("invalidate_expired"), st.sampled_from([5, 15, 25])),
    st.tuples(st.just("invalidate_serial"), st.sampled_from(SERIALS)),
)


@settings(max_examples=200, deadline=None)
@given(operations=st.lists(_operation, max_size=30))
def test_indexed_invalidation_matches_a_full_walk(operations):
    prover = Prover()
    graph = prover.graph
    model = _ScanGraph()
    for operation in operations:
        name, args = operation[0], operation[1:]
        if name == "add":
            proof = PROOFS[args[0]]
            assert graph.add(proof) == model.add(proof)
        elif name == "remove":
            key = PROOFS[args[0]].digest()
            assert graph.remove(key, args[1]) == model.remove(key, args[1])
        elif name == "invalidate_expired":
            got = graph.invalidate_expired(args[0])
            assert got == model.invalidate_expired(args[0])
        else:
            before = prover.stats["invalidate_examined"]
            cited = sum(
                args[0] in _serials(proof) for proof in model.edges.values()
            )
            got = prover.invalidate_serial(args[0])
            assert got == model.invalidate_serial(args[0])
            # The lookup examined the citing edges and no others.
            assert prover.stats["invalidate_examined"] - before == cited
        assert [edge.key for edge in graph.edges()] == list(model.edges)
        assert graph.edge_count() == len(model.edges)
        _assert_indexes_are_exact(graph)
