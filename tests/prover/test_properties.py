"""Property-based tests: the prover against random delegation graphs.

Invariant (DESIGN.md): the Prover finds a proof iff a delegation path
exists whose intersected tag covers the request — and every proof it
returns verifies and concludes exactly the requested (subject, issuer).
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.core.principals import NamePrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, VerificationContext
from repro.core.statements import SpeaksFor, Validity
from repro.crypto import generate_keypair
from repro.prover import KeyClosure, Prover
from repro.sexp import sexp
from repro.tags import Tag, parse_tag

_BASE_KP = generate_keypair(384, random.Random(0xFEED))
_BASE = KeyPrincipal(_BASE_KP.public)
_NODES = [NamePrincipal(_BASE, "p%d" % i) for i in range(6)]

_TAGS = [
    parse_tag("(tag (*))"),
    parse_tag("(tag (web))"),
    parse_tag("(tag (web (method GET)))"),
    parse_tag("(tag (ftp))"),
]

_REQUESTS = [
    sexp(["web", ["method", "GET"]]),
    sexp(["web", ["method", "POST"]]),
    sexp(["ftp", "fetch"]),
]

edges_strategy = st.lists(
    st.tuples(
        st.integers(0, len(_NODES) - 1),
        st.integers(0, len(_NODES) - 1),
        st.integers(0, len(_TAGS) - 1),
    ),
    max_size=12,
)

# Validity windows and query times: inside, outside, and on every bound
# (``[0,10]`` and ``[15,30]`` are disjoint, and ``[0,10]`` and ``[5,20]``
# share only ``[5,10]``).
_WINDOWS = [
    Validity.ALWAYS,
    Validity(0, 10),
    Validity(5, 20),
    Validity(15, 30),
]
_BOUNDS = [0, 5, 10, 15, 20, 30]
_TIMES = [None, 2.5, 7.5, 12.5, 17.5, 40.5] + _BOUNDS

_MIN_TAGS = [
    parse_tag("(tag (web (method GET)))"),
    parse_tag("(tag (web))"),
    parse_tag("(tag (ftp))"),
]

# One query's coverage requirement: a concrete request, a minimum
# restriction set, or both — every filter ``Edge.usable`` applies.
coverage_strategy = st.tuples(
    st.one_of(st.none(), st.sampled_from(_REQUESTS)),
    st.one_of(st.none(), st.sampled_from(_MIN_TAGS)),
).filter(lambda pair: pair != (None, None))

timed_edges_strategy = st.lists(
    st.tuples(
        st.integers(0, len(_NODES) - 1),
        st.integers(0, len(_NODES) - 1),
        st.integers(0, len(_TAGS) - 1),
        st.integers(0, len(_WINDOWS) - 1),
    ),
    max_size=12,
)

node_pairs = st.tuples(
    st.integers(0, len(_NODES) - 1), st.integers(0, len(_NODES) - 1)
)


def _edge_usable(tag, window, request, min_tag, now):
    """The oracle's copy of the per-edge filter, spelled out."""
    if now is not None and not window.contains(now):
        return False
    if request is not None and not tag.matches(request):
        return False
    if min_tag is not None and not min_tag.implies(tag):
        return False
    return True


def _reachable(edges, subject_index, issuer_index, request, min_tag=None,
               now=None):
    """Ground-truth: DFS over edges that individually cover the query.

    A timeless query (``now=None``) needs a path that holds at *some*
    one time.  A path's windows meet in a window whose lower end is one
    of theirs — a window bound, or unbounded — so trying every bound
    (unbounded paths hold at any of them) decides it."""
    if now is None:
        return any(
            _reachable(edges, subject_index, issuer_index, request, min_tag,
                       when)
            for when in _BOUNDS
        )
    usable = [
        (s, i) for s, i, t, w in edges
        if s != i
        and _edge_usable(_TAGS[t], _WINDOWS[w], request, min_tag, now)
    ]
    seen = {issuer_index}
    frontier = [issuer_index]
    while frontier:
        node = frontier.pop()
        for s, i in usable:
            if i == node and s not in seen:
                seen.add(s)
                frontier.append(s)
    return subject_index in seen


def _timed_prover(edges):
    prover = Prover(max_visits=len(_NODES) + 1)
    for s, i, t, w in edges:
        if s != i:
            prover.add_proof(PremiseStep(
                SpeaksFor(_NODES[s], _NODES[i], _TAGS[t], _WINDOWS[w])
            ))
    return prover


def _assert_sound(proof, subject, issuer, request, min_tag, now):
    conclusion = proof.conclusion
    assert conclusion.subject == subject
    assert conclusion.issuer == issuer
    if request is not None:
        assert conclusion.tag.matches(request)
    if min_tag is not None:
        assert min_tag.implies(conclusion.tag)
    if now is not None:
        assert conclusion.validity.contains(now)
    # Every returned proof verifies when its premises are trusted.
    proof.verify(VerificationContext(
        trusted_premises=[
            lemma.conclusion
            for lemma in proof.lemmas()
            if not lemma.premises
        ],
        now=0.0 if now is None else now,
    ))


@given(
    timed_edges_strategy,
    node_pairs,
    coverage_strategy,
    st.sampled_from(_TIMES),
    st.lists(st.tuples(node_pairs, coverage_strategy,
                       st.sampled_from(_TIMES)), max_size=3),
)
@settings(max_examples=200, deadline=None)
# ``p0 =[0,10]=> p1 =[15,30]=> p2`` holds at no time: not timeless, and
# not at the bound 10 after a timeless query ran first.
@example([(0, 1, 0, 1), (1, 2, 0, 3)], (0, 2), (_REQUESTS[0], None),
         None, [])
@example([(0, 1, 0, 1), (1, 2, 0, 3)], (0, 2), (_REQUESTS[0], None),
         10, [((0, 2), (_REQUESTS[0], None), None)])
def test_prover_finds_iff_path_exists(edges, pair, coverage, now, earlier):
    """``find_proof`` against a reachability oracle, over request tags,
    minimum restriction sets and validity windows — cold, and again after
    earlier queries and its own first answer (a search adds no edge, so
    the answer must not change)."""
    prover = _timed_prover(edges)
    for (s, i), (request, min_tag), when in earlier:
        if s != i:
            prover.find_proof(
                _NODES[s], _NODES[i], request=request, min_tag=min_tag,
                now=when,
            )
    subject_index, issuer_index = pair
    if subject_index == issuer_index:
        return
    subject, issuer = _NODES[subject_index], _NODES[issuer_index]
    request, min_tag = coverage
    expected = _reachable(
        edges, subject_index, issuer_index, request, min_tag, now
    )
    for _ in range(2):
        proof = prover.find_proof(
            subject, issuer, request=request, min_tag=min_tag, now=now
        )
        assert (proof is not None) == expected
        if proof is not None:
            _assert_sound(proof, subject, issuer, request, min_tag, now)


_FINAL_KP = generate_keypair(384, random.Random(0xF1A1))
_FINAL = KeyPrincipal(_FINAL_KP.public)
_STRANGER = NamePrincipal(_BASE, "stranger")


@given(
    timed_edges_strategy,
    st.lists(st.tuples(st.integers(0, len(_NODES) - 1),
                       st.integers(0, len(_TAGS) - 1),
                       st.integers(0, len(_WINDOWS) - 1)),
             min_size=1, max_size=2),
    st.integers(0, len(_NODES) - 1),
    st.sampled_from(_REQUESTS),
    st.sampled_from(_TIMES),
)
@settings(max_examples=60, deadline=None)
def test_prove_mints_behind_an_exhausted_forward_wave(
    edges, final_edges, issuer_index, request, now
):
    """The subject holds no delegation, so the forward wave dies on its
    first pop; the only way to a proof is for the backward wave to keep
    walking until it pops the final principal and mints there.  Without
    the closure the same query is a refusal."""
    prover = _timed_prover(edges)
    for i, t, w in final_edges:
        prover.add_proof(PremiseStep(
            SpeaksFor(_FINAL, _NODES[i], _TAGS[t], _WINDOWS[w])
        ))
    issuer = _NODES[issuer_index]
    final_index = len(_NODES)
    expected = _reachable(
        list(edges) + [(final_index, i, t, w) for i, t, w in final_edges],
        final_index, issuer_index, request, None, now,
    )
    assert prover.prove(_STRANGER, issuer, request=request, now=now) is None
    prover.control(KeyClosure(_FINAL_KP, random.Random(1)))
    assert prover.find_proof(_STRANGER, issuer, request=request, now=now) is None
    proof = prover.prove(_STRANGER, issuer, request=request, now=now)
    assert (proof is not None) == expected
    if proof is not None:
        _assert_sound(proof, _STRANGER, issuer, request, None, now)


@given(edges_strategy, st.integers(0, len(_NODES) - 1), st.integers(0, len(_NODES) - 1))
@settings(max_examples=100, deadline=None)
def test_digestion_preserves_provability(edges, subject_index, issuer_index):
    """Finding a proof, digesting it into a fresh prover, and re-querying
    must succeed (a digested proof never loses information)."""
    request = _REQUESTS[0]
    prover = Prover(max_visits=len(_NODES) + 1)
    for s, i, t in edges:
        if s == i:
            continue
        prover.add_proof(PremiseStep(SpeaksFor(_NODES[s], _NODES[i], _TAGS[t])))
    subject, issuer = _NODES[subject_index], _NODES[issuer_index]
    if subject == issuer:
        return
    proof = prover.find_proof(subject, issuer, request=request)
    if proof is None:
        return
    fresh = Prover(max_visits=len(_NODES) + 1)
    fresh.add_proof(proof)
    again = fresh.find_proof(subject, issuer, request=request)
    assert again is not None
    assert again.conclusion.subject == subject
    assert again.conclusion.issuer == issuer
