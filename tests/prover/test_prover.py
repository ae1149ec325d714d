"""Unit tests for proof search, digestion, closures, and caching."""

import pytest

from repro.core.errors import ProofError
from repro.core.principals import KeyPrincipal, NamePrincipal, QuotingPrincipal
from repro.core.proofs import (
    PremiseStep,
    SignedCertificateStep,
    VerificationContext,
    proof_from_sexp,
)
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.obs import MetricsRegistry
from repro.prover import KeyClosure, PremiseClosure, Prover
from repro.sexp import parse_canonical, to_canonical
from repro.spki import Certificate
from repro.tags import Tag, parse_tag


@pytest.fixture()
def principals(alice_kp, bob_kp, carol_kp, server_kp):
    return {
        "A": KeyPrincipal(alice_kp.public),
        "B": KeyPrincipal(bob_kp.public),
        "C": KeyPrincipal(carol_kp.public),
        "S": KeyPrincipal(server_kp.public),
    }


def _delegate(prover, subject, issuer):
    """Collect the premise ``subject => issuer``, unrestricted."""
    prover.add_proof(PremiseStep(SpeaksFor(subject, issuer, Tag.all())))


class TestFindProof:
    def test_single_edge(self, alice_kp, principals, rng):
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(alice_kp, principals["B"], Tag.all(), rng=rng)
        )
        proof = prover.find_proof(principals["B"], principals["A"])
        assert proof is not None
        assert proof.conclusion.subject == principals["B"]

    def test_multi_hop_chain(self, alice_kp, bob_kp, principals, rng):
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(alice_kp, principals["B"], parse_tag("(tag (web))"), rng=rng)
        )
        prover.add_certificate(
            Certificate.issue(bob_kp, principals["C"], parse_tag("(tag (web (method GET)))"), rng=rng)
        )
        proof = prover.find_proof(
            principals["C"], principals["A"],
            request=["web", ["method", "GET"]],
        )
        assert proof is not None
        proof.verify(VerificationContext())

    def test_no_path_returns_none(self, principals):
        prover = Prover()
        assert prover.find_proof(principals["B"], principals["A"]) is None

    def test_request_outside_tags_returns_none(self, alice_kp, principals, rng):
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(
                alice_kp, principals["B"], parse_tag("(tag (web))"), rng=rng
            )
        )
        assert prover.find_proof(
            principals["B"], principals["A"], request=["ftp", "get"]
        ) is None

    def test_min_tag_coverage(self, alice_kp, principals, rng):
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(alice_kp, principals["B"], parse_tag("(tag (web))"), rng=rng)
        )
        assert prover.find_proof(
            principals["B"], principals["A"],
            min_tag=parse_tag("(tag (web (method GET)))"),
        ) is not None
        assert prover.find_proof(
            principals["B"], principals["A"], min_tag=Tag.all()
        ) is None  # (*) is not provably inside (web)

    def test_expired_edges_pruned(self, alice_kp, principals, rng):
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(
                alice_kp, principals["B"], Tag.all(),
                validity=Validity(0, 10), rng=rng,
            )
        )
        assert prover.find_proof(principals["B"], principals["A"], now=5.0)
        assert prover.find_proof(principals["B"], principals["A"], now=50.0) is None

    def test_alternate_path_when_first_is_restricted(
        self, alice_kp, bob_kp, carol_kp, principals, rng
    ):
        # Two routes B -> A: via narrow tag directly, via C broadly.
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(
                alice_kp, principals["B"], parse_tag("(tag (ftp))"), rng=rng
            )
        )
        prover.add_certificate(
            Certificate.issue(alice_kp, principals["C"], parse_tag("(tag (web))"), rng=rng)
        )
        prover.add_certificate(
            Certificate.issue(carol_kp, principals["B"], parse_tag("(tag (web))"), rng=rng)
        )
        proof = prover.find_proof(
            principals["B"], principals["A"], request=["web"]
        )
        assert proof is not None
        assert proof.conclusion.tag.matches(["web"])


class TestDisjointWindows:
    """``A =[0,10]=> B`` and ``B =[15,30]=> C`` hold at no common time,
    so no chain of them may be granted — cold, or after a timeless
    search had the chance to cache one."""

    @staticmethod
    def _hops(principals):
        return (
            PremiseStep(SpeaksFor(
                principals["A"], principals["B"], Tag.all(), Validity(0, 10)
            )),
            PremiseStep(SpeaksFor(
                principals["B"], principals["C"], Tag.all(), Validity(15, 30)
            )),
        )

    def test_no_time_grants_after_a_timeless_search(self, principals):
        prover = Prover()
        for hop in self._hops(principals):
            prover.add_proof(hop)
        a, c = principals["A"], principals["C"]
        assert prover.find_proof(a, c, now=10) is None
        assert prover.find_proof(a, c) is None
        assert prover.find_proof(a, c, now=10) is None
        assert prover.graph.edge_count() == 2

    def test_transitivity_refuses_disjoint_windows(self, principals):
        with pytest.raises(ProofError):
            TransitivityStep(*self._hops(principals))

    def test_a_decoded_chain_over_disjoint_windows_fails_closed(
        self, principals
    ):
        # Encode an honest chain, then swap in the disjoint hop and the
        # single-instant conclusion ``[10,10]`` a point-window
        # intersection would derive from it.
        first, second = self._hops(principals)
        overlapping = PremiseStep(SpeaksFor(
            principals["B"], principals["C"], Tag.all(), Validity(5, 30)
        ))
        honest = TransitivityStep(first, overlapping)
        instant = SpeaksFor(
            principals["A"], principals["C"], Tag.all(), Validity(10, 10)
        )
        forged = to_canonical(honest.to_sexp())
        for old, new in (
            (overlapping.to_sexp(), second.to_sexp()),
            (honest.conclusion.to_sexp(), instant.to_sexp()),
        ):
            assert to_canonical(old) in forged
            forged = forged.replace(to_canonical(old), to_canonical(new))
        with pytest.raises(ProofError):
            proof_from_sexp(parse_canonical(forged))


class TestDigestion:
    def test_multistep_proof_digested_into_components(
        self, alice_kp, bob_kp, principals, rng
    ):
        first = SignedCertificateStep(
            Certificate.issue(bob_kp, principals["C"], Tag.all(), rng=rng)
        )
        second = SignedCertificateStep(
            Certificate.issue(alice_kp, principals["B"], Tag.all(), rng=rng)
        )
        chain = TransitivityStep(first, second)
        prover = Prover()
        prover.add_proof(chain)
        # Components usable independently:
        assert prover.find_proof(principals["C"], principals["B"]) is not None
        assert prover.find_proof(principals["B"], principals["A"]) is not None
        # And the composite lemma is a collected edge of its own:
        assert chain in prover.graph
        assert prover.graph.edge_count() == 3


class TestClosures:
    def test_key_closure_completes_proof(self, alice_kp, server_kp, principals, rng):
        """Figure 2's narration: walk back to final node A, then mint."""
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(server_kp, principals["A"], Tag.all(), rng=rng)
        )
        prover.control(KeyClosure(alice_kp, rng))
        proof = prover.prove(
            principals["B"], principals["S"], request=["web"]
        )
        assert proof is not None
        proof.verify(VerificationContext())
        assert proof.conclusion.subject == principals["B"]
        assert proof.conclusion.issuer == principals["S"]

    def test_controlled_issuer_direct_mint(self, alice_kp, principals, rng):
        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        proof = prover.prove(principals["B"], principals["A"], request=["x"])
        assert proof is not None
        proof.verify(VerificationContext())

    def test_find_proof_never_mints(self, alice_kp, principals, rng):
        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        assert prover.find_proof(principals["B"], principals["A"]) is None

    def test_minted_delegation_restricted_to_request(
        self, alice_kp, principals, rng
    ):
        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        proof = prover.prove(principals["B"], principals["A"], request=["web"])
        assert proof.conclusion.tag.matches(["web"])
        assert not proof.conclusion.tag.matches(["ftp"])

    def test_premise_closure_vouches(self, principals):
        vouched = []
        closure = PremiseClosure(principals["A"], vouched.append)
        prover = Prover()
        prover.control(closure)
        proof = prover.prove(principals["B"], principals["A"], request=["x"])
        assert proof is not None
        assert vouched and vouched[0] == proof.conclusion

    def test_delegation_validity_carried(self, alice_kp, principals, rng):
        prover = Prover()
        prover.control(KeyClosure(alice_kp, rng))
        proof = prover.prove(
            principals["B"], principals["A"], request=["x"],
            delegation_validity=Validity(0, 60),
        )
        assert proof.conclusion.validity == Validity(0, 60)


class TestQuotingFallback:
    def test_gateway_pattern(self, alice_kp, gateway_kp, server_kp, principals, rng):
        """Prove KCH|C => S from a delegation to G|C plus control of the
        channel-to-gateway link."""
        G = KeyPrincipal(gateway_kp.public)
        C = principals["C"]
        S = principals["S"]
        channel_key = principals["B"]  # stands in for the channel's key
        prover = Prover()
        # The client delegated: G|C => KC => S chain, pre-digested.
        prover.add_certificate(
            Certificate.issue(server_kp, principals["A"], Tag.all(), rng=rng)
        )
        prover.add_certificate(
            Certificate.issue(
                alice_kp, QuotingPrincipal(G, C), Tag.all(), rng=rng
            )
        )
        # The gateway controls its own key G.
        prover.control(KeyClosure(gateway_kp, rng))
        proof = prover.prove(
            QuotingPrincipal(channel_key, C), S, request=["read"]
        )
        assert proof is not None
        proof.verify(VerificationContext())
        assert proof.conclusion.subject == QuotingPrincipal(channel_key, C)
        assert proof.conclusion.issuer == S

    def test_quoting_fallback_requires_matching_quotee(
        self, alice_kp, gateway_kp, server_kp, principals, rng
    ):
        G = KeyPrincipal(gateway_kp.public)
        prover = Prover()
        prover.add_certificate(
            Certificate.issue(server_kp, principals["A"], Tag.all(), rng=rng)
        )
        prover.add_certificate(
            Certificate.issue(
                alice_kp, QuotingPrincipal(G, principals["C"]), Tag.all(), rng=rng
            )
        )
        prover.control(KeyClosure(gateway_kp, rng))
        # Quoting a different client must not be provable.
        other = QuotingPrincipal(principals["B"], principals["A"])
        assert prover.prove(other, principals["S"], request=["read"]) is None


class TestLimits:
    def test_max_depth_bounds_search(self, principals, rng):
        from repro.core.proofs import PremiseStep

        prover = Prover(max_depth=2)
        # Build a 5-hop premise chain C -> x1 -> x2 -> x3 -> A.
        from repro.core.principals import NamePrincipal

        A = principals["A"]
        hops = [principals["C"]] + [
            NamePrincipal(A, "hop%d" % i) for i in range(3)
        ] + [A]
        for subject, issuer in zip(hops, hops[1:]):
            prover.add_proof(PremiseStep(SpeaksFor(subject, issuer, Tag.all())))
        assert prover.find_proof(principals["C"], A) is None
        deep_prover = Prover(max_depth=8)
        for subject, issuer in zip(hops, hops[1:]):
            deep_prover.add_proof(PremiseStep(SpeaksFor(subject, issuer, Tag.all())))
        assert deep_prover.find_proof(principals["C"], A) is not None

    @staticmethod
    def _chain(prover, issuer, length, wide, width=32):
        """``length`` premise edges from a fresh subject up to ``issuer``,
        with ``width`` dead-end edges hung on one node to steer the
        walk: on the issuer (fan-in: the forward wave is cheaper), on the
        subject (fan-out: the backward wave is), or into the node two
        hops below the issuer (the backward wave walks down to it, then
        the forward wave walks up to it, and they meet there)."""
        hops = [issuer] + [
            NamePrincipal(issuer, "hop%d" % i) for i in range(length)
        ]
        for target, subject in zip(hops, hops[1:]):
            _delegate(prover, subject, target)
        subject = hops[-1]
        for i in range(width):
            aside = NamePrincipal(issuer, "aside%d" % i)
            if wide == "subject":
                _delegate(prover, subject, aside)
            else:
                _delegate(
                    prover, aside, issuer if wide == "issuer" else hops[2]
                )
        return subject

    @pytest.mark.parametrize("wide", ["issuer", "subject", "middle"])
    def test_meet_rule_at_the_depth_boundary(self, principals, wide):
        """A chain of exactly ``max_depth`` edges is found and one of
        ``max_depth + 1`` is not — whichever wave walks it, and when
        both do (``other_depth + child_depth <= max_depth``)."""
        issuer, depth = principals["A"], 4
        prover = Prover(max_depth=depth)
        subject = self._chain(prover, issuer, depth, wide)
        proof = prover.find_proof(subject, issuer)
        assert proof is not None
        assert (proof.conclusion.subject, proof.conclusion.issuer) == (
            subject, issuer
        )
        # One pop per chain edge, none spent on the 32 dead ends.
        assert prover.metrics.counter("prover.nodes_expanded") == depth

        too_deep = Prover(max_depth=depth)
        too_deep.metrics = MetricsRegistry()
        subject = self._chain(too_deep, issuer, depth + 1, wide)
        assert too_deep.find_proof(subject, issuer) is None
        if wide != "middle":
            # The walking wave popped its seed and every chain node, the
            # one at max_depth included (popped, counted, not expanded).
            assert too_deep.metrics.counter("prover.nodes_expanded") == depth + 1


class TestEarlyTermination:
    """The search ends when a wave runs dry; the counters keep their
    meaning (one ``searches`` per search, one ``nodes_expanded`` per
    popped queue entry), so they compare across commits."""

    @staticmethod
    def _delegates(prover, issuer, count):
        for i in range(count):
            _delegate(prover, NamePrincipal(issuer, "delegate%d" % i), issuer)

    def test_refusal_counts_one_search_and_each_popped_node(self, principals):
        prover = Prover()
        self._delegates(prover, principals["A"], 8)
        # A speaker with no delegation: its wave dies on the first pop.
        assert prover.find_proof(principals["C"], principals["A"]) is None
        assert prover.metrics.counter("prover.searches") == 1
        assert prover.metrics.counter("prover.nodes_expanded") == 1
        # A speaker whose two delegations lead nowhere near the issuer:
        # three pops (itself and both dead-end hops), still one search.
        aside = [NamePrincipal(principals["S"], "aside%d" % i) for i in range(2)]
        for subject, issuer in zip([principals["B"]] + aside, aside):
            _delegate(prover, subject, issuer)
        assert prover.find_proof(principals["B"], principals["A"]) is None
        assert prover.metrics.counter("prover.searches") == 2
        assert prover.metrics.counter("prover.nodes_expanded") == 1 + 3

    def test_exhausted_forward_wave_leaves_a_minting_prover_running(
        self, alice_kp, server_kp, principals, rng
    ):
        """``prove()`` with closures is the exception: the subject holds
        nothing, yet the backward wave must go on to the final principal
        behind the issuer's other delegates and mint there."""
        prover = Prover()
        self._delegates(prover, principals["S"], 8)
        prover.add_certificate(
            Certificate.issue(server_kp, principals["A"], Tag.all(), rng=rng)
        )
        assert prover.prove(principals["B"], principals["S"], request=["web"]) is None
        prover.control(KeyClosure(alice_kp, rng))
        assert prover.find_proof(principals["B"], principals["S"], request=["web"]) is None
        proof = prover.prove(principals["B"], principals["S"], request=["web"])
        assert proof is not None
        proof.verify(VerificationContext())
        assert proof.conclusion.subject == principals["B"]
