"""Model-checking the inference rules against the possible-worlds
semantics (Section 3's "the semantics ... tells us how the system may and
may not be safely extended")."""

import pytest

from tests.reference.worlds import (
    AtomicPrincipal,
    Conj,
    Model,
    Quote,
    RuleSoundness,
    enumerate_models,
)

A = AtomicPrincipal("A")
B = AtomicPrincipal("B")
C = AtomicPrincipal("C")


@pytest.fixture(scope="module")
def two_principal_models():
    return list(enumerate_models([A, B], ["s"], world_count=2))


@pytest.fixture(scope="module")
def three_principal_models():
    # 3 atoms × 2 worlds is 4096 relation choices; cap the fact space by
    # using a single statement.
    return list(enumerate_models([A, B, C], ["s"], world_count=2))


class TestModelBasics:
    def test_says_vacuous_without_successors(self):
        model = Model(2, {A: set()}, {"s": set()})
        assert model.says(A, "s", 0)  # no accessible worlds: says anything

    def test_says_requires_truth_at_successors(self):
        model = Model(2, {A: {(0, 1)}}, {"s": {1}})
        assert model.says(A, "s", 0)
        model_false = Model(2, {A: {(0, 1)}}, {"s": set()})
        assert not model_false.says(A, "s", 0)

    def test_conjunction_is_union(self):
        model = Model(2, {A: {(0, 0)}, B: {(0, 1)}}, {"s": {0, 1}})
        assert model.relation(Conj(A, B)) == {(0, 0), (0, 1)}

    def test_conjunction_says_less(self):
        # A says s (successor 1 has s); B does not (successor 0 lacks s);
        # the conjunction must not say s.
        model = Model(2, {A: {(0, 1)}, B: {(0, 0)}}, {"s": {1}})
        assert model.says(A, "s", 0)
        assert not model.says(B, "s", 0)
        assert not model.says(Conj(A, B), "s", 0)

    def test_quoting_is_composition(self):
        model = Model(3, {A: {(0, 1)}, B: {(1, 2)}}, {})
        assert model.relation(Quote(A, B)) == {(0, 2)}

    def test_relation_containment_implies_speaks_for(self):
        model = Model(2, {A: {(0, 0), (0, 1)}, B: {(0, 1)}}, {"s": {1}})
        assert model.relation_contained(A, B)
        assert model.speaks_for(A, B, ["s"])


class TestRuleSoundness:
    """Every rule in repro.core.rules, checked over exhaustive small
    models.  A counterexample model would mean the implementation's
    verifier accepts logically invalid proofs."""

    def test_transitivity(self, three_principal_models):
        assert RuleSoundness.transitivity(
            three_principal_models, A, B, C, ["s"]
        ) is None

    def test_weakening(self):
        models = list(enumerate_models([A, B], ["s", "t"], world_count=2))
        assert RuleSoundness.weakening(models, A, B, ["s", "t"], ["s"]) is None

    def test_conjunction_projection(self, two_principal_models):
        assert RuleSoundness.conjunction_projection(
            two_principal_models, A, B, ["s"]
        ) is None

    def test_conjunction_intro(self, three_principal_models):
        assert RuleSoundness.conjunction_intro(
            three_principal_models, C, A, B, ["s"]
        ) is None

    def test_quoting_left_monotonicity(self, three_principal_models):
        assert RuleSoundness.quoting_left_monotonicity(
            three_principal_models, A, B, C, ["s"]
        ) is None

    def test_quoting_right_monotonicity(self, three_principal_models):
        assert RuleSoundness.quoting_right_monotonicity(
            three_principal_models, A, B, C, ["s"]
        ) is None

    def test_says_derivation(self, two_principal_models):
        assert RuleSoundness.says_derivation(
            two_principal_models, A, B, ["s"]
        ) is None


class TestUnsafeExtensionsRejected:
    """The other half of the paper's claim: the semantics must *refute*
    invalid extensions, not just bless valid ones."""

    def test_restriction_widening_has_a_counterexample(self):
        models = enumerate_models([A, B], ["s", "t"], world_count=2)
        counterexample = RuleSoundness.unsound_example_widening(
            models, A, B, ["s", "t"], ["s"]
        )
        assert counterexample is not None
        # The counterexample is a genuine one:
        assert counterexample.speaks_for(A, B, ["s"])
        assert not counterexample.speaks_for(A, B, ["s", "t"])

    def test_reverse_transitivity_is_unsound(self, three_principal_models):
        # "A ⇒ C and B ⇒ C entail A ⇒ B" must have a counterexample.
        found = None
        for model in three_principal_models:
            if (
                model.speaks_for(A, C, ["s"])
                and model.speaks_for(B, C, ["s"])
                and not model.speaks_for(A, B, ["s"])
            ):
                found = model
                break
        assert found is not None

    def test_quoting_collapse_direction_matters(self):
        # A|B ⇒ B|A would be an invalid extension.
        models = enumerate_models([A, B], ["s"], world_count=2)
        found = None
        for model in models:
            if not model.speaks_for(Quote(A, B), Quote(B, A), ["s"]):
                found = model
                break
        assert found is not None
