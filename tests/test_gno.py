import pytest
from helpers import (
    even_loops,
    gno_fixpoint_subsets,
    lits,
    literal_families,
    loops_with_tail,
    small_programs,
)
from hypothesis import given, settings

from prefas import fixtures
from prefas.base import answer_sets, generating_sets, is_stratified, minpos
from prefas.gno import (
    preferred_answer_sets_gno,
    preferred_generating_sets_gno,
    reduct_gno,
    trules,
)
from prefas.syntax import PrefProgram
from prefas.verify import GenParams, random_lpp

RUN = fixtures.load("indirect_conflict")
BE = fixtures.load("brewka_eiter")
R1 = frozenset({"r1", "r2"})


class TestTrules:
    def test_less_preferred_support_is_cut(self):
        # r1 depends on r2 < r3, so nothing in R1 may defeat r3
        assert trules(RUN, "r3", R1) == frozenset()

    def test_unrelated_rules_keep_their_support(self):
        assert trules(RUN, "r1", R1) == R1
        assert trules(RUN, "r2", R1) == R1

    def test_empty_candidate(self):
        assert trules(RUN, "r1", frozenset()) == frozenset()


class TestReductGno:
    def test_protected_rule_survives(self):
        assert [r.label for r in reduct_gno(RUN, R1)] == ["r1", "r2", "r3"]

    def test_fact_cannot_defeat_preferred_default(self):
        assert [r.label for r in reduct_gno(BE, {"r2"})] == ["r1", "r2"]

    def test_empty_rule_set(self):
        assert reduct_gno(RUN, frozenset()) == RUN.rules


class TestPreferredAnswerSetsGno:
    def test_indirect_conflict(self):
        got = preferred_answer_sets_gno(RUN)
        assert literal_families(got) == {lits("b")}
        assert got[0].generating == {"r3"}

    def test_stratified_program_can_lose_its_answer_set(self):
        assert is_stratified(BE)
        assert literal_families(answer_sets(BE)) == {lits("b")}
        assert preferred_answer_sets_gno(BE) == []

    def test_car_recommender(self):
        car = fixtures.load("car_recommender")
        s2 = lits("nice(car_1)", "safe(car_2)", "-rec(car_1)", "rec(car_2)")
        got = preferred_answer_sets_gno(car)
        assert literal_families(got) == {s2}
        assert got[0].generating == {"r1", "r2", "u4", "u2"}

    @settings(max_examples=120, deadline=None)
    @given(small_programs())
    def test_subset_of_answer_sets(self, p):
        fams = literal_families(answer_sets(p))
        assert literal_families(preferred_answer_sets_gno(p)) <= fams

    @settings(max_examples=120, deadline=None)
    @given(small_programs(with_prefs=False))
    def test_empty_prefs_equal_answer_sets(self, p):
        assert literal_families(preferred_answer_sets_gno(p)) == literal_families(answer_sets(p))

    @settings(max_examples=80, deadline=None)
    @given(small_programs())
    def test_monotone_in_preferences(self, p):
        pairs = sorted(p.prefs)
        weaker = PrefProgram(p.rules, pairs[: len(pairs) // 2])
        assert literal_families(preferred_answer_sets_gno(p)) <= literal_families(
            preferred_answer_sets_gno(weaker)
        )


def _by_definition(p):
    return [r for r in generating_sets(p) if minpos(reduct_gno(p, r)) == r]


class TestMatchesTheDefinition:
    @pytest.mark.parametrize("seed", range(60))
    def test_dense_preferences(self, seed):
        knobs = GenParams(
            seed=seed, n_rules=6 + seed % 7, n_atoms=4 + seed % 4, max_pos_body=seed % 3,
            pref_density=0.9,
        )
        p = random_lpp(knobs)
        assert preferred_generating_sets_gno(p) == _by_definition(p)

    def test_loops_with_tail(self):
        for seed in range(400):
            p = loops_with_tail(seed)
            assert preferred_generating_sets_gno(p) == _by_definition(p), seed

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("chain", [False, True])
    def test_even_loops(self, k, seed, chain):
        p = even_loops(k, seed, chain)
        assert preferred_generating_sets_gno(p) == _by_definition(p)


class TestFixpointWidening:
    def test_spurious_fixpoints_exist_without_the_generating_restriction(self):
        # {r1, r2} solves the fixpoint equation but is not a generating set;
        # restricting candidates to generating sets is load-bearing.
        assert gno_fixpoint_subsets(BE) == [frozenset({"r1", "r2"})]
        assert preferred_generating_sets_gno(BE) == []

    @settings(max_examples=80, deadline=None)
    @given(small_programs(max_rules=4))
    def test_preferred_sets_are_among_the_fixpoints(self, p):
        widened = set(gno_fixpoint_subsets(p))
        for r in preferred_generating_sets_gno(p):
            assert r in widened
