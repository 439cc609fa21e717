from helpers import DIRECT_PAIR, lits, literal_families, preferred_generating_sets, small_programs
from hypothesis import given, settings

from prefas import direct, fixtures
from prefas.base import answer_sets, is_generating
from prefas.direct import (
    directly_conflicting,
    directly_overrides,
    preferred_answer_sets_d,
    reduct_d,
)
from prefas.syntax import PrefProgram

RUN = fixtures.load("indirect_conflict")


class TestDirectConflict:
    def test_mutual_defeat(self):
        assert directly_conflicting(DIRECT_PAIR.rule("r1"), DIRECT_PAIR.rule("r2"))

    def test_one_way_defeat_is_not_a_conflict(self):
        assert not directly_conflicting(RUN.rule("r1"), RUN.rule("r3"))

    def test_rule_against_itself(self):
        assert not directly_conflicting(RUN.rule("r1"), RUN.rule("r1"))


class TestDirectOverride:
    def test_preferred_side_overrides(self):
        assert directly_overrides(DIRECT_PAIR.rule("r1"), DIRECT_PAIR.rule("r2"), DIRECT_PAIR.prefs)

    def test_no_preference_no_override(self):
        assert not directly_overrides(DIRECT_PAIR.rule("r1"), DIRECT_PAIR.rule("r2"), frozenset())

    def test_preference_without_conflict_does_not_override(self):
        assert not directly_overrides(RUN.rule("r3"), RUN.rule("r2"), RUN.prefs)


class TestReductD:
    def test_indirect_conflict_is_ignored(self):
        kept = reduct_d(RUN, {"r1", "r2"})
        assert [r.label for r in kept] == ["r1", "r2"]

    def test_empty_rule_set(self):
        assert reduct_d(RUN, frozenset()) == RUN.rules

    def test_override_saves_the_preferred_rule(self):
        kept = reduct_d(DIRECT_PAIR, {"r2"})
        assert [r.label for r in kept] == ["r1", "r2"]


class TestPreferredAnswerSetsD:
    def test_direct_pair_keeps_only_preferred(self):
        assert literal_families(preferred_answer_sets_d(DIRECT_PAIR)) == {lits("a")}

    def test_indirect_conflict_passes_through(self):
        assert literal_families(preferred_answer_sets_d(RUN)) == {lits("a", "x"), lits("b")}

    def test_brewka_eiter(self):
        be = fixtures.load("brewka_eiter")
        assert literal_families(preferred_answer_sets_d(be)) == {lits("b")}

    @settings(max_examples=120, deadline=None)
    @given(small_programs(with_prefs=False))
    def test_empty_prefs_equal_answer_sets(self, p):
        assert literal_families(preferred_answer_sets_d(p)) == literal_families(answer_sets(p))

    @settings(max_examples=120, deadline=None)
    @given(small_programs())
    def test_subset_of_answer_sets_and_generating(self, p):
        fams = literal_families(answer_sets(p))
        for a in preferred_answer_sets_d(p):
            assert a.literals in fams
        for r in preferred_generating_sets(direct, p):
            assert is_generating(p, r)
