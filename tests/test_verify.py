import hashlib
from collections import Counter

import pytest
from helpers import literal_families, lits

from prefas import fixtures, transform, verify
from prefas.base import answer_sets, is_stratified
from prefas.direct import preferred_answer_sets_d
from prefas.fragments import preferred_answer_sets_g
from prefas.gno import preferred_answer_sets_gno
from prefas.syntax import format_program, parse_program
from prefas.verify import (
    SEMANTICS,
    GenParams,
    Violation,
    check_hierarchy,
    check_monotonicity,
    check_principle_1,
    check_program,
    check_strat_equivalence,
    fuzz,
    preferred_families,
    random_lpp,
    solve,
)

RUN = fixtures.load("indirect_conflict")
BE = fixtures.load("brewka_eiter")
DIRECT_PAIR = fixtures.load("self_blocking_choice")  # r1/r2 are a direct conflict


class TestPrinciple1:
    def test_direct_pair_excludes_the_loser(self):
        from helpers import DIRECT_PAIR as pair

        for semantics in ("d", "g", "gno"):
            assert check_principle_1(pair, semantics) == []
            assert lits("b") not in preferred_families(pair, semantics)

    def test_empty_preferences_are_vacuous(self):
        from prefas.syntax import PrefProgram

        plain = PrefProgram(RUN.rules)
        for semantics in ("d", "g", "gno"):
            assert check_principle_1(plain, semantics) == []

    def test_violation_is_detected_for_a_broken_semantics(self):
        # feed the checker the full answer-set family as if it were the
        # preferred family: the less preferred option must be flagged
        from helpers import DIRECT_PAIR as pair
        from prefas import verify

        real = verify.preferred_families
        try:
            verify.preferred_families = lambda p, s, b=None, families=None: {
                a.literals for a in verify.answer_sets(p, b)
            }
            found = check_principle_1(pair, "d")
        finally:
            verify.preferred_families = real
        assert len(found) == 1
        assert found[0].witness["excluded_set"] == ["b"]


class TestHierarchy:
    def test_fixtures(self):
        assert check_hierarchy(RUN) == []
        assert check_hierarchy(BE) == []
        assert check_hierarchy(fixtures.load("car_recommender")) == []

    def test_brewka_eiter_witnesses_strictness(self):
        assert preferred_families(BE, "gno") < preferred_families(BE, "g")

    def test_indirect_conflict_witnesses_strictness(self):
        assert preferred_families(RUN, "g") < preferred_families(RUN, "d")


class TestStratEquivalence:
    def test_brewka_eiter(self):
        assert check_strat_equivalence(BE) == []

    def test_non_stratified_is_vacuous(self):
        assert not is_stratified(RUN)
        assert check_strat_equivalence(RUN) == []


class TestMonotonicity:
    def test_empty_versus_fixture_prefs(self):
        assert check_monotonicity(RUN, frozenset()) == []

    def test_equal_prefs_are_vacuous(self):
        assert check_monotonicity(RUN, RUN.prefs) == []

    def test_non_nested_prefs_are_rejected(self):
        with pytest.raises(ValueError):
            check_monotonicity(RUN, {("r3", "r2")})

    def test_relations_are_compared_by_their_closures(self):
        # r1 < r3 is not written, but it is in the closure of the written pairs
        p = parse_program("r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.")
        assert check_monotonicity(p, [("r1", "r3")]) == []
        assert check_monotonicity(p, p.pairs) == []
        assert check_monotonicity(p, p.prefs) == []

    def test_a_relation_outside_the_closure_is_rejected(self):
        p = parse_program("r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.")
        with pytest.raises(ValueError, match="closure of the weaker pairs"):
            check_monotonicity(p, [("r3", "r1")])
        with pytest.raises(ValueError, match="closure of the weaker pairs"):
            check_monotonicity(p, [("r1", "r3"), ("r3", "r2")])

    def test_a_violation_names_the_program_and_the_weaker_closure(self, monkeypatch):
        # a broken solver that finds a set only under the stronger relation
        p = parse_program("r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.")
        monkeypatch.setattr(
            verify, "preferred_families", lambda q, s, b=None, f=None: {lits("a")} if q is p else set()
        )
        (found,) = check_monotonicity(p, [("r2", "r3")])
        assert found.program is p
        assert found.witness == {"semantics": "g", "weaker": [("r2", "r3")], "escaped": [["a"]]}


class TestPrincipleFixtures:
    def test_expected_families(self):
        # independent_choices keeps its answer set under d and g, and gno
        # drops it; interlocked_choices turns the same preference into an
        # indirect conflict; self_blocking_choice has an answer set but no
        # preferred one
        independent = fixtures.load("independent_choices")
        interlocked = fixtures.load("interlocked_choices")
        self_blocking = fixtures.load("self_blocking_choice")
        select = {lits("-select(a)", "select(b)")}
        assert preferred_families(independent, "g") == select
        assert preferred_families(independent, "d") == select
        assert preferred_families(independent, "gno") == set()
        assert preferred_families(interlocked, "g") == {lits("-select(b)", "select(a)")}
        assert preferred_families(interlocked, "gno") == {lits("-select(b)", "select(a)")}
        assert preferred_families(self_blocking, "as") == {lits("-select(a)")}
        assert preferred_families(self_blocking, "g") == set()
        assert preferred_families(self_blocking, "gno") == set()


class TestRandomLpp:
    def test_deterministic_in_seed(self):
        a = random_lpp(GenParams(seed=11))
        b = random_lpp(GenParams(seed=11))
        assert a == b and a.rules == b.rules and a.pairs == b.pairs

    def test_zero_density_means_no_preferences(self):
        p = random_lpp(GenParams(seed=3, pref_density=0.0))
        assert p.prefs == frozenset()

    def test_stratified_mode(self):
        drawn = [random_lpp(GenParams(seed=seed, stratified=True)) for seed in range(1000)]
        assert all(is_stratified(p) for p in drawn)
        # drawn by construction, and default negation is still common
        assert sum(any(r.neg_body for r in p.rules) for p in drawn) > 990

    def test_plain_draws_are_pinned(self):
        # the benchmark's reference inputs are plain draws, so the stratified
        # mode must not move the plain stream
        text = "".join(format_program(random_lpp(GenParams(seed=seed))) for seed in range(50))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "beda02800224f7806bb91157e865f08b9c20dfc2dd2777b7afa474c770a5b15b"

    def test_respects_sizes(self):
        p = random_lpp(GenParams(seed=5, n_rules=4, n_atoms=3, max_pos_body=1, max_neg_body=1))
        assert len(p.rules) == 4
        assert all(len(r.pos_body) <= 1 and len(r.neg_body) <= 1 for r in p.rules)


class TestFuzz:
    def test_small_campaign_is_clean_and_reproducible(self):
        report = fuzz(GenParams(seed=100, n_rules=5, n_atoms=4), 25)
        assert report.ok
        again = fuzz(GenParams(seed=100, n_rules=5, n_atoms=4), 25)
        assert report.to_dict() == again.to_dict()

    def test_zero_count_gives_empty_report(self):
        report = fuzz(GenParams(seed=0), 0)
        assert report.ok
        assert report.checked == {}

    def test_selected_properties_only(self):
        report = fuzz(GenParams(seed=2, n_rules=4, n_atoms=4), 5, properties=("hierarchy",))
        assert set(report.checked) == {"hierarchy"}

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            fuzz(GenParams(seed=0), 1, properties=("nope",))

    def test_each_family_is_solved_once_per_program(self, monkeypatch):
        # the drawn program, its stratified draw, its preference-free copy
        # and its weaker-preference copy: 178 (semantics, program) pairs,
        # each solved once per run, and again by a second run
        calls = Counter()
        for semantics in ("d", "g", "gno"):
            name = f"preferred_answer_sets_{semantics}"

            def counted(p, bounds=None, _real=getattr(verify, name), _semantics=semantics):
                calls[(_semantics, p)] += 1
                return _real(p, bounds)

            monkeypatch.setattr(verify, name, counted)
        assert fuzz(GenParams(seed=0), 20).ok
        assert len(calls) == 178
        assert set(calls.values()) == {1}
        fuzz(GenParams(seed=0), 20)
        assert set(calls.values()) == {2}

    def test_transform_eq_reuses_the_gno_family(self, monkeypatch):
        # check_correspondence gets the gno family from the shared dict
        calls = []
        real = transform.preferred_answer_sets_gno

        def counted(p, bounds=None):
            calls.append(p)
            return real(p, bounds)

        monkeypatch.setattr(transform, "preferred_answer_sets_gno", counted)
        assert fuzz(GenParams(seed=0), 20).ok
        assert calls == []

    def test_a_broken_g_is_still_caught(self, monkeypatch):
        monkeypatch.setattr(verify, "preferred_answer_sets_g", lambda p, bounds=None: [])
        report = fuzz(GenParams(seed=0), 20)
        assert {"hierarchy", "empty_pref", "strat_eq"} <= {v.kind for v in report.violations}

    def test_ten_rule_programs_are_clean(self):
        assert fuzz(GenParams(seed=500, n_rules=10, n_atoms=7), 10).ok

    def test_default_stream_is_pinned(self):
        # the report of ``prefas check --random`` on its default stream:
        # how random_lpp stores the pairs it draws must not move it
        report = fuzz(GenParams(seed=0), 100)
        assert report.to_dict() == FUZZ_SEED_0
        assert str(report) == FUZZ_SEED_0_TEXT


FUZZ_SEED_0 = {
    "count": 100,
    "seed": 0,
    "properties": [
        "principle1", "hierarchy", "strat_eq", "empty_pref", "monotonicity", "transform_eq",
        "pas_subset_as",
    ],
    "checked": {
        "principle1": 100, "hierarchy": 100, "strat_eq": 100, "empty_pref": 100,
        "monotonicity": 100, "transform_eq": 100, "pas_subset_as": 100,
    },
    "violations": [],
    "strictness_witnesses": {"g_over_gno": 5, "d_over_g": 0},
}
FUZZ_SEED_0_TEXT = """\
fuzz: 100 programs from seed 0, properties: principle1, hierarchy, strat_eq, empty_pref, \
monotonicity, transform_eq, pas_subset_as
  principle1: 100 checks
  hierarchy: 100 checks
  strat_eq: 100 checks
  empty_pref: 100 checks
  monotonicity: 100 checks
  transform_eq: 100 checks
  pas_subset_as: 100 checks
  strictness witnesses: g over gno 5, d over g 0
  no violations"""


class TestFamilies:
    def test_answer_sets_are_a_family(self):
        assert preferred_families(RUN, "as") == literal_families(answer_sets(RUN))

    def test_a_family_in_the_dict_is_returned(self):
        families = {}
        first = preferred_families(RUN, "g", None, families)
        assert families == {(RUN, "g"): first}
        families[(RUN, "g")] = frozenset()
        assert preferred_families(RUN, "g", None, families) == frozenset()

    def test_check_program_keeps_nothing_between_calls(self, monkeypatch):
        assert check_program(RUN, ["hierarchy"]) == []
        monkeypatch.setattr(verify, "preferred_answer_sets_g", lambda p, bounds=None: [])
        [violation] = check_program(RUN, ["hierarchy"])
        assert violation.witness["lower"] == "gno"


class TestSolve:
    def test_every_semantics_goes_through_one_dispatch(self):
        car = fixtures.load("car_recommender")
        single = {
            "as": answer_sets,
            "d": preferred_answer_sets_d,
            "gno": preferred_answer_sets_gno,
        }
        for p in (RUN, BE, car):
            for semantics, fn in single.items():
                assert solve(p, semantics) == [(a, None) for a in fn(p)]
            assert solve(p, "g") == preferred_answer_sets_g(p)
            assert all(e is not None for _, e in solve(p, "g"))

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError, match="unknown semantics"):
            solve(RUN, "x")
        with pytest.raises(ValueError, match="unknown semantics"):
            preferred_families(RUN, "x")

    def test_families_follow_solve(self):
        for semantics in ("as", *SEMANTICS):
            expected = frozenset(a.literals for a, _ in solve(BE, semantics))
            assert preferred_families(BE, semantics) == expected


class TestViolationDict:
    def test_seed_only_for_a_drawn_program(self):
        v = Violation("hierarchy", RUN, {"lower": "gno"})
        assert v.to_dict() == {
            "kind": "hierarchy",
            "witness": {"lower": "gno"},
            "program": format_program(RUN),
        }
        drawn = Violation("hierarchy", RUN, {"lower": "gno"}, seed=7).to_dict()
        assert list(drawn) == ["kind", "seed", "witness", "program"]
        assert drawn["seed"] == 7

    def test_fuzz_report_uses_it(self, monkeypatch):
        monkeypatch.setattr(verify, "preferred_answer_sets_g", lambda p, bounds=None: [])
        report = fuzz(GenParams(seed=0), 5, ["hierarchy"])
        assert report.violations
        assert report.to_dict()["violations"] == [v.to_dict() for v in report.violations]
