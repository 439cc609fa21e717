from dataclasses import replace

import pytest
from helpers import (
    FACT_CHAIN,
    KERNEL_PROGRAMS,
    MUTUAL_DEFAULTS,
    even_loops,
    lit,
    lits,
    literal_families,
    loops_with_tail,
    preferred_generating_sets,
    small_programs,
    subsets_in_mask_order,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from prefas import direct, fixtures, kernels
from prefas.base import (
    BOUND_VARIABLES,
    AnswerSet,
    Bounds,
    _index,
    answer_sets,
    defeats,
    generating_sets,
    gl_answer_sets,
    gl_is_answer_set,
    gr,
    is_consistent,
    is_generating,
    is_stratified,
    minpos,
    reduct,
)
from prefas.direct import directly_overrides, reduct_d
from prefas.syntax import BoundExceededError, Literal, PrefasError, PrefProgram, Rule, parse_program
from prefas.verify import GenParams, random_lpp

RUN = fixtures.load("indirect_conflict")
CAR = fixtures.load("car_recommender")
SELF_BLOCK = fixtures.load("self_blocking_choice")


class TestDefeats:
    def test_rule_defeats_rule(self):
        assert defeats([RUN.rule("r1")], [RUN.rule("r3")])
        assert not defeats([RUN.rule("r2")], [RUN.rule("r3")])

    def test_empty_set_defeats_nothing(self):
        assert not defeats([], [RUN.rule("r3")])

    def test_set_versus_set(self):
        assert defeats(RUN.rules_of({"r1", "r2"}), RUN.rules_of({"r3"}))
        assert defeats(RUN.rules_of({"r3"}), RUN.rules_of({"r1", "r2"}))
        assert not defeats(RUN.rules_of({"r2"}), RUN.rules_of({"r3"}))


class TestGr:
    def test_single_applicable_rule(self):
        assert gr(lits("a"), MUTUAL_DEFAULTS) == {"r1"}

    def test_empty_literal_set_keeps_positive_body_free_rules(self):
        assert gr(frozenset(), MUTUAL_DEFAULTS) == {"r1", "r3"}

    def test_car_recommender_second_answer_set(self):
        s2 = lits("nice(car_1)", "safe(car_2)", "-rec(car_1)", "rec(car_2)")
        assert gr(s2, CAR) == {"r1", "r2", "u2", "u4"}


class TestMinpos:
    def test_fact_chain(self):
        assert minpos(FACT_CHAIN.rules) == {"r1", "r2"}

    def test_empty(self):
        assert minpos([]) == frozenset()

    def test_self_supporting_rule_never_fires(self):
        r = Rule("r1", lit("a"), frozenset({lit("a")}))
        assert minpos([r]) == frozenset()

    @settings(max_examples=100, deadline=None)
    @given(small_programs())
    def test_monotone_and_idempotent(self, p):
        labels = [r.label for r in p.rules]
        half = p.rules_of(labels[: len(labels) // 2])
        assert minpos(half) <= minpos(p.rules)
        fixed = minpos(p.rules)
        assert minpos(p.rules_of(fixed)) == fixed


class TestReduct:
    def test_removes_defeated_rule(self):
        kept = reduct(MUTUAL_DEFAULTS, {"r1"})
        assert [r.label for r in kept] == ["r1", "r2"]

    def test_empty_rule_set_removes_nothing(self):
        assert reduct(RUN, frozenset()) == RUN.rules

    def test_indirect_conflict_with_r3(self):
        kept = reduct(RUN, {"r3"})
        assert [r.label for r in kept] == ["r1", "r3"]

    @settings(max_examples=100, deadline=None)
    @given(small_programs())
    def test_result_is_subset(self, p):
        labels = frozenset(r.label for r in p.rules)
        assert set(reduct(p, labels)) <= set(p.rules)


class TestGeneratingSets:
    def test_single_default(self):
        assert is_generating(MUTUAL_DEFAULTS, {"r1"})

    def test_indirect_conflict(self):
        assert is_generating(RUN, {"r1", "r2"})
        assert not is_generating(RUN, {"r2"})

    def test_empty_set_generating_iff_nothing_starts(self):
        assert is_generating(RUN, frozenset()) == (minpos(reduct(RUN, frozenset())) == frozenset())
        assert not is_generating(RUN, frozenset())
        assert is_generating(PrefProgram(()), frozenset())

    def test_enumeration_indirect_conflict(self):
        assert generating_sets(RUN) == [{"r1", "r2"}, {"r3"}]

    def test_enumeration_empty_program(self):
        assert generating_sets(PrefProgram(())) == [frozenset()]

    def test_enumeration_car_recommender(self):
        assert generating_sets(CAR) == [
            {"r1", "r2", "r3", "u1"},
            {"r1", "r2", "u4", "u2"},
        ]

    def test_bound_is_enforced(self):
        with pytest.raises(BoundExceededError):
            generating_sets(RUN, Bounds(max_rules=2))


# Programs beyond the sizes the Hypothesis strategy draws, checked against
# the object-level definitions over every rule subset.  Most random
# programs of this size have one generating set; seeds 6, 18, 51 and 54
# give several, or d-preferred sets that differ from them, at some sizes.
# The small programs of ``helpers.KERNEL_PROGRAMS`` add programs in which
# every rule is free, in which none is, and whose positive bodies read
# literals that no rule derives.
ENUMERATED_PROGRAMS = [
    *(
        pytest.param(random_lpp(GenParams(seed=seed, n_rules=n_rules)), id=f"{n_rules}-{seed}")
        for n_rules in (8, 10, 12)
        for seed in (0, 1, 6, 18, 51, 54)
    ),
    *(pytest.param(p, id=name) for name, p in KERNEL_PROGRAMS),
]


class TestEnumerationMatchesDefinition:
    @pytest.mark.parametrize("p", ENUMERATED_PROGRAMS)
    def test_generating_sets(self, p):
        expected = [r for r in subsets_in_mask_order(p) if is_generating(p, r)]
        assert generating_sets(p) == expected

    @pytest.mark.parametrize("p", ENUMERATED_PROGRAMS)
    def test_preferred_generating_sets_d(self, p):
        expected = [r for r in subsets_in_mask_order(p) if minpos(reduct_d(p, r)) == r]
        assert preferred_generating_sets(direct, p) == expected

    @pytest.mark.parametrize(
        "n_rules,seed", [(10, 6), (10, 87), (12, 0), (12, 18), (12, 54), (12, 70)]
    )
    def test_preferred_generating_sets_d_with_overrides(self, n_rules, seed):
        # some rule directly overrides one of its defeaters, so the search
        # runs on a removes table other than defeats
        p = random_lpp(GenParams(seed=seed, n_rules=n_rules))
        assert any(directly_overrides(r1, r2, p.prefs) for r1 in p.rules for r2 in p.rules)
        expected = [r for r in subsets_in_mask_order(p) if minpos(reduct_d(p, r)) == r]
        assert preferred_generating_sets(direct, p) == expected

    def test_preferred_generating_sets_d_on_loops_with_tail(self):
        # several generating sets per program, where random_lpp draws have
        # about one.  R = minpos(X) only when minpos(R) == R, so only those
        # subsets can be fixpoints and the reduct is taken of them alone.
        for seed in range(100):
            p = loops_with_tail(seed)
            closed = [r for r in subsets_in_mask_order(p) if minpos(p.rules_of(r)) == r]
            expected = [r for r in closed if minpos(reduct_d(p, r)) == r]
            assert preferred_generating_sets(direct, p) == expected, seed

    @pytest.mark.parametrize("n_rules", [16, 18, 20])
    def test_answer_sets_match_the_classic_oracle(self, n_rules):
        for seed in range(10):
            p = random_lpp(GenParams(seed=seed, n_rules=n_rules, n_atoms=8))
            assert literal_families(answer_sets(p)) == set(gl_answer_sets(p))

    def test_search_grows_with_its_output(self, monkeypatch):
        # 8 independent even loops: 256 generating sets among the 2^16
        # rule sets the search decides rule by rule
        calls = 0
        real = kernels._minpos

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(kernels, "_minpos", counted)
        idx = _index(even_loops(8, 0).rules)
        found = kernels.enum_fixpoints(idx.n, idx.head_bits, idx.pos_masks, idx.defeats)
        assert len(found) == 256
        assert 0 < calls < 8 * 256


class TestBoundsFromEnv:
    def test_reads_the_variables(self, monkeypatch):
        monkeypatch.setenv("PREFAS_MAX_RULES", "7")
        monkeypatch.setenv("PREFAS_MAX_FRAGMENT_RULES", "")
        monkeypatch.setenv("PREFAS_MAX_ATOMS", "3")  # no longer a variable
        assert Bounds.from_env() == Bounds(max_rules=7)

    def test_each_variable_sets_its_field(self, monkeypatch):
        for field, name in BOUND_VARIABLES.items():
            for other in BOUND_VARIABLES.values():
                monkeypatch.delenv(other, raising=False)
            monkeypatch.setenv(name, "3")
            assert Bounds.from_env() == replace(Bounds(), **{field: 3})

    @pytest.mark.parametrize("raw", ["abc", "-1", "2.5"])
    def test_bad_value_names_variable_and_value(self, monkeypatch, raw):
        monkeypatch.setenv("PREFAS_MAX_RULES", raw)
        with pytest.raises(PrefasError, match=f"PREFAS_MAX_RULES.*{raw!r}"):
            Bounds.from_env()


class TestAnswerSets:
    def test_mutual_defaults(self):
        fams = literal_families(answer_sets(MUTUAL_DEFAULTS))
        assert lits("a") in fams
        assert fams == {lits("a"), lits("b")}

    def test_car_recommender(self):
        s1 = lits("nice(car_1)", "safe(car_2)", "rec(car_1)", "-rec(car_2)")
        s2 = lits("nice(car_1)", "safe(car_2)", "-rec(car_1)", "rec(car_2)")
        assert literal_families(answer_sets(CAR)) == {s1, s2}

    def test_self_blocking_choice(self):
        assert literal_families(answer_sets(SELF_BLOCK)) == {lits("-select(a)")}

    def test_generating_witness_matches_gr(self):
        for a in answer_sets(CAR):
            assert a.generating == gr(a.literals, CAR)

    @settings(max_examples=150, deadline=None)
    @given(small_programs())
    def test_literals_consistent_and_equal_heads(self, p):
        for a in answer_sets(p):
            assert is_consistent(a.literals)
            assert a.literals == frozenset(p.rule(l).head for l in a.generating)


class TestConsistency:
    def test_examples(self):
        assert is_consistent([])
        assert is_consistent(lits("a", "-b", "p(x)"))
        assert is_consistent([lit("a"), lit("a")])
        assert not is_consistent(lits("a", "b", "-a"))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Literal, st.sampled_from(["a", "b", "c", "p(x)"]), st.booleans())))
    def test_matches_the_complement_definition(self, literals):
        # one complement tuple per literal, as the test was written before
        # it compared the atom count with the literal count
        distinct = set(literals)
        clash = any(Literal(l.atom, not l.positive) in distinct for l in distinct)
        assert is_consistent(literals) == (not clash)


class TestClassicOracle:
    def test_indirect_conflict(self):
        assert set(gl_answer_sets(RUN)) == {lits("a", "x"), lits("b")}

    def test_empty_program(self):
        assert gl_answer_sets(PrefProgram(())) == [frozenset()]

    def test_mutual_defaults(self):
        assert set(gl_answer_sets(MUTUAL_DEFAULTS)) == {lits("a"), lits("b")}

    def test_inconsistent_facts_have_no_answer_set(self):
        p = parse_program("r1: a.\nr2: -a.")
        assert gl_answer_sets(p) == []
        assert answer_sets(p) == []

    def test_atom_bound_is_enforced(self):
        expected = r"bounded at 3 \(Bounds\.max_atoms\)$"
        with pytest.raises(BoundExceededError, match=expected) as raised:
            gl_answer_sets(CAR, Bounds(max_atoms=3))
        assert raised.value.field == "max_atoms"

    def test_bound_counts_head_literals_not_atoms(self):
        # 9 atoms but 18 head literals, so 2^18 candidates: the atom count
        # passes the bound of 16, the candidate space must not
        text = "\n".join(
            f"p{i}: a{i} :- not -a{i}.\nn{i}: -a{i} :- not a{i}." for i in range(9)
        )
        expected = r"18 distinct head literals; .* bounded at 16 \(Bounds\.max_atoms\)$"
        with pytest.raises(BoundExceededError, match=expected) as raised:
            gl_answer_sets(parse_program(text), Bounds(max_atoms=16))
        assert raised.value.field == "max_atoms"

    @settings(max_examples=200, deadline=None)
    @given(small_programs())
    def test_agrees_with_generating_set_route(self, p):
        assert literal_families(answer_sets(p)) == set(gl_answer_sets(p))


class TestStratified:
    def test_fact_beats_default(self):
        assert is_stratified(fixtures.load("brewka_eiter"))

    def test_indirect_conflict_is_not(self):
        assert not is_stratified(RUN)

    def test_empty(self):
        assert is_stratified(PrefProgram(()))

    def test_positive_cycle_is_fine(self):
        assert is_stratified(parse_program("r1: a :- b.\nr2: b :- a."))

    def test_negative_self_loop_is_not(self):
        assert not is_stratified(parse_program("r1: a :- not a."))

    def test_classical_literals_are_distinct_nodes(self):
        # a and -a do not close a cycle by themselves
        assert is_stratified(parse_program("r1: a :- not -a."))


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_generating_sets_with_consistent_heads_equal_gr(p):
    for r in generating_sets(p):
        heads = frozenset(p.rule(l).head for l in r)
        if is_consistent(heads):
            assert r == gr(heads, p)


@settings(max_examples=100, deadline=None)
@given(small_programs())
def test_gl_membership_matches_enumeration(p):
    fams = literal_families(answer_sets(p))
    for s in fams:
        assert gl_is_answer_set(p.rules, s)
