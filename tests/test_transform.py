import pytest
from helpers import (
    COLLIDING,
    KERNEL_PROGRAMS,
    even_loops,
    lits,
    literal_families,
    rewrite_by_forms,
    rules_of_form,
    small_programs,
    transformed_answer_sets_by_literals,
)
from hypothesis import given, settings

import prefas.kernels
from prefas import base, direct, fixtures, fragments, gno
from prefas import transform as transform_module
from prefas.base import Bounds, answer_sets
from prefas.gno import preferred_answer_sets_gno
from prefas.syntax import Literal, PrefasError, PrefProgram, parse_program
from prefas.transform import (
    check_correspondence,
    embed,
    format_transformed,
    project,
    transform,
    transformed_answer_sets,
)
from prefas.verify import GenParams, random_lpp

RUN = fixtures.load("indirect_conflict")
BE = fixtures.load("brewka_eiter")


def rule_count_formula(p):
    return (
        2 * len(p.rules)
        + sum(
            sum(1 for q in p.rules if (q.label, r.label) not in p.prefs)
            for r in p.rules
        )
        + sum(len(r.neg_body) for r in p.rules)
    )


class TestStructure:
    def test_indirect_conflict_form_counts(self):
        t = transform(RUN)
        assert [len(rules_of_form(t, f)) for f in (1, 2, 3, 4)] == [3, 3, 8, 2]
        assert len(t.program) == 16

    def test_shadow_rule_for_less_preferred_support_is_absent(self):
        # r2 < r3, so no form-3 rule may rebuild r2's head x inside r3's
        # shadow copy; the x shadow occurs in a body but is never derivable
        t = transform(RUN)
        x_shadow_r3 = t.shadow_literal(Literal("x"), "r3")
        assert x_shadow_r3 not in {r.head for r in rules_of_form(t, 3)}
        assert x_shadow_r3 in {l for r in rules_of_form(t, 3) for l in r.pos_body}

    def test_single_fact(self):
        t = transform(parse_program("r1: a."))
        assert [str(r) for r in t.program] == [
            "t1: a :- __n_r1.",
            "t2: __n_r1.",
            "t3: __s_r1_a :- __n_r1.",
        ]

    def test_empty_program(self):
        t = transform(parse_program(""))
        assert t.program == ()
        assert format_transformed(t) == ""

    def test_reserved_source_atoms_are_refused(self):
        p = parse_program("r1: __x.", allow_reserved=True)
        with pytest.raises(PrefasError, match="reserved"):
            transform(p)

    def test_output_reparses(self):
        t = transform(fixtures.load("car_recommender"))
        again = parse_program(format_transformed(t), allow_reserved=True)
        assert frozenset(again.rules) == frozenset(t.program)

    @settings(max_examples=100, deadline=None)
    @given(small_programs())
    def test_rule_count_formula(self, p):
        assert len(transform(p).program) == rule_count_formula(p)

    @settings(max_examples=100, deadline=None)
    @given(small_programs())
    def test_generated_atoms_are_fresh(self, p):
        t = transform(p)
        generated = set(t.name_atoms.values()) | set(t.shadow_atoms.values()) | {t.inc_atom}
        assert len(generated) == len(t.name_atoms) + len(t.shadow_atoms) + 1
        assert not generated & p.atoms
        assert all(a.startswith("__") for a in generated)


class TestNameCollisions:
    @pytest.mark.parametrize("text", COLLIDING.values(), ids=COLLIDING)
    def test_taken_names_get_a_suffix(self, text):
        p = parse_program(text)
        t = transform(p)
        generated = [*t.name_atoms.values(), *t.shadow_atoms.values(), t.inc_atom]
        assert len(set(generated)) == len(generated)
        _assert_rewritten_by_forms(p)
        again = parse_program(format_transformed(t), allow_reserved=True)
        assert again.rules == t.program
        assert check_correspondence(p).ok

    def test_the_later_shadow_takes_the_suffix(self):
        t = transform(parse_program(COLLIDING["one_rule"]))
        assert t.shadow_atoms[(Literal("neg_a"), "r1")] == "__s_r1_neg_a"
        assert t.shadow_atoms[(Literal("a", False), "r1")] == "__s_r1_neg_a_1"
        t = transform(parse_program(COLLIDING["two_rules"]))
        assert t.shadow_atoms[(Literal("_x"), "r")] == "__s_r__x"
        assert t.shadow_atoms[(Literal("x"), "r_")] == "__s_r__x_1"


def _rewriting_draws():
    """200 random_lpp draws of 3 to 12 rules at preference densities 0 to
    0.9, every fifth one stratified."""
    return [
        random_lpp(GenParams(
            seed=seed,
            n_rules=3 + seed % 10,
            pref_density=(0.0, 0.3, 0.6, 0.9)[seed % 4],
            stratified=seed % 5 == 0,
        ))
        for seed in range(200)
    ]


def _assert_rewritten_by_forms(p):
    t = transform(p)
    rules, forms, name_atoms, shadow_atoms = rewrite_by_forms(p)
    assert t.program == rules  # labels, heads and bodies, in order
    assert list(t.forms.items()) == list(forms.items())
    assert list(t.name_atoms.items()) == list(name_atoms.items())
    assert list(t.shadow_atoms.items()) == list(shadow_atoms.items())
    assert t.inc_atom == "__inc"


class TestRewritingMatchesForms:
    """``transform`` against ``helpers.rewrite_by_forms``, which writes the
    four forms out rule by rule and shares no code with it."""

    @pytest.mark.parametrize(
        "p", [p for _, p in KERNEL_PROGRAMS], ids=[name for name, _ in KERNEL_PROGRAMS]
    )
    def test_kernel_program(self, p):
        _assert_rewritten_by_forms(p)

    @pytest.mark.parametrize("name", sorted(fixtures.SOURCES))
    def test_fixture(self, name):
        _assert_rewritten_by_forms(fixtures.load(name))

    def test_random_programs(self):
        draws = _rewriting_draws()
        assert any(p.prefs for p in draws) and any(not p.prefs for p in draws)
        for p in draws:
            _assert_rewritten_by_forms(p)

    @settings(max_examples=100, deadline=None)
    @given(small_programs())
    def test_small_programs(self, p):
        _assert_rewritten_by_forms(p)


class TestSolving:
    def test_indirect_conflict_answer_set(self):
        t = transform(RUN)
        sets = transformed_answer_sets(t)
        assert sets == [
            lits("b", "__n_r3", "__s_r1_b", "__s_r2_b", "__s_r3_b")
        ]
        assert [project(s, t) for s in sets] == [lits("b")]

    def test_agrees_with_direct_enumeration_of_the_output(self):
        t = transform(RUN)
        ours = set(transformed_answer_sets(t))
        theirs = literal_families(answer_sets(PrefProgram(t.program), Bounds(max_rules=20)))
        assert ours == theirs

    def test_no_answer_set_contains_name_and_blocker(self):
        for name in ("indirect_conflict", "car_recommender", "interlocked_choices"):
            p = fixtures.load(name)
            t = transform(p)
            for a in transformed_answer_sets(t):
                for r in p.rules:
                    if t.name_literal(r.label) in a:
                        assert not r.neg_body & a


def _mismatched_programs(programs):
    """The programs whose transformed answer sets differ, as lists, between
    the bitmask route and the literal-set oracle."""
    out = []
    for p in programs:
        t = transform(p)
        if transformed_answer_sets(t) != transformed_answer_sets_by_literals(t):
            out.append(p)
    return out


class TestBitmaskRouteMatchesOracle:
    def test_default_random_programs(self):
        programs = [random_lpp(GenParams(seed=seed)) for seed in range(200)]
        assert _mismatched_programs(programs) == []

    def test_ten_rule_random_programs(self):
        programs = [random_lpp(GenParams(seed=seed, n_rules=10)) for seed in range(30)]
        assert _mismatched_programs(programs) == []

    def test_dense_preference_programs(self):
        programs = [random_lpp(GenParams(seed=seed, pref_density=0.9)) for seed in range(60)]
        assert _mismatched_programs(programs) == []

    def test_stratified_programs(self):
        programs = [random_lpp(GenParams(seed=seed, stratified=True)) for seed in range(60)]
        assert _mismatched_programs(programs) == []

    def test_twelve_rule_random_programs(self):
        programs = [
            random_lpp(GenParams(seed=seed, n_rules=12, pref_density=density))
            for seed, density in ((0, 0.3), (1, 0.6), (2, 0.9))
        ]
        assert _mismatched_programs(programs) == []

    @settings(max_examples=200, deadline=None)
    @given(small_programs())
    def test_small_programs(self, p):
        assert _mismatched_programs([p]) == []

    @pytest.mark.parametrize("name", sorted(fixtures.SOURCES))
    def test_fixture(self, name):
        assert _mismatched_programs([fixtures.load(name)]) == []

    def test_uses_no_fast_path(self, monkeypatch):
        # the route is the oracle for gno: neither the rewriting nor its
        # solver may reach the enumeration kernels, the shared index, any
        # preference semantics or the generating-set enumeration
        programs = [fixtures.load(name) for name in sorted(fixtures.SOURCES)]
        expected = [transformed_answer_sets_by_literals(transform(p)) for p in programs]

        def refuse(*args, **kwargs):
            raise AssertionError("the transform route called a fast path")

        for name in ("enum_fixpoints", "enum_closed", "minpos"):
            monkeypatch.setattr(prefas.kernels, name, refuse)
        for module in (gno, transform_module):
            monkeypatch.setattr(module, "preferred_answer_sets_gno", refuse)
        for name in ("generating_sets", "answer_sets", "_index", "_compiled"):
            monkeypatch.setattr(base, name, refuse)
        monkeypatch.setattr(direct, "preferred_answer_sets_d", refuse)
        monkeypatch.setattr(fragments, "preferred_answer_sets_g", refuse)
        assert [transformed_answer_sets(transform(p)) for p in programs] == expected


class TestScale:
    """Programs of 20 rules, the default ``max_rules``, and one of 40: 2^20
    guesses over the name atoms would take seconds each."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ten_even_loops(self, seed):
        assert check_correspondence(even_loops(10, seed)).ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_twenty_rule_random_programs(self, seed):
        p = random_lpp(GenParams(seed=seed, n_rules=20, n_atoms=12, pref_density=0.6))
        assert check_correspondence(p).ok

    def test_forty_rule_random_program(self):
        # twice the default rule bound; the search over the name atoms and
        # the gno search each take milliseconds here
        p = random_lpp(GenParams(seed=0, n_rules=40))
        assert len(p.rules) == 40
        assert check_correspondence(p, Bounds(max_rules=40)).ok


class TestProjectEmbed:
    def test_project_keeps_source_literals_only(self):
        t = transform(RUN)
        assert project(lits("b", "__n_r3", "__s_r1_b"), t) == lits("b")
        assert project(frozenset(), t) == frozenset()
        assert project(lits("__n_r1", "__inc"), t) == frozenset()

    def test_embed_indirect_conflict(self):
        t = transform(RUN)
        assert embed(lits("b"), RUN, t) == lits(
            "b", "__n_r3", "__s_r1_b", "__s_r2_b", "__s_r3_b"
        )

    def test_embed_empty_program(self):
        p = parse_program("")
        assert embed(frozenset(), p, transform(p)) == frozenset()

    def test_embed_refuses_non_preferred_sets(self):
        t = transform(RUN)
        with pytest.raises(ValueError):
            embed(lits("a", "x"), RUN, t)  # an answer set, but not gno-preferred

    def test_embed_round_trips_car_recommender(self):
        car = fixtures.load("car_recommender")
        t = transform(car)
        [s2] = [a.literals for a in preferred_answer_sets_gno(car)]
        assert project(embed(s2, car, t), t) == s2


class TestCorrespondence:
    def test_indirect_conflict(self):
        rep = check_correspondence(RUN)
        assert rep.ok
        assert set(rep.projected) == {lits("b")}
        assert set(rep.preferred) == {lits("b")}

    def test_brewka_eiter_both_sides_empty(self):
        rep = check_correspondence(BE)
        assert rep.ok
        assert rep.projected == ()
        assert rep.preferred == ()

    def test_preference_free_programs_recover_answer_sets(self):
        p = PrefProgram(RUN.rules)
        rep = check_correspondence(p)
        assert rep.ok
        assert set(rep.projected) == literal_families(answer_sets(p))

    @settings(max_examples=200, deadline=None)
    @given(small_programs())
    def test_random_programs(self, p):
        assert check_correspondence(p).ok

    def test_gno_is_solved_once(self, monkeypatch):
        car = fixtures.load("car_recommender")
        calls = []

        def counted(p, bounds=None):
            calls.append(p)
            return preferred_answer_sets_gno(p, bounds)

        monkeypatch.setattr(transform_module, "preferred_answer_sets_gno", counted)
        rep = check_correspondence(car)
        assert rep.ok and rep.preferred
        assert calls == [car]

    def test_a_given_gno_family_is_not_solved_again(self, monkeypatch):
        def unexpected(p, bounds=None):
            raise AssertionError("gno solved although its family was given")

        monkeypatch.setattr(transform_module, "preferred_answer_sets_gno", unexpected)
        assert check_correspondence(RUN, None, {lits("b")}).ok
        rep = check_correspondence(RUN, None, set())
        assert not rep.ok
        assert rep.extra == (lits("b"),)
