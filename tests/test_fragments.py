import itertools
from collections import Counter

import pytest
from helpers import (
    even_loops,
    g_families,
    labelset,
    lits,
    literal_families,
    loops_with_tail,
    preferred_stable_fragment_sets,
    small_programs,
    stable_fragment_sets,
    subsets_in_mask_order,
)
from hypothesis import given, settings

from prefas import base, fixtures
from prefas import fragments as fragments_module
from prefas.base import (
    AnswerSet,
    Bounds,
    _beaten,
    answer_sets,
    defeats,
    generating_sets,
    is_consistent,
    is_stratified,
)
from prefas.fragments import (
    _lattice_index,
    _mask_overrides,
    _part_removed,
    conflicting,
    fragments,
    is_fragment,
    overrides,
    preferred_answer_sets_g,
    reduct_g,
)
from prefas.syntax import BoundExceededError, PrefProgram, parse_program
from prefas.verify import GenParams, random_lpp

RUN = fixtures.load("indirect_conflict")
RUN_PLAIN = PrefProgram(RUN.rules)
CAR = fixtures.load("car_recommender")

F1 = labelset()
F2 = labelset("r2")
F3 = labelset("r3")
F4 = labelset("r1", "r2")
F5 = labelset("r2", "r3")
F6 = labelset("r1", "r2", "r3")
E1 = {F1, F2, F4}
E3 = {F1, F3}


def union_of(family):
    return frozenset().union(*family)


def heads_of(p, labels):
    return frozenset(p.rule(l).head for l in labels)


class TestFragments:
    def test_inventory_of_indirect_conflict(self):
        assert set(fragments(RUN)) == {F1, F2, F3, F4, F5, F6}

    def test_unsupported_rule_is_no_fragment(self):
        assert not is_fragment(RUN, {"r1"})
        assert labelset("r1") not in fragments(RUN)

    def test_empty_program(self):
        assert fragments(PrefProgram(())) == [frozenset()]

    def test_bound_is_enforced(self):
        with pytest.raises(BoundExceededError):
            fragments(RUN, Bounds(max_fragment_rules=2))

    @pytest.mark.parametrize("n_rules,max_pos_body", [(8, 2), (10, 1), (12, 0), (12, 2)])
    def test_matches_definition_over_every_subset(self, n_rules, max_pos_body):
        for seed in range(3):
            p = random_lpp(GenParams(seed=seed, n_rules=n_rules, max_pos_body=max_pos_body))
            expected = [t for t in subsets_in_mask_order(p) if is_fragment(p, t)]
            assert fragments(p) == expected


class TestConflicting:
    def test_mutual_fragment_defeat(self):
        assert conflicting(RUN, F3, F4)

    def test_one_way_defeat_is_not_conflict(self):
        assert not conflicting(RUN, F2, F3)

    def test_empty_fragment_conflicts_with_nothing(self):
        assert not conflicting(RUN, F1, F6)


class TestOverrides:
    def test_preferred_fragment_wins(self):
        assert overrides(RUN, F3, F4)
        assert overrides(RUN, F3, F6)

    def test_non_conflicting_pair_never_overrides(self):
        assert not overrides(RUN, F3, F2)

    def test_empty_preferences_never_override(self):
        assert not overrides(RUN_PLAIN, F3, F4)

    def test_never_self_override(self):
        assert not overrides(RUN, F6, F6)

    def test_mask_level_matches_object_level(self):
        for seed in range(40):
            p = random_lpp(GenParams(seed=seed))
            idx = _lattice_index(p, Bounds())
            less = p.less
            for x, y in itertools.product(idx.fragments, repeat=2):
                expected = overrides(p, idx.labels_of(x), idx.labels_of(y))
                assert _mask_overrides(idx, less, x, y) == expected

    def test_asymmetric_on_fixture(self):
        for x, y in itertools.permutations(fragments(RUN), 2):
            assert not (overrides(RUN, x, y) and overrides(RUN, y, x))


class TestReductG:
    def test_plain_reduct_removes_defeated_fragments(self):
        assert reduct_g(RUN_PLAIN, E1) == frozenset(E1)

    def test_preference_lets_overriding_fragments_survive(self):
        # F3 overrides its only defeater F4, and so do F5 and F6: every
        # fragment survives, so E1 is not a fixpoint once r3 is preferred.
        out = reduct_g(RUN, E1)
        assert F3 in out
        assert out == {F1, F2, F3, F4, F5, F6}

    def test_empty_guess_removes_nothing(self):
        assert reduct_g(RUN, frozenset()) == set(fragments(RUN))

    def test_winning_guess_is_a_fixpoint(self):
        assert reduct_g(RUN, E3) == frozenset(E3)

    def test_non_fragment_member_rejected(self):
        with pytest.raises(ValueError):
            reduct_g(RUN, {labelset("r1")})

    def test_unknown_label_named(self):
        # the same error as ``PrefProgram.rules_of``, not a bare KeyError: 'zz'
        with pytest.raises(KeyError, match=r"unknown rule labels: \['zz'\]"):
            reduct_g(RUN, [["zz"]])


class TestStableFragmentSets:
    def test_indirect_conflict(self):
        assert stable_fragment_sets(RUN) == [frozenset(E1), frozenset(E3)]

    def test_empty_program(self):
        assert stable_fragment_sets(PrefProgram(())) == [frozenset({frozenset()})]

    def test_plain_reduct_fixes_each_one(self):
        # a generating set defeats none of its own fragments and every
        # fragment outside it, so stable_fragment_sets does not re-check this
        for seed in range(40):
            p = random_lpp(GenParams(seed=seed))
            plain = PrefProgram(p.rules)
            for e in stable_fragment_sets(p):
                assert reduct_g(plain, e) == e

    def test_car_recommender_families(self):
        shared = {labelset(), labelset("r1"), labelset("r2"), labelset("r1", "r2")}
        with_r3 = shared | {
            labelset("r1", "r3"),
            labelset("r1", "r3", "u1"),
            labelset("r1", "r2", "r3"),
            labelset("r1", "r2", "r3", "u1"),
        }
        with_u4 = shared | {
            labelset("r2", "u4"),
            labelset("r2", "u4", "u2"),
            labelset("r1", "r2", "u4"),
            labelset("r1", "r2", "u4", "u2"),
        }
        assert stable_fragment_sets(CAR) == [
            frozenset(with_r3),
            frozenset(with_u4),
        ]

    def brute_force_stable(self, p):
        frags = fragments(p)
        plain = PrefProgram(p.rules)
        out = []
        for k in range(len(frags) + 1):
            for combo in itertools.combinations(frags, k):
                if reduct_g(plain, combo) == frozenset(combo):
                    out.append(frozenset(combo))
        return out

    @settings(max_examples=60, deadline=None)
    @given(small_programs(max_rules=4))
    def test_matches_brute_force_over_fragment_subsets(self, p):
        expected = set(self.brute_force_stable(p))
        assert set(stable_fragment_sets(p)) == expected

    @settings(max_examples=60, deadline=None)
    @given(small_programs(max_rules=5))
    def test_equivalence_with_generating_sets(self, p):
        # stable fragment sets are exactly the fragment families of
        # generating sets, and their unions recover those sets
        gens = generating_sets(p)
        stables = stable_fragment_sets(p)
        assert [union_of(e) for e in stables] == gens
        for e in stables:
            assert e == {f for f in fragments(p) if f <= union_of(e)}


class TestPreferredAnswerSetsG:
    def test_indirect_conflict(self):
        got = preferred_answer_sets_g(RUN)
        assert g_families(got) == {lits("b")}
        [(answer, witness)] = got
        assert witness == frozenset(E3)
        assert answer.generating == {"r3"}

    def test_preference_between_non_conflicting_rules_is_ignored(self):
        be = fixtures.load("brewka_eiter")
        assert g_families(preferred_answer_sets_g(be)) == {lits("b")}

    def test_car_recommender_keeps_user_choice(self):
        s2 = lits("nice(car_1)", "safe(car_2)", "-rec(car_1)", "rec(car_2)")
        got = preferred_answer_sets_g(CAR)
        assert g_families(got) == {s2}
        [(answer, _)] = got
        assert answer.generating == {"r1", "r2", "u2", "u4"}

    def test_robust_outside_rules_leave_the_lattice_unbuilt(self):
        # r1 defeats r3, so r3 is robust outside {r1, r2}, the one
        # generating set; its heads clash, so no witness is needed either
        p = parse_program("r1: a.\nr2: -a.\nr3: b :- not a.")
        base._index.cache_clear()
        assert generating_sets(p) == [labelset("r1", "r2")]
        assert preferred_answer_sets_g(p) == []
        assert "fragments" not in base._index(p.rules).__dict__

    def brute_force_preferred(self, p):
        frags = fragments(p)
        fams = set()
        for k in range(len(frags) + 1):
            for combo in itertools.combinations(frags, k):
                if reduct_g(p, combo) == frozenset(combo):
                    heads = frozenset(p.rule(l).head for f in combo for l in f)
                    if is_consistent(heads):
                        fams.add(heads)
        return fams

    @settings(max_examples=50, deadline=None)
    @given(small_programs(max_rules=4))
    def test_matches_brute_force_over_fragment_subsets(self, p):
        assert g_families(preferred_answer_sets_g(p)) == self.brute_force_preferred(p)

    @settings(max_examples=80, deadline=None)
    @given(small_programs())
    def test_preferred_sets_are_stable(self, p):
        stable = set(stable_fragment_sets(p))
        for e in preferred_stable_fragment_sets(p):
            assert e in stable

    @settings(max_examples=80, deadline=None)
    @given(small_programs())
    def test_subset_of_answer_sets(self, p):
        fams = literal_families(answer_sets(p))
        assert g_families(preferred_answer_sets_g(p)) <= fams

    @settings(max_examples=80, deadline=None)
    @given(small_programs(with_prefs=False))
    def test_empty_prefs_equal_answer_sets(self, p):
        assert g_families(preferred_answer_sets_g(p)) == literal_families(answer_sets(p))

    @settings(max_examples=60, deadline=None)
    @given(small_programs())
    def test_monotone_in_preferences(self, p):
        pairs = sorted(p.prefs)
        weaker = PrefProgram(p.rules, pairs[: len(pairs) // 2])
        assert g_families(preferred_answer_sets_g(p)) <= g_families(
            preferred_answer_sets_g(weaker)
        )

    @settings(max_examples=80, deadline=None)
    @given(small_programs())
    def test_stratified_programs_keep_their_answer_sets(self, p):
        if is_stratified(p):
            assert g_families(preferred_answer_sets_g(p)) == literal_families(answer_sets(p))

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(even_loops(k, seed, chain), id=f"loops{k}-seed{seed}-chain{int(chain)}")
            for k in range(2, 6)
            for seed in (0, 1)
            for chain in (False, True)
        ]
        + [
            # random programs of this size rarely have two generating sets;
            # these seeds do
            pytest.param(random_lpp(GenParams(seed=seed, n_rules=n)), id=f"lpp{n}-seed{seed}")
            for n, seed in [(8, 71), (8, 110), (10, 270), (10, 288), (12, 0), (12, 70), (12, 295)]
        ],
    )
    def test_preferred_sets_match_the_lattice_reduct(self, p):
        # the test of fragments outside R only, stopping at the first
        # survivor, against reduct_g over the whole fragment lattice
        expected = [e for e in stable_fragment_sets(p) if reduct_g(p, e) == e]
        assert preferred_stable_fragment_sets(p) == expected

    def test_preferred_sets_match_the_lattice_reduct_on_loops_with_tail(self):
        # several generating sets per program, where random_lpp draws have
        # about one
        for seed in range(100):
            p = loops_with_tail(seed)
            expected = [e for e in stable_fragment_sets(p) if reduct_g(p, e) == e]
            assert preferred_stable_fragment_sets(p) == expected, seed

    @pytest.mark.parametrize(
        "p",
        [pytest.param(fixtures.load(name), id=name) for name in fixtures.SOURCES]
        + [
            pytest.param(even_loops(k, seed, chain), id=f"loops{k}-seed{seed}-chain{int(chain)}")
            for k in (2, 3)
            for seed in (0, 1)
            for chain in (False, True)
        ]
        + [
            # few atoms and dense preferences: some preferred sets have
            # inconsistent heads
            pytest.param(
                random_lpp(GenParams(seed=seed, n_rules=8, n_atoms=3, pref_density=0.6)),
                id=f"lpp-seed{seed}",
            )
            for seed in range(12)
        ],
    )
    def test_answer_sets_are_the_deduplicated_unions(self, p):
        # the consistent heads of the preferred stable fragment sets, each
        # kept at its first set, with that set as the witness
        expected = []
        for e in preferred_stable_fragment_sets(p):
            heads = heads_of(p, union_of(e))
            if is_consistent(heads) and all(heads != a.literals for a, _ in expected):
                expected.append((AnswerSet(heads, union_of(e)), e))
        assert preferred_answer_sets_g(p) == expected

    @pytest.mark.parametrize(
        "p",
        [pytest.param(fixtures.load(name), id=name) for name in fixtures.SOURCES]
        + [
            pytest.param(even_loops(k, seed, chain), id=f"loops{k}-seed{seed}-chain{int(chain)}")
            for k in range(1, 6)
            for seed in (0, 1)
            for chain in (False, True)
        ]
        + [
            pytest.param(random_lpp(GenParams(seed=seed)), id=f"lpp-seed{seed}")
            for seed in range(40)
        ],
    )
    def test_witness_is_the_fragment_family_of_the_answer_set(self, p):
        # the witness is a plain family of label sets: its union is the
        # generating set, it holds every fragment inside that set and
        # nothing else, and its heads are the answer set
        for a, family in preferred_answer_sets_g(p):
            union = union_of(family)
            assert union == a.generating
            inside = {
                frozenset(t)
                for k in range(len(union) + 1)
                for t in itertools.combinations(sorted(union), k)
                if is_fragment(p, t)
            }
            assert family == inside
            assert heads_of(p, union) == a.literals

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_outside_part_is_tested_once(self, monkeypatch, seed):
        # whether E removes a fragment X outside R depends only on X minus R
        tested = Counter()
        real = fragments_module._part_removed

        def part_removed(idx, less, r, d):
            tested[r, d] += 1
            return real(idx, less, r, d)

        monkeypatch.setattr(fragments_module, "_part_removed", part_removed)
        p = even_loops(5, seed)
        preferred_stable_fragment_sets(p)
        assert tested
        assert max(tested.values()) == 1


# programs with several generating sets, where the test of outside parts
# decides something
SEVERAL_GENERATING_SETS = (
    [pytest.param(loops_with_tail(seed), id=f"tail-seed{seed}") for seed in range(12)]
    + [
        pytest.param(even_loops(k, seed, chain), id=f"loops{k}-seed{seed}-chain{int(chain)}")
        for k in (2, 3, 4)
        for seed in (0, 1)
        for chain in (False, True)
    ]
    + [
        pytest.param(random_lpp(GenParams(seed=seed, n_rules=n)), id=f"lpp{n}-seed{seed}")
        for n, seed in [(8, 71), (8, 110), (10, 270), (10, 288), (12, 0), (12, 70)]
    ]
)


def robust_rules(idx, less, r):
    """The rules outside the generating set ``r`` that every fragment
    holding them loses to the fragments inside r."""
    outside = ((1 << idx.n) - 1) & ~r
    return sum(_beaten(idx, less, r, outside, idx.or_of(outside, idx.defeats)))


class TestOutsidePartLemma:
    """The per-part test of the ``fragments`` module description against the
    pairwise definition, on label sets: for a generating set R and a
    fragment X ⊋ R, the fragments inside R remove X exactly when some
    fragment Y ⊆ R defeats X and X does not override Y."""

    @pytest.mark.parametrize("p", SEVERAL_GENERATING_SETS)
    def test_part_test_matches_the_pairwise_definition(self, p):
        idx = _lattice_index(p, Bounds())
        less = p.less
        frags = [t for t in subsets_in_mask_order(p) if is_fragment(p, t)]
        gens = generating_sets(p)
        assert len(gens) > 1
        for r_labels in gens:
            r = idx.mask_of(r_labels)
            inside = [(y, p.rules_of(y)) for y in frags if y <= r_labels]
            robust = robust_rules(idx, less, r)
            for x in frags:
                if not x > r_labels:
                    continue
                x_rules = p.rules_of(x)
                expected = any(
                    defeats(y_rules, x_rules) and not overrides(p, x, y) for y, y_rules in inside
                )
                d = idx.mask_of(x - r_labels)
                assert _part_removed(idx, less, r, d) == expected, (sorted(r_labels), sorted(x))
                if not expected:  # a survivor holds no robust rule
                    assert d & robust == 0, (sorted(r_labels), sorted(x))

    def test_survivors_and_robust_rules_occur(self):
        # the checks above are not vacuous: some fragments survive, and
        # some generating sets have robust rules
        survivors = robust = 0
        for param in SEVERAL_GENERATING_SETS:
            p = param.values[0]
            idx = _lattice_index(p, Bounds())
            less = p.less
            for r in map(idx.mask_of, generating_sets(p)):
                robust += robust_rules(idx, less, r).bit_count()
                survivors += sum(
                    not _part_removed(idx, less, r, x & ~r)
                    for x in idx.fragments
                    if x & r == r and x != r
                )
        assert survivors and robust


class TestOverrideAsymmetry:
    """No two fragments override each other.  The preferences are a strict
    partial order; let m be a least preferred rule of dx ∪ dy, the rules of
    each fragment that the other defeats.  If m ∈ dx, x overriding y needs
    some j ∈ dy with j < m, and if m ∈ dy, y overriding x needs some
    j ∈ dx with j < m; either way m would not be least preferred."""

    @staticmethod
    def assert_asymmetric(p):
        idx = _lattice_index(p, Bounds())
        less = p.less
        frags = list(idx.fragments)
        for i, x in enumerate(frags):
            for y in frags[i + 1 :]:
                mutual = _mask_overrides(idx, less, x, y) and _mask_overrides(idx, less, y, x)
                assert not mutual, (sorted(idx.labels_of(x)), sorted(idx.labels_of(y)))

    @pytest.mark.parametrize(
        "p",
        [pytest.param(fixtures.load(name), id=name) for name in fixtures.SOURCES]
        + [
            pytest.param(random_lpp(GenParams(seed=seed)), id=f"lpp-seed{seed}")
            for seed in range(40)
        ]
        + [pytest.param(loops_with_tail(seed), id=f"tail-seed{seed}") for seed in range(20)],
    )
    def test_no_pair_overrides_each_other(self, p):
        self.assert_asymmetric(p)

    @settings(max_examples=60, deadline=None)
    @given(small_programs(max_rules=4))
    def test_no_pair_overrides_each_other_on_hypothesis_programs(self, p):
        self.assert_asymmetric(p)
