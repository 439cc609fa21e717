"""The tables that depend on the rules alone are built once per rule set
and shared by every semantics, and the bounds still hold once they exist."""

import random
from collections import Counter
from dataclasses import replace

import pytest
from helpers import (
    KERNEL_PROGRAMS,
    closure_by_composition,
    d_remover_by_pairs,
    defeater_masks_by_pairs,
    even_loops,
    less_masks_by_pairs,
    loops_with_tail,
    random_pairs,
    small_programs,
    subsets_in_mask_order,
    transpose,
)
from hypothesis import given, settings

from prefas import base, direct, fixtures, gno, kernels, verify
from prefas import fragments as fragments_module
from prefas.base import AnswerSet, Bounds, answer_sets, generating_sets, is_consistent
from prefas.direct import preferred_answer_sets_d
from prefas.fragments import fragments, preferred_answer_sets_g
from prefas.gno import preferred_answer_sets_gno
from prefas.syntax import BoundExceededError, PrefProgram, parse_program
from prefas.verify import GenParams, fuzz

RUN = fixtures.load("indirect_conflict")


@pytest.mark.parametrize(
    "solve, bound",
    [
        (answer_sets, "max_rules"),
        (generating_sets, "max_rules"),
        (preferred_answer_sets_d, "max_rules"),
        (preferred_answer_sets_gno, "max_rules"),
        (preferred_answer_sets_g, "max_rules"),
        (preferred_answer_sets_g, "max_fragment_rules"),
        (fragments, "max_fragment_rules"),
    ],
    ids=["as", "generating", "d", "gno", "g-rules", "g-fragments", "fragments"],
)
def test_bounds_hold_after_the_tables_are_built(solve, bound):
    solve(RUN, Bounds())
    with pytest.raises(BoundExceededError) as raised:
        solve(RUN, replace(Bounds(), **{bound: len(RUN.rules) - 1}))
    # a library caller passed Bounds and reads no variable, so the message
    # names the field
    assert raised.value.field == bound
    assert str(raised.value).endswith(f"bounded at {len(RUN.rules) - 1} (Bounds.{bound})")
    assert "PREFAS_" not in str(raised.value)


def test_each_rule_set_is_scanned_once(monkeypatch):
    """Over a fuzz run, every drawn rule set has its fragment lattice and its
    generating sets scanned at most once, whatever semantics and checks
    read them."""
    base._index.cache_clear()
    drawn = set()
    closed = Counter()
    fixpoints = Counter()
    real_draw, real_closed, real_fixpoints = (
        verify.random_lpp, kernels.enum_closed, kernels.enum_fixpoints
    )

    def draw(params):
        p = real_draw(params)
        drawn.add(p.rules)
        return p

    def enum_closed(n, head_bits, pos_masks):
        closed[tuple(head_bits), tuple(pos_masks)] += 1
        return real_closed(n, head_bits, pos_masks)

    def enum_fixpoints(n, head_bits, pos_masks, removes):
        fixpoints[tuple(head_bits), tuple(pos_masks), tuple(removes)] += 1
        return real_fixpoints(n, head_bits, pos_masks, removes)

    monkeypatch.setattr(verify, "random_lpp", draw)
    monkeypatch.setattr(kernels, "enum_closed", enum_closed)
    monkeypatch.setattr(kernels, "enum_fixpoints", enum_fixpoints)
    fuzz(GenParams(seed=0), 20)

    # rule sets with equal tables cannot be told apart by the kernel calls
    lattices = Counter()
    generating = Counter()
    for rules in drawn:
        idx = base._index.__wrapped__(rules)
        tables = (idx.head_bits, idx.pos_masks)
        lattices[tables] += 1
        generating[(*tables, idx.defeats)] += 1
    assert closed and set(closed) <= set(lattices)
    assert all(calls <= lattices[tables] for tables, calls in closed.items())
    assert all(fixpoints[tables] <= count for tables, count in generating.items())


def _generating_masks(p, bounds):
    idx = base._compiled(p, bounds)
    return idx, idx.generating


def _assembly_programs():
    """The kernel programs, loops with and without a tail and seeded draws,
    some of them with preferences that give ``d`` a table of its own."""
    yield from (p for _, p in KERNEL_PROGRAMS)
    yield from (loops_with_tail(seed) for seed in range(20))
    for k in range(1, 6):
        for seed in range(3):
            yield even_loops(k, seed)
            yield even_loops(k, seed, chain=True)
    for n_rules in (6, 8, 10, 12):
        for density in (0.3, 0.6, 0.9):
            for seed in range(12):
                yield verify.random_lpp(GenParams(
                    seed=seed, n_rules=n_rules, n_atoms=3 + seed % 4, pref_density=density
                ))


def test_d_preferred_sets_are_generating_sets():
    """A ``d``-preferred generating set R defeats none of its own rules:
    if j in R defeated i in R, i would directly override j, so j would not
    override i and i would remove j.  So R = minpos(R) lies inside
    minpos(P minus A(R)), which lies inside R, since ``d`` removes no more
    than ``defeats``."""
    own_table = 0
    for p in _assembly_programs():
        idx, masks = direct._preferred_masks(p, None)
        assert set(masks) <= set(idx.generating)
        own_table += direct._removes(p, idx) != idx.defeats
    assert own_table  # some programs do not pass the plain generating sets through


@pytest.mark.parametrize(
    "masks_of",
    [_generating_masks, direct._preferred_masks, gno._preferred_masks,
     fragments_module._preferred_masks],
    ids=["as", "d", "gno", "g"],
)
def test_distinct_generating_sets_have_distinct_heads(masks_of):
    """The masks that every semantics hands to the assembly step are
    distinct generating sets (for ``d`` by the test above), and a
    generating set is fixed by its heads (R = minpos(reduct(P, R)), and
    the reduct reads only heads(R)), so no literal set repeats in a
    result."""
    checked = 0
    for p in _assembly_programs():
        idx, masks = masks_of(p, None)
        heads = {kernels._or_of(m, idx.head_bits) for m in masks}
        assert len(heads) == len(masks)
        found = base._answer_sets_from_masks(idx, masks)
        assert len({a.literals for a in found}) == len(found)
        checked += len(found)
    assert checked


@pytest.mark.parametrize("p", [p for _, p in KERNEL_PROGRAMS], ids=[n for n, _ in KERNEL_PROGRAMS])
def test_masks_and_labels_convert_both_ways(p):
    idx = base._index.__wrapped__(p.rules)
    for mask, labels in enumerate(subsets_in_mask_order(p)):
        assert idx.labels_of(mask) == labels


def _answer_sets_by_rules(p, generating):
    """Oracle for the assembly step: the heads of each label set, read
    rule by rule, when consistent and not found at an earlier set."""
    out = []
    for labels in generating:
        heads = frozenset(p.rule(l).head for l in labels)
        if is_consistent(heads) and all(heads != a.literals for a in out):
            out.append(AnswerSet(heads, labels))
    return out


@pytest.mark.parametrize("p", [p for _, p in KERNEL_PROGRAMS], ids=[n for n, _ in KERNEL_PROGRAMS])
def test_answer_sets_are_assembled_from_the_rules(p):
    idx = base._index.__wrapped__(p.rules)
    subsets = subsets_in_mask_order(p)
    want = _answer_sets_by_rules(p, [subsets[m] for m in idx.generating])
    assert base._answer_sets_from_masks(idx, idx.generating) == want


# a program with both a and -a as heads, and both b and -b
CLASHING_HEADS = parse_program(
    "r1: a :- not b.\nr2: -a :- not -b.\nr3: b :- not a.\nr4: -b.\nr5: c :- a.\nr6: -a :- c."
)


@pytest.mark.parametrize(
    "p",
    [p for _, p in KERNEL_PROGRAMS] + [CLASHING_HEADS],
    ids=[n for n, _ in KERNEL_PROGRAMS] + ["clashing-heads"],
)
def test_clash_masks_drop_exactly_the_inconsistent_head_sets(p):
    """Over every rule subset, the heads hold a mask of ``idx.clashes``
    exactly when ``is_consistent`` rejects them, and the assembly step
    drops exactly those sets."""
    idx = base._index.__wrapped__(p.rules)
    subsets = subsets_in_mask_order(p)
    kept = {a.generating for a in base._answer_sets_from_masks(idx, range(len(subsets)))}
    for mask, labels in enumerate(subsets):
        heads = kernels._or_of(mask, idx.head_bits)
        consistent = is_consistent(p.rule(l).head for l in labels)
        assert all(heads & c != c for c in idx.clashes) == consistent, sorted(labels)
        assert (labels in kept) == consistent, sorted(labels)
    assert len(idx.clashes) == sum(not l.positive and (l.atom, True) in idx.head_lits
                                   for l in idx.head_lits)


def _assert_tables_match_the_oracles(p, lattice=True):
    """The index's tables, read off per-literal masks and preference pairs,
    equal the rule-by-rule definitions of ``helpers``."""
    n = len(p.rules)
    idx = base._index.__wrapped__(p.rules)
    defeaters = defeater_masks_by_pairs(p.rules)
    assert list(idx.defeats) == transpose(defeaters, n)
    assert list(p.less) == less_masks_by_pairs(p)
    assert list(direct._removes(p, idx)) == transpose(d_remover_by_pairs(p), n)
    if lattice:  # each fragment maps to the rules it defeats
        for f, defeated in idx.fragments.items():
            assert defeated == sum(1 << i for i in range(n) if defeaters[i] & f)


class TestTablesMatchOracles:
    @pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
    def test_random_programs(self, density):
        for n_rules in range(6, 15, 2):
            for seed in range(8):
                p = verify.random_lpp(GenParams(
                    seed=seed, n_rules=n_rules, n_atoms=3 + seed % 5, pref_density=density
                ))
                _assert_tables_match_the_oracles(p, lattice=n_rules <= 10)

    def test_even_loops_and_tails(self):
        for k in range(1, 6):
            for seed in range(3):
                _assert_tables_match_the_oracles(even_loops(k, seed, chain=seed == 1))
        for seed in range(20):
            _assert_tables_match_the_oracles(loops_with_tail(seed))

    @settings(max_examples=150, deadline=None)
    @given(small_programs())
    def test_hypothesis_programs(self, p):
        _assert_tables_match_the_oracles(p)

    def test_some_draws_give_d_a_table_of_its_own(self):
        # in some draws a rule directly overrides a defeater, so the
        # comparison above also covers a d table other than defeats
        differs = 0
        for seed in range(40):
            p = verify.random_lpp(GenParams(seed=seed, n_rules=10, pref_density=0.9))
            idx = base._index.__wrapped__(p.rules)
            differs += direct._removes(p, idx) != idx.defeats
        assert differs


def _assert_rows_match_the_oracles(rules, written):
    """The closed rows and the ``d`` table of ``rules`` under ``written``
    equal the pair-by-pair oracles, whether the program is given the
    written pairs or their closure; returns whether the ``d`` table
    differs from ``defeats``."""
    n = len(rules)
    closed = closure_by_composition(written)
    idx = base._index.__wrapped__(rules)
    programs = [PrefProgram(rules, tuple(written)), PrefProgram(rules, closed)]
    for p in programs:
        assert p.prefs == closed
        assert list(p.less) == less_masks_by_pairs(p)
        assert list(direct._removes(p, idx)) == transpose(d_remover_by_pairs(p), n)
    assert programs[0] == programs[1] and hash(programs[0]) == hash(programs[1])
    return direct._removes(programs[0], idx) != idx.defeats


class TestPreferenceRows:
    """``PrefProgram.less`` is built by a DFS over the written pairs, and
    ``direct._removes`` walks its mutual-defeat bits."""

    @pytest.mark.parametrize("name, p", KERNEL_PROGRAMS, ids=[name for name, _ in KERNEL_PROGRAMS])
    def test_kernel_programs(self, name, p):
        _assert_rows_match_the_oracles(p.rules, p.pairs)

    def test_random_pair_sets(self):
        rng = random.Random(21)
        own_table = 0
        for k in range(400):
            rules = KERNEL_PROGRAMS[k % len(KERNEL_PROGRAMS)][1].rules
            pairs = random_pairs(rng, [r.label for r in rules], acyclic=True)
            own_table += _assert_rows_match_the_oracles(rules, pairs)
        assert own_table  # some draws strike a directly overridden pair


def _assert_attacks_match_the_definition(p, rng):
    """``attacks(S)`` is A(minpos(S)), here from the object-level ``minpos``
    and ``defeats`` of ``base`` on random rule sets S."""
    rules = p.rules
    idx = base._index.__wrapped__(rules)
    for members in [0, (1 << len(rules)) - 1] + [rng.getrandbits(len(rules)) for _ in range(30)]:
        fired = base.minpos(r for i, r in enumerate(rules) if members >> i & 1)
        support = [r for r in rules if r.label in fired]
        expected = sum(1 << i for i, r in enumerate(rules) if base.defeats(support, [r]))
        assert idx.attacks(members) == expected, (members, sorted(fired))


class TestAttacks:
    @pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
    def test_random_programs(self, density):
        rng = random.Random(density)
        for n_rules in range(6, 15, 2):
            for seed in range(8):
                p = verify.random_lpp(GenParams(
                    seed=seed, n_rules=n_rules, n_atoms=3 + seed % 5, pref_density=density
                ))
                _assert_attacks_match_the_definition(p, rng)

    def test_even_loops_and_tails(self):
        rng = random.Random(0)
        for k in range(1, 6):
            for seed in range(3):
                _assert_attacks_match_the_definition(even_loops(k, seed, chain=seed == 1), rng)
        for seed in range(20):
            _assert_attacks_match_the_definition(loops_with_tail(seed), rng)

    def test_a_second_call_returns_the_memoised_value(self, monkeypatch):
        idx = base._index.__wrapped__(loops_with_tail(0).rules)
        members = (1 << idx.n) - 1
        first = idx.attacks(members)
        monkeypatch.setattr(idx, "minpos_mask", lambda members: pytest.fail("recomputed"))
        assert idx.attacks(members) == first
        with pytest.raises(pytest.fail.Exception):  # a new argument is computed
            idx.attacks(members >> 1)
