"""The enumeration kernels against the object-level definitions, on every
subset of small programs: the index's sentinel bit and free rules,
``minpos`` against ``base.minpos`` and, through its heads, against
``base.gl_least_model``, and ``enum_closed`` against ``is_fragment``.
``enum_fixpoints`` is checked on the same programs in
``test_base.TestEnumerationMatchesDefinition``; here it is checked against a
scan of every subset on random tables that no program produces, and its
``minpos`` calls are counted on programs whose rules remove little, and
its reads of ``removes`` on even loops, where it carries the cuts of its
bounds instead of recomputing them."""

import random

import pytest
from helpers import KERNEL_PROGRAMS, even_loops, loops_with_tail, mask_of, subsets_in_mask_order

from prefas import base, kernels
from prefas.base import gl_least_model, minpos
from prefas.fragments import is_fragment
from prefas.syntax import parse_program

PROGRAMS = [p for _, p in KERNEL_PROGRAMS]
IDS = [name for name, _ in KERNEL_PROGRAMS]


def _tables(p):
    return base._index.__wrapped__(p.rules)


def _sentinel(idx):
    return 1 << len(idx.head_lits)


def test_the_programs_cover_free_rules_and_the_sentinel():
    indexes = [_tables(p) for p in PROGRAMS]
    everything = [(1 << idx.n) - 1 for idx in indexes]
    assert any(idx.free == full for idx, full in zip(indexes, everything))  # all free
    assert any(idx.free == 0 for idx in indexes)  # none free
    assert any(m & _sentinel(idx) for idx in indexes for m in idx.pos_masks)


@pytest.mark.parametrize("p", PROGRAMS, ids=IDS)
def test_tables_mark_underived_literals_and_free_rules(p):
    idx = _tables(p)
    heads = set(idx.head_lits)
    for i, r in enumerate(p.rules):
        assert bool(idx.pos_masks[i] & _sentinel(idx)) == (not r.pos_body <= heads)
        assert idx.pos_masks[i] >> len(heads) <= 1  # one sentinel bit, never more
        assert (idx.free >> i & 1) == (not r.pos_body)


@pytest.mark.parametrize("p", PROGRAMS, ids=IDS)
def test_minpos_matches_the_rule_level_definition(p):
    idx = _tables(p)
    for mask, labels in enumerate(subsets_in_mask_order(p)):
        want = mask_of(p, minpos(p.rules_of(labels)))
        assert kernels.minpos(mask, idx.head_bits, idx.pos_masks, idx.free) == want


@pytest.mark.parametrize("p", PROGRAMS, ids=IDS)
def test_gl_least_model_is_the_heads_of_minpos(p):
    idx = _tables(p)
    for mask, labels in enumerate(subsets_in_mask_order(p)):
        fired = kernels.minpos(mask, idx.head_bits, idx.pos_masks, idx.free)
        heads = frozenset(r.head for i, r in enumerate(p.rules) if fired >> i & 1)
        assert gl_least_model(p.rules_of(labels)) == heads


@pytest.mark.parametrize("p", PROGRAMS, ids=IDS)
def test_enum_closed_finds_the_fragments(p):
    idx = _tables(p)
    want = [m for m, labels in enumerate(subsets_in_mask_order(p)) if is_fragment(p, labels)]
    assert kernels.enum_closed(idx.n, idx.head_bits, idx.pos_masks) == want


def test_the_public_minpos_sees_only_calls_from_outside_the_kernels(monkeypatch):
    # the enumeration kernels call ``_minpos``, so a wrapper on ``minpos``,
    # like the benchmark's traced run, counts the index's calls alone
    calls = 0
    real = kernels.minpos

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(kernels, "minpos", counted)
    idx = _tables(loops_with_tail(0))
    assert kernels.enum_fixpoints(idx.n, idx.head_bits, idx.pos_masks, idx.defeats)
    assert kernels.enum_closed(idx.n, idx.head_bits, idx.pos_masks)
    assert calls == 0
    idx.attacks((1 << idx.n) - 1)
    assert calls > 0


def fixpoints_by_scan(n, head_bits, pos_masks, removes):
    """Oracle for ``enum_fixpoints``: test every subset R against
    minpos(all minus the rules that R removes)."""
    everything = (1 << n) - 1
    free = kernels.free_rules(pos_masks)
    out = []
    for r in range(1 << n):
        removed = 0
        for j in range(n):
            if r >> j & 1:
                removed |= removes[j]
        if kernels.minpos(everything & ~removed, head_bits, pos_masks, free) == r:
            out.append(r)
    return out


@pytest.mark.parametrize("n", range(10))
def test_enum_fixpoints_matches_a_scan_on_random_tables(n):
    # tables of no program: any head bits, positive bodies that may hold
    # the sentinel bit of k literals or none, and removal rows that need
    # not be a defeat relation, some of them empty
    rng = random.Random(n)
    for _ in range(60):
        k = rng.randint(1, 5)
        head_bits = [1 << rng.randrange(k) for _ in range(n)]
        pos_masks = [rng.getrandbits(k + 1) & rng.getrandbits(k + 1) for _ in range(n)]
        removes = [rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.8 else 0
                   for _ in range(n)]
        want = fixpoints_by_scan(n, head_bits, pos_masks, removes)
        assert kernels.enum_fixpoints(n, head_bits, pos_masks, removes) == want


TWO_LOOPS = "a1: a1 :- not b1.\nb1: b1 :- not a1.\na2: a2 :- not b2.\nb2: b2 :- not a2.\n"


@pytest.mark.parametrize("text, found, bound", [
    # 16 rules that remove nothing, before the loops: branching on them
    # would make 655,370 calls
    ("".join(f"c{j}: c{j} :- a1.\n" for j in range(16)) + TWO_LOOPS, 4, 100),
    # 8 rules that each remove w, which the first of them decided in
    # already removes: branching on all of them would make 2,580 calls
    ("".join(f"d{j}: h :- a1, e{j}.\nf{j}: e{j}.\n" for j in range(8))
     + "w: w :- not h.\n" + TWO_LOOPS, 4, 600),
], ids=["zero-rows", "repeated-rows"])
def test_search_branches_only_on_rules_that_remove_more(monkeypatch, text, found, bound):
    calls = 0
    real = kernels._minpos

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(kernels, "_minpos", counted)
    idx = _tables(parse_program(text))
    assert len(kernels.enum_fixpoints(idx.n, idx.head_bits, idx.pos_masks, idx.defeats)) == found
    assert 0 < calls < bound


class CountedRows(tuple):
    """A removal table that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_search_carries_its_cuts(monkeypatch):
    # 8 even loops, 256 generating sets: recomputing cut(L) and cut(U) on
    # every step reads the table 21,452 times, carrying them 5,100 times
    calls = 0
    real = kernels._minpos

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(kernels, "_minpos", counted)
    idx = _tables(even_loops(8, 0))
    removes = CountedRows(idx.defeats)
    assert len(kernels.enum_fixpoints(idx.n, idx.head_bits, idx.pos_masks, removes)) == 256
    assert 0 < removes.reads < 8000
    assert calls <= 1022
