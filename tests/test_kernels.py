"""The enumeration kernels against the object-level definitions, on every
subset of small programs: the index's sentinel bit and free rules,
``minpos`` against ``base.minpos`` and, through its heads, against
``base.gl_least_model``, and ``enum_closed`` against ``is_fragment``.  ``enum_fixpoints`` is checked on the same programs in
``test_base.TestEnumerationMatchesDefinition``."""

import pytest
from helpers import KERNEL_PROGRAMS, subsets_in_mask_order

from prefas import base, kernels
from prefas.base import gl_least_model, minpos
from prefas.fragments import is_fragment

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
        want = idx.mask_of(minpos(p.rules_of(labels)))
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
