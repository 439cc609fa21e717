"""Preference semantics for direct conflicts (the ``d`` semantics).

Two rules are directly conflicting when each defeats the other.  A rule r1
directly overrides r2 when they are directly conflicting and r2 < r1.  The
reduct of a program with preferences w.r.t. a rule set R drops every rule
that some member of R defeats unless the rule directly overrides that
member; preferred generating sets are the fixpoints R = minpos(reduct(R)),
and their consistent head sets are the preferred answer sets.

Indirect conflicts are invisible to this semantics; it is the baseline the
fragment semantics (``g``) and the ``gno`` semantics refine.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from . import kernels
from .base import AnswerSet, Bounds, _answer_sets_from_masks, _compiled, _Index
from .syntax import PrefProgram, Rule, _at_bits


def directly_conflicting(r1: Rule, r2: Rule) -> bool:
    return r1.head in r2.neg_body and r2.head in r1.neg_body


def directly_overrides(r1: Rule, r2: Rule, prefs: Collection[tuple[str, str]]) -> bool:
    """r1 wins a direct conflict against r2, less preferred in ``prefs``."""
    return directly_conflicting(r1, r2) and (r2.label, r1.label) in prefs


def _removes(p: PrefProgram, idx: _Index) -> tuple[int, ...]:
    """removes[j]: the rules that rule j removes from the reduct, the rules
    it defeats less those that directly override it.  Rule i directly
    overrides each rule j of ``less[i]`` that it defeats and that defeats
    it back, so only those bits of the rows are walked."""
    defeats = idx.defeats
    removes = list(defeats)
    positions = range(idx.n)
    for i, row in enumerate(p.less):
        for j in _at_bits(row & defeats[i], positions):
            if defeats[j] >> i & 1:
                removes[j] &= ~(1 << i)
    return tuple(removes)


def _preferred_masks(p: PrefProgram, bounds: Bounds | None) -> tuple[_Index, Sequence[int]]:
    """The preferred generating sets as masks, ascending.

    Rule j removes each rule i it defeats unless i directly overrides it:
    i defeats j back and is preferred over it.  When no such pair exists,
    the table is ``defeats`` and the result is the generating sets the
    index already holds.
    """
    idx = _compiled(p, bounds)
    removes = _removes(p, idx)
    if removes == idx.defeats:
        return idx, idx.generating
    return idx, kernels.enum_fixpoints(idx.n, idx.head_bits, idx.pos_masks, removes)


def reduct_d(p: PrefProgram, r_labels: Iterable[str]) -> tuple[Rule, ...]:
    """Drop each rule defeated by a member of ``r_labels`` that it does not
    directly override."""
    members = p.rules_of(r_labels)
    return tuple(
        r
        for r in p.rules
        if not any(
            defender.head in r.neg_body and not directly_overrides(r, defender, p.prefs)
            for defender in members
        )
    )


def preferred_answer_sets_d(p: PrefProgram, bounds: Bounds | None = None) -> list[AnswerSet]:
    return _answer_sets_from_masks(*_preferred_masks(p, bounds))
