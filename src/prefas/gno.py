"""The ``gno`` preference semantics: defeat restricted to not-less-preferred
derivations.

For a candidate rule set R and a rule r, ``trules(r, R)`` is the least
self-supporting part of the members of R that are not less preferred than
r; only its heads may defeat r.  The reduct keeps every rule whose negative
body avoids those heads, and a generating set R is preferred when
R = minpos(reduct(R)).

The candidate space is the generating sets of the underlying program: the
fixpoint equation alone has spurious solutions that are not generating sets
(``gno_fixpoint_subsets`` exposes the unrestricted search for diagnosis),
so the restriction is part of the semantics, not an optimisation.

This semantics applies preferences even between non-conflicting rules; a
stratified program can lose its answer set under it.  In exchange it stays
NP-checkable, which :mod:`prefas.transform` makes concrete by rewriting to
a plain program.
"""

from __future__ import annotations

from typing import Iterable

from .base import (
    AnswerSet,
    Bounds,
    _check_rule_bound,
    _fixpoint_subsets,
    _index,
    is_consistent,
    minpos,
)
from .syntax import PrefProgram, Rule


def trules(p: PrefProgram, rule_label: str, candidate: Iterable[str]) -> frozenset[str]:
    """Least self-supporting subset of ``candidate`` without rules less
    preferred than ``rule_label``; only these may defeat it."""
    allowed = [
        r
        for r in p.rules_of(candidate)
        if not p.preferred_over(r.label, rule_label)
    ]
    return minpos(allowed)


def reduct_gno(p: PrefProgram, r_labels: Iterable[str]) -> tuple[Rule, ...]:
    """Drop each rule whose negative body meets the heads of its trules."""
    members = frozenset(r_labels)
    out = []
    for r in p.rules:
        heads = {p.rule(l).head for l in trules(p, r.label, members)}
        if not r.neg_body & heads:
            out.append(r)
    return tuple(out)


def _solver(p: PrefProgram):
    """Mask-level fixpoint test with trules memoised per (rule, candidate)."""
    idx = _index(p.rules)
    less = [
        sum(1 << j for j, other in enumerate(idx.rules) if p.preferred_over(other.label, r.label))
        for r in idx.rules
    ]
    memo: dict[tuple[int, int], int] = {}

    def trules_heads(i: int, r_mask: int) -> int:
        allowed = r_mask & ~less[i]
        key = (i, allowed)
        got = memo.get(key)
        if got is None:
            got = idx.head_lits_of(idx.minpos_mask(allowed))
            memo[key] = got
        return got

    def is_preferred(r_mask: int) -> bool:
        kept = 0
        for i in range(idx.n):
            if idx.neg_hmasks[i] & trules_heads(i, r_mask) == 0:
                kept |= 1 << i
        return idx.minpos_mask(kept) == r_mask

    return idx, is_preferred


def preferred_generating_sets_gno(
    p: PrefProgram, bounds: Bounds | None = None
) -> list[frozenset[str]]:
    """Generating sets R of the plain program with R = minpos(reduct_gno(R))."""
    bounds = bounds or Bounds.from_env()
    idx, is_preferred = _solver(p)
    _check_rule_bound(idx.n, bounds)
    out = []
    for mask in _fixpoint_subsets(idx, idx.defeater_masks):
        if is_preferred(mask):
            out.append(idx.labels_of(mask))
    return out


def preferred_answer_sets_gno(p: PrefProgram, bounds: Bounds | None = None) -> list[AnswerSet]:
    bounds = bounds or Bounds.from_env()
    out = []
    seen = set()
    for r in preferred_generating_sets_gno(p, bounds):
        lits = frozenset(p.rule(l).head for l in r)
        if is_consistent(lits) and lits not in seen:
            seen.add(lits)
            out.append(AnswerSet(lits, r))
    return out


def gno_fixpoint_subsets(p: PrefProgram, bounds: Bounds | None = None) -> list[frozenset[str]]:
    """Every subset satisfying the fixpoint equation, generating or not.

    Diagnostic: the extras this finds beyond ``preferred_generating_sets_gno``
    are exactly the spurious fixpoints the generating-set restriction exists
    to exclude.
    """
    bounds = bounds or Bounds.from_env()
    idx, is_preferred = _solver(p)
    _check_rule_bound(idx.n, bounds)
    return [
        idx.labels_of(mask)
        for mask in range(1 << idx.n)
        if is_preferred(mask)
    ]
