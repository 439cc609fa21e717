"""The ``gno`` preference semantics: defeat restricted to not-less-preferred
derivations.

For a candidate rule set R and a rule r, ``trules(r, R)`` is the least
self-supporting part of the members of R that are not less preferred than
r; only its heads may defeat r.  The reduct keeps every rule whose negative
body avoids those heads, and a generating set R is preferred when
R = minpos(reduct(R)).

The candidate space is the generating sets of the underlying program,
which the program's shared index holds: the fixpoint equation alone has
spurious solutions that are not generating sets, so the restriction is
part of the semantics, not an optimisation.  R's reduct drops rule i when
minpos(R minus less[i]) defeats it, the test that ``g`` makes with a
smaller mask (``base._beaten``).  The preferred sets go through the same
dedup step as the plain answer sets.

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
    _answer_sets_from_masks,
    _beaten,
    _compiled,
    _Index,
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


def _preferred_masks(p: PrefProgram, bounds: Bounds | None) -> tuple[_Index, list[int]]:
    """The generating sets R with R = minpos(reduct_gno(R)) as masks.

    trules(i, R) is minpos(R minus less[i]), so the reduct drops the rules
    that ``_beaten`` yields for R; they lie inside attacks(R), as
    minpos(R) = R.
    """
    idx = _compiled(p, bounds)
    less = p.less
    everything = (1 << idx.n) - 1
    out = []
    for r in idx.generating:
        dropped = sum(_beaten(idx, less, r, idx.attacks(r), everything))
        if idx.minpos_mask(everything & ~dropped) == r:
            out.append(r)
    return idx, out


def preferred_answer_sets_gno(p: PrefProgram, bounds: Bounds | None = None) -> list[AnswerSet]:
    return _answer_sets_from_masks(*_preferred_masks(p, bounds))
