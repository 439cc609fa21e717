"""The fragment-based preference semantics (the ``g`` semantics).

Conflicts between rules can be indirect, mediated by other rules, so this
semantics never compares two rules in isolation.  The unit of conflict is a
*fragment*: a rule set T with minpos(T) = T, i.e. one whose positive bodies
are supported within T itself.  Fragments X and Y are conflicting when each
defeats the other, and X overrides Y when every X-rule defeated by Y is
answered by some Y-rule that X defeats and that is strictly less preferred.

For a guess E of fragments, the reduct keeps a fragment X unless some
member of E defeats it without being overridden by it.  E is a stable
fragment set when the preference-free reduct returns exactly E, and a
preferred stable fragment set when the preference-aware reduct does.  The
consistent head sets of preferred stable fragment sets are the preferred
answer sets.

Stable fragment sets are exactly the families E = {T ⊆ R : minpos(T) = T}
for generating sets R, and every preferred stable fragment set is stable,
so the search enumerates generating sets instead of all subsets of the
fragment lattice.  R defeats none of its own fragments, so the
preference-aware reduct keeps every member of E; E is preferred exactly
when the reduct removes every fragment outside R.  Only those fragments
are tested, and the first one that survives rejects R.

The fragment lattice, with each fragment's head and negative-body masks,
depends on the rules alone, so it lives on the program's shared index and
is built at most once per rule tuple; only the preference table
``less`` differs between programs with the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .base import (
    AnswerSet,
    Bounds,
    _index,
    _Index,
    _less_masks,
    generating_sets,
    is_consistent,
    minpos,
    rules_of,
)
from .syntax import BoundExceededError, Literal, PrefProgram, Rule

ProgramLike = Union[PrefProgram, Sequence[Rule]]


@dataclass(frozen=True)
class FragmentSet:
    """A family of fragments with its union and head set precomputed."""

    members: frozenset[frozenset[str]]
    union: frozenset[str]
    heads: frozenset[Literal]

    @classmethod
    def build(cls, p: ProgramLike, members: Iterable[frozenset[str]]) -> "FragmentSet":
        members = frozenset(frozenset(m) for m in members)
        union = frozenset(l for m in members for l in m)
        by_label = {r.label: r for r in rules_of(p)}
        heads = frozenset(by_label[l].head for l in union)
        return cls(members, union, heads)

    def __contains__(self, member: frozenset[str]) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)


def _lattice_index(p: ProgramLike, bounds: Bounds | None) -> _Index:
    """The index of ``p``'s rules, once they pass ``max_fragment_rules``."""
    bounds = bounds or Bounds.from_env()
    idx = _index(rules_of(p))
    if idx.n > bounds.max_fragment_rules:
        raise BoundExceededError(
            f"program has {idx.n} rules; fragment enumeration is bounded at "
            f"{bounds.max_fragment_rules} (PREFAS_MAX_FRAGMENT_RULES)"
        )
    return idx


def fragments(p: ProgramLike, bounds: Bounds | None = None) -> list[frozenset[str]]:
    """All fragments of the program, ascending by bitmask over rule order."""
    idx = _lattice_index(p, bounds)
    return [idx.labels_of(m) for m in idx.fragments]


def is_fragment(p: ProgramLike, labels: Iterable[str]) -> bool:
    members = frozenset(labels)
    by_label = {r.label: r for r in rules_of(p)}
    return minpos(by_label[l] for l in members) == members


def conflicting(p: ProgramLike, x: Iterable[str], y: Iterable[str]) -> bool:
    """Mutual defeat between two fragments (as label sets)."""
    by_label = {r.label: r for r in rules_of(p)}
    xr = [by_label[l] for l in set(x)]
    yr = [by_label[l] for l in set(y)]
    x_heads = {r.head for r in xr}
    y_heads = {r.head for r in yr}
    return any(y_heads & r.neg_body for r in xr) and any(x_heads & r.neg_body for r in yr)


def overrides(p: PrefProgram, x: Iterable[str], y: Iterable[str]) -> bool:
    """Does fragment ``x`` override fragment ``y`` under the program's
    preferences?

    False unless the fragments are conflicting.  Otherwise every rule of x
    defeated by y must be matched by a strictly less preferred rule of y
    defeated by x.
    """
    if not conflicting(p, x, y):
        return False
    xr = p.rules_of(x)
    yr = p.rules_of(y)
    x_heads = {r.head for r in xr}
    y_heads = {r.head for r in yr}
    defeated_y = [r for r in yr if x_heads & r.neg_body]
    for r1 in xr:
        if y_heads & r1.neg_body:
            if not any(p.preferred_over(r2.label, r1.label) for r2 in defeated_y):
                return False
    return True


def _defeated_rules(idx: _Index, frag: int, by_heads: int) -> int:
    out = 0
    for i in range(idx.n):
        if frag >> i & 1 and idx.neg_hmasks[i] & by_heads:
            out |= 1 << i
    return out


def _mask_overrides(idx: _Index, less: Sequence[int], x: int, y: int) -> bool:
    """``overrides`` on fragment masks, with ``less`` from ``_less_masks``."""
    hx, hy = idx.fragments[x][0], idx.fragments[y][0]
    dx = _defeated_rules(idx, x, hy)
    dy = _defeated_rules(idx, y, hx)
    if dx == 0 or dy == 0:  # not conflicting
        return False
    rest = dx
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        if dy & less[i] == 0:
            return False
    return True


def _removed(idx: _Index, less: Sequence[int], x: int, e_masks: Sequence[int]) -> bool:
    """Does some member of E defeat fragment x without x overriding it?"""
    frags = idx.fragments
    negor = frags[x][1]
    return any(
        negor & frags[y][0] and not _mask_overrides(idx, less, x, y) for y in e_masks
    )


def reduct_g(p: PrefProgram, e: FragmentSet | Iterable[frozenset[str]],
             bounds: Bounds | None = None) -> FragmentSet:
    """Preference-aware fragment reduct of the full fragment lattice w.r.t. e.

    With empty preferences no fragment ever overrides another, so this is
    also the plain reduct that defines stable fragment sets.
    """
    members = e.members if isinstance(e, FragmentSet) else frozenset(map(frozenset, e))
    idx = _lattice_index(p, bounds)
    e_masks = []
    for m in members:
        mask = idx.mask_of(m)
        if mask not in idx.fragments:
            raise ValueError(f"{sorted(m)} is not a fragment of the program")
        e_masks.append(mask)
    less = _less_masks(p)
    kept = [x for x in idx.fragments if not _removed(idx, less, x, e_masks)]
    return FragmentSet.build(p, (idx.labels_of(m) for m in kept))


def _stable_sets(
    p: ProgramLike, bounds: Bounds | None, less: Sequence[int] | None
) -> list[FragmentSet]:
    """The fragments inside each generating set R, kept when ``less`` is
    None or when every fragment outside R is removed under ``less``."""
    bounds = bounds or Bounds.from_env()
    idx = _lattice_index(p, bounds)
    out = []
    for r in generating_sets(p, bounds):
        r_mask = idx.mask_of(r)
        e = [f for f in idx.fragments if f & ~r_mask == 0]
        if less is None or all(
            _removed(idx, less, x, e) for x in idx.fragments if x & ~r_mask
        ):
            out.append(FragmentSet.build(p, (idx.labels_of(m) for m in e)))
    return out


def stable_fragment_sets(p: ProgramLike, bounds: Bounds | None = None) -> list[FragmentSet]:
    """One stable fragment set per generating set: all fragments inside it.

    A generating set R defeats none of its own fragments and every fragment
    outside R, so the preference-free reduct returns exactly the fragments
    inside R; the tests check this against ``reduct_g``.
    """
    return _stable_sets(p, bounds, None)


def preferred_stable_fragment_sets(
    p: PrefProgram, bounds: Bounds | None = None
) -> list[FragmentSet]:
    """Stable fragment sets fixed by the preference-aware reduct.

    For the fragments E inside a generating set R, the reduct keeps every
    member of E, since R defeats none of them.  So E is kept when every
    fragment outside R is defeated by some member of E that it does not
    override.  Only the fragments outside R are tested, and the first one
    that survives rejects R.  The tests check this against ``reduct_g``.
    """
    return _stable_sets(p, bounds, _less_masks(p))


def preferred_answer_sets_g(
    p: PrefProgram, bounds: Bounds | None = None
) -> list[tuple[AnswerSet, FragmentSet]]:
    """Preferred answer sets with their witnessing fragment sets."""
    bounds = bounds or Bounds.from_env()
    out = []
    seen = set()
    for e in preferred_stable_fragment_sets(p, bounds):
        if is_consistent(e.heads) and e.heads not in seen:
            seen.add(e.heads)
            out.append((AnswerSet(e.heads, e.union), e))
    return out
