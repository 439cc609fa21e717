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
fragment lattice.  Write A(S) for the rules that a rule set S defeats.  A
generating set R defeats none of its members, R ∩ A(R) = ∅, so the
preference-aware reduct keeps every member of E; E is preferred exactly
when the reduct removes every fragment outside R.  Fragments are closed
under union, so a fragment X outside R has the same outside part X∖R as
the fragment X ∪ R; the lemma below shows that this part alone decides
whether E removes X, so only the fragments that contain R are tested.

Lemma.  Let X = D ∪ R be a fragment with outside part D = X∖R ≠ ∅, and
M_i = A(D) ∩ less[i].  E removes X exactly when some i ∈ D is in
attacks(R∖M_i), the rules that minpos(R∖M_i) defeats.

Proof.  Y ∈ E removes X when Y defeats X and X does not override Y.  As
A(Y) ⊆ A(R) and R ∩ A(R) = ∅, the rules of X that Y defeats are D ∩ A(Y),
and the rules of Y that X defeats are Y ∩ A(D).  So Y removes X exactly
when some i ∈ D ∩ A(Y) has Y ∩ A(D) ∩ less[i] = ∅, that is Y ⊆ R∖M_i;
this covers Y ∩ A(D) = ∅, where the two do not conflict.  i ∈ A(Y) is
monotone in Y, and the fragments inside a set S have a greatest member,
minpos(S), so it is enough to test Y = minpos(R∖M_i).  ``base._beaten``
makes this test, and ``gno`` makes it with M_i = less[i].

Pruning.  Call a rule i outside R robust when the same test holds with
A(O) in place of A(D), where O is every rule outside R.  A(D) ⊆ A(O) and
minpos is monotone, so E removes every fragment whose outside part holds
a robust rule.  Only the fragments between R and everything but the
robust rules are tested, one per outside part D, and the first one that
survives rejects R.

The fragment lattice, with A(f) for each fragment f, and ``attacks``
depend on the rules alone, so they live on the program's shared index;
only the preference table ``less`` differs between programs with the same
rules.  ``reduct_g`` keeps the pairwise override test over the whole
lattice, as the oracle that the tests check the lemma against.

Like ``direct`` and ``gno``, ``_preferred_masks`` returns masks for the
shared dedup step ``_answer_sets_from_masks``.  Each answer set's witness,
like a stable fragment set and the result of ``reduct_g``, is a
``FragmentFamily``, a frozenset of label sets whose union and heads are
the ``AnswerSet``'s ``generating`` and ``literals``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .base import (
    AnswerSet,
    Bounds,
    _answer_sets_from_masks,
    _beaten,
    _compiled,
    _Index,
    defeats,
    generating_sets,
    minpos,
)
from .syntax import PrefProgram

FragmentFamily = frozenset[frozenset[str]]


def _lattice_index(p: PrefProgram, bounds: Bounds | None) -> _Index:
    """The index of ``p``'s rules, once they pass ``max_fragment_rules``."""
    return _compiled(p, bounds, "max_fragment_rules")


def fragments(p: PrefProgram, bounds: Bounds | None = None) -> list[frozenset[str]]:
    """All fragments of the program, ascending by bitmask over rule order."""
    idx = _lattice_index(p, bounds)
    return [idx.labels_of(m) for m in idx.fragments]


def is_fragment(p: PrefProgram, labels: Iterable[str]) -> bool:
    members = frozenset(labels)
    return minpos(p.rules_of(members)) == members


def conflicting(p: PrefProgram, x: Iterable[str], y: Iterable[str]) -> bool:
    """Mutual defeat between two fragments (as label sets)."""
    xr, yr = p.rules_of(x), p.rules_of(y)
    return defeats(xr, yr) and defeats(yr, xr)


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


def _mask_overrides(idx: _Index, less: Sequence[int], x: int, y: int) -> bool:
    """``overrides`` on fragment masks, with ``less`` from ``PrefProgram.less``."""
    dx = x & idx.fragments[y]  # rules of x that y defeats
    dy = y & idx.fragments[x]
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


def reduct_g(p: PrefProgram, e: Iterable[Iterable[str]],
             bounds: Bounds | None = None) -> FragmentFamily:
    """Preference-aware fragment reduct of the full fragment lattice w.r.t.
    the fragments ``e``, each given by its labels.

    With empty preferences no fragment ever overrides another, so this is
    also the plain reduct that defines stable fragment sets.
    """
    idx = _lattice_index(p, bounds)
    e_masks = []
    for m in e:
        labels = frozenset(m)
        p.rules_of(labels)  # raises the KeyError that names unknown labels
        mask = idx.mask_of(labels)
        if mask not in idx.fragments:
            raise ValueError(f"{sorted(labels)} is not a fragment of the program")
        e_masks.append(mask)
    less = p.less
    frags = idx.fragments
    return frozenset(
        idx.labels_of(x)
        for x in frags
        if not any(frags[y] & x and not _mask_overrides(idx, less, x, y) for y in e_masks)
    )


def _fragments_between(frags: dict[int, int], low: int, high: int) -> list[int]:
    """The fragments f with low ⊆ f ⊆ high, ascending, looked up among the
    submasks of high minus low."""
    free = high & ~low
    out = []
    sub = 0
    while True:  # the submasks of free, ascending
        if (sub | low) in frags:
            out.append(sub | low)
        if sub == free:
            return out
        sub = (sub - free) & free


def _part_removed(idx: _Index, less: Sequence[int], r: int, d: int) -> bool:
    """Do the fragments inside ``r`` remove the fragment with outside part
    ``d``, that is d | r?  The lemma of the module description."""
    return any(_beaten(idx, less, r, d, idx.or_of(d, idx.defeats)))


def _preferred_masks(p: PrefProgram, bounds: Bounds | None) -> tuple[_Index, list[int]]:
    """The generating sets R whose fragments remove every fragment outside
    R, as masks, ascending; one fragment D | R is tested per outside part D
    free of robust rules, as the module description explains."""
    idx = _lattice_index(p, bounds)
    less = p.less
    everything = (1 << idx.n) - 1
    out = []
    for labels in generating_sets(p, bounds):
        r = idx.mask_of(labels)
        outside = everything & ~r
        robust = sum(_beaten(idx, less, r, outside, idx.or_of(outside, idx.defeats)))
        frags = idx.fragments  # built only when some generating set needs it
        if all(
            _part_removed(idx, less, r, x & ~r)
            for x in _fragments_between(frags, r, everything & ~robust)[1:]  # R is first
        ):
            out.append(r)
    return idx, out


def _witness(idx: _Index, r: int) -> FragmentFamily:
    """The fragments inside the generating set ``r``."""
    return frozenset(idx.labels_of(m) for m in _fragments_between(idx.fragments, 0, r))


def preferred_answer_sets_g(
    p: PrefProgram, bounds: Bounds | None = None
) -> list[tuple[AnswerSet, FragmentFamily]]:
    """Preferred answer sets, each with the fragments inside its generating
    set as the witnessing preferred stable fragment set."""
    idx, masks = _preferred_masks(p, bounds)
    return [
        (a, _witness(idx, idx.mask_of(a.generating)))
        for a in _answer_sets_from_masks(idx, masks)
    ]
