"""The enumeration kernels over the bitmask tables of one program, which
every semantics searches through.

A program with n rules is compiled into flat tables indexed by rule number:

  head_bits[i]  bit of rule i's head in the table of distinct head literals
  pos_masks[i]  positive-body literals of rule i, as head bits; a literal
                that no rule derives sets the sentinel bit
                ``1 << len(head_lits)``, which no set of heads holds, so the
                rule can never fire
  free          the rules with ``pos_masks[i] == 0``, which fire at once
                (``free_rules(pos_masks)``)
  removes[j]    rules that rule j removes from the reduct when it is in
                the tested subset

``minpos`` computes one least fixpoint.  ``enum_fixpoints`` finds the rule
sets that are fixpoints of a reduct by deciding rules in or out.  It
propagates before it branches: a partial decision bounds every completion
between two least fixpoints, which reject the branch or decide more rules,
and it branches on one rule only when nothing more follows (the
alternating fixpoint of Van Gelder, PODS 1989).  It keeps the union of
``removes`` over each bound next to the bound: the lower one's grows by OR
with the rules that join it, and the upper one's is recomputed only after
the upper bound shrank.
``enum_closed`` scans all 2^n rule subsets for the self-supporting ones.

All sets are bitmasks, and the kernels walk their set bits, so a call costs
in proportion to the rules it touches, not to n.  Enumeration results are
ascending by mask value.
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "python"  # the one implementation, whose name benchmark runs record


def free_rules(pos_masks: Sequence[int]) -> int:
    """The rules whose positive body is empty."""
    return sum(1 << i for i, mask in enumerate(pos_masks) if not mask)


def _or_of(mask: int, table: Sequence[int]) -> int:
    """The union of ``table[i]`` over the set bits i of ``mask``."""
    bits = 0
    while mask:
        low = mask & -mask
        bits |= table[low.bit_length() - 1]
        mask ^= low
    return bits


def minpos(members: int, head_bits: Sequence[int], pos_masks: Sequence[int], free: int) -> int:
    """Least fixpoint of rule application ignoring negative bodies.

    Returns the subset of ``members`` that fires when rules are applied
    iteratively, each rule requiring its positive body among the heads of
    rules applied before it.  The ``free`` members fire at once, so a set
    of free rules is its own least model.  Each later round fires every
    pending rule whose body the heads so far cover, and the first round
    that fires nothing ends the search.
    """
    pending = members & ~free
    if not pending:
        return members
    done = members & free
    lits = 0
    rest = done
    while rest:
        low = rest & -rest
        lits |= head_bits[low.bit_length() - 1]
        rest ^= low
    while pending:
        fired = 0
        rest = pending
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if not pos_masks[i] & ~lits:
                fired |= low
                lits |= head_bits[i]
        if not fired:
            break
        done |= fired
        pending ^= fired
    return done


_minpos = minpos  # the kernels call this name, so a wrapper on ``minpos`` sees only outside calls


def enum_fixpoints(
    n: int, head_bits: Sequence[int], pos_masks: Sequence[int], removes: Sequence[int]
) -> list[int]:
    """All subsets R with R == minpos(all minus cut(R)), where cut(S) is the
    union of removes[j] over the rules j in S.

    The search decides rules: L holds the rules decided in and U the rules
    not decided out.  Every R with L ⊆ R ⊆ U has cut(L) ⊆ cut(R) ⊆ cut(U),
    and minpos is monotone, so R lies between kept(cut(U)) and
    kept(cut(L)), where kept(C) = minpos(all minus C).  So L grows by
    kept(cut(U)) and U shrinks to kept(cut(L)), until neither changes; a
    branch with L ⊄ U holds no solution.  This is the alternating-fixpoint
    approximation of Van Gelder (PODS 1989).  Then the search branches on
    the lowest undecided rule j whose removes[j] adds to cut(L); a rule
    whose removes[j] cut(L) already holds changes neither bound.  With no
    such rule cut(L) == cut(U), so L == U is a solution.  The two branches
    split the sets between L and U, so nothing is found twice.

    Each stack entry carries cut(L) and cut(U) with its bounds.  L only
    grows, so cut(L) grows by OR with the cut of the rules that join it; U
    only shrinks, so cut(U) is marked stale (-1) when it does and recomputed
    when next read.  A bound narrows only when the other bound's cut
    changed since it last did.
    """
    everything = (1 << n) - 1
    free = free_rules(pos_masks)
    out = []
    # (L, U, cut(L), cut(U) or -1 while stale, and the cut(L) and cut(U)
    # that last narrowed the other bound, -1 before the first)
    stack = [(0, everything, 0, -1, -1, -1)]
    while stack:
        lo, hi, lo_cut, hi_cut, lo_used, hi_used = stack.pop()
        while not lo & ~hi:  # else no completion is a solution
            if hi_cut < 0:
                hi_cut = _or_of(hi, removes)
            if hi_cut != hi_used:
                hi_used = hi_cut
                grown = _minpos(everything & ~hi_cut, head_bits, pos_masks, free) & ~lo
                if grown:
                    lo |= grown
                    lo_cut |= _or_of(grown, removes)
                continue
            if lo_cut != lo_used:
                lo_used = lo_cut
                kept = hi & _minpos(everything & ~lo_cut, head_bits, pos_masks, free)
                if kept != hi:
                    hi = kept
                    hi_cut = -1
                continue
            rest = hi & ~lo
            while rest:
                low = rest & -rest
                row = removes[low.bit_length() - 1]
                if row & ~lo_cut:
                    stack.append((lo, hi ^ low, lo_cut, -1, lo_used, hi_used))
                    stack.append((lo | low, hi, lo_cut | row, hi_cut, lo_used, hi_used))
                    break
                rest ^= low
            else:
                out.append(lo)
            break
    out.sort()
    return out


def enum_closed(n: int, head_bits: Sequence[int], pos_masks: Sequence[int]) -> list[int]:
    """All subsets T with minpos(T) == T, i.e. the self-supporting rule sets."""
    free = free_rules(pos_masks)
    out = []
    for t in range(1 << n):
        if _minpos(t, head_bits, pos_masks, free) == t:
            out.append(t)
    return out
