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
sets that are fixpoints of a reduct by deciding which removal columns a
set hits.  It propagates before it branches: a partial decision bounds
every completion between two least fixpoints, which reject the branch or
decide more columns, and it branches on one column only when nothing more
follows (the alternating fixpoint of Van Gelder, PODS 1989).
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
    """All subsets R with R == minpos(all minus the union of removes[j], j in R).

    The kept set depends only on which columns R hits, where column j,
    ``removes[j]``, is the set of rules that rule j removes.  Rules with
    equal columns are grouped.  A guess G of the groups R hits fixes the
    kept set, hence R_G = minpos(all minus the columns of G), and R_G is a
    solution exactly when it hits the groups of G and no others.

    The search keeps a partial guess: groups decided hit (H), decided not
    hit (N) and undecided (U).  minpos is monotone, so every completion
    G of H has R_G between rmin = minpos(all minus cols(H and U)) and
    rmax = minpos(all minus cols(H)).  A branch is rejected when rmin hits
    a group in N or rmax misses one in H.  Undecided groups that rmin hits
    move to H, those that rmax misses move to N, and this repeats until
    nothing changes; only then does the search branch on one undecided
    group.  With U empty, rmin == rmax is a solution.  This is the
    alternating-fixpoint approximation of Van Gelder (PODS 1989).  The two
    branches split the guesses, so nothing is found twice.
    """
    groups: dict[int, int] = {}  # non-zero column -> its group's index
    group_of = [0] * n  # rule -> bit of its group, 0 for a zero column
    for j, column in enumerate(removes):
        if column:
            group_of[j] = 1 << groups.setdefault(column, len(groups))
    columns = list(groups)
    every_group = (1 << len(columns)) - 1
    everything = (1 << n) - 1
    free = free_rules(pos_masks)

    def least(removed_groups: int) -> tuple[int, int]:
        """minpos with the columns of these groups removed, and the groups
        that result hits."""
        removed = 0
        while removed_groups:
            low = removed_groups & -removed_groups
            removed |= columns[low.bit_length() - 1]
            removed_groups ^= low
        r = rest = _minpos(everything & ~removed, head_bits, pos_masks, free)
        hits = 0
        while rest:
            low = rest & -rest
            hits |= group_of[low.bit_length() - 1]
            rest ^= low
        return r, hits

    out = []
    stack = [(0, 0)]  # (groups decided hit, groups decided not hit)
    while stack:
        hit, missed = stack.pop()
        rmin, low = least(every_group & ~missed)
        high = least(hit)[1]
        while not (low & missed or hit & ~high):  # else no completion is a solution
            grown_hit, grown_missed = hit | low, missed | every_group & ~high
            if grown_hit == hit and grown_missed == missed:
                undecided = every_group & ~hit & ~missed
                if not undecided:
                    out.append(rmin)
                else:
                    g = undecided & -undecided
                    stack.append((hit, missed | g))
                    stack.append((hit | g, missed))
                break
            if grown_missed != missed:
                rmin, low = least(every_group & ~grown_missed)
            if grown_hit != hit:
                high = least(grown_hit)[1]
            hit, missed = grown_hit, grown_missed
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
