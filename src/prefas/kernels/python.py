"""The enumeration kernels, over bitmask tables of one program.

A program with n rules is compiled into flat tables indexed by rule number:

  head_bits[i]  bit of rule i's head in the table of distinct head literals
  pos_masks[i]  positive-body literals of rule i that are heads of some rule
  pos_ok[i]     False when rule i's positive body mentions a literal that no
                rule derives, so the rule can never fire
  removes[j]    rules that rule j removes from the reduct when it is in
                the tested subset

All sets are bitmasks.  Enumeration results are ascending by mask value.
"""

from __future__ import annotations

from typing import Sequence


def minpos(
    members: int, head_bits: Sequence[int], pos_masks: Sequence[int], pos_ok: Sequence[bool]
) -> int:
    """Least fixpoint of rule application ignoring negative bodies.

    Returns the subset of ``members`` that fires when rules are applied
    iteratively, each rule requiring its positive body among the heads of
    rules applied before it.
    """
    pending = [i for i in range(len(head_bits)) if members >> i & 1 and pos_ok[i]]
    lits = 0
    done = 0
    while pending:
        waiting = []
        for i in pending:
            if pos_masks[i] & ~lits == 0:
                done |= 1 << i
                lits |= head_bits[i]
            else:
                waiting.append(i)
        if len(waiting) == len(pending):
            break
        pending = waiting
    return done


def enum_fixpoints(
    n: int,
    head_bits: Sequence[int],
    pos_masks: Sequence[int],
    pos_ok: Sequence[bool],
    removes: Sequence[int],
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

    def least(removed_groups: int) -> tuple[int, int]:
        """minpos with the columns of these groups removed, and the groups
        that result hits."""
        removed = 0
        for b, column in enumerate(columns):
            if removed_groups >> b & 1:
                removed |= column
        r = minpos(everything & ~removed, head_bits, pos_masks, pos_ok)
        hits = 0
        for j in range(n):
            if r >> j & 1:
                hits |= group_of[j]
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


def enum_closed(
    n: int, head_bits: Sequence[int], pos_masks: Sequence[int], pos_ok: Sequence[bool]
) -> list[int]:
    """All subsets T with minpos(T) == T, i.e. the self-supporting rule sets."""
    out = []
    for t in range(1 << n):
        if minpos(t, head_bits, pos_masks, pos_ok) == t:
            out.append(t)
    return out
