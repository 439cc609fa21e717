"""The enumeration kernels, over bitmask tables of one program.

A program with n rules is compiled into flat tables indexed by rule number:

  head_bits[i]  bit of rule i's head in the table of distinct head literals
  pos_masks[i]  positive-body literals of rule i that are heads of some rule
  pos_ok[i]     False when rule i's positive body mentions a literal that no
                rule derives, so the rule can never fire
  remover[i]    rules whose presence in the tested subset removes rule i
                from the reduct

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
    remover: Sequence[int],
) -> list[int]:
    """All subsets R with R == minpos({i : remover[i] & R == 0}).

    The kept set depends only on which columns of ``remover`` R hits, where
    column j is the set of rules that rule j removes.  Rules with equal
    columns are grouped, and the search guesses one bit per group with a
    non-zero column: the guess fixes the kept set, hence R = minpos(kept),
    and R is a solution exactly when it hits the guessed groups and no
    others.  Each solution has one such guess, so nothing is found twice.
    """
    groups: dict[int, int] = {}  # non-zero column -> rules having it
    for j in range(n):
        column = sum(1 << i for i in range(n) if remover[i] >> j & 1)
        if column:
            groups[column] = groups.get(column, 0) | 1 << j
    removes = list(groups)
    members = list(groups.values())
    everything = (1 << n) - 1
    out = []
    for guess in range(1 << len(removes)):
        removed = 0
        for b, column in enumerate(removes):
            if guess >> b & 1:
                removed |= column
        r = minpos(everything & ~removed, head_bits, pos_masks, pos_ok)
        hit = 0
        for b, rules in enumerate(members):
            if r & rules:
                hit |= 1 << b
        if hit == guess:
            out.append(r)
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
