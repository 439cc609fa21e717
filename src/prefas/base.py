"""Answer set semantics via generating sets, plus an independent oracle.

The central notions, over a program P (a set of rules):

  defeat          rule r1 defeats r2 when head(r1) is in r2's negative body;
                  lifted to rule sets through their heads
  minpos(R)       the least subset of R closed under applying rules whose
                  positive bodies are already derived; negative bodies are
                  ignored
  reduct(P, R)    P minus the rules defeated by R
  generating set  R with R = minpos(reduct(P, R))
  answer set      a consistent literal set equal to head(R) for some
                  generating set R

A program is a ``PrefProgram``; ``minpos``, ``gl_least_model``,
``gl_is_answer_set`` and ``defeats`` are defined on bare rule sets and
take rules, and the first two share one least-model loop.

``gl_answer_sets`` recomputes answer sets from the classic two-step
reduction (delete rules whose negative body meets the candidate, drop the
remaining negative bodies, take the least model) and is kept deliberately
simple and separate from the enumeration kernels so the two routes check
each other.  The ``g`` semantics' oracle, the preference-aware fragment
reduct over the whole lattice, lives in the tests, as
``reduct_g_by_definition`` in ``tests/helpers.py``: it is built from the
rule-level definitions, not from the index below.

Every table derived from the rules alone lives on one ``_Index`` per rule
tuple, kept in a small lru cache: the bitmask tables, the generating sets
(found by :func:`prefas.kernels.enum_fixpoints`) and the fragment lattice
(found by :func:`prefas.kernels.enum_closed`), each built on first use.
The defeat relation is kept once, as ``defeats[j]``, the rules that rule j
defeats: it is the removal table of the generating-set search, and it
gives each fragment the rules it defeats.  It is built from one mask per
negative-body literal, in time linear in the program.  The preference
semantics filter these tables with the program's closed preference rows,
``less[i]`` the rules that rule i is preferred over: ``d`` strikes the
directly overridden pairs out of ``defeats``, walking only the bits of a
row that the rule defeats, and ``gno`` and ``g`` test each rule i against
``attacks(R & ~M_i)``, the memoised rules that minpos(R minus M_i)
defeats, each with its own mask M_i built from ``less[i]``.  Each has a
``_preferred_masks(p, bounds)`` that returns the index and its preferred
generating sets as masks, and every semantics, the plain one included,
turns masks into answer sets in the one assembly step of ``_assembled``:
one walk over a mask's set bits gathers its heads and its labels, and a
set whose heads hold a mask of ``clashes``, one per pair of complementary
head literals, is dropped as inconsistent.  Results come in bitmask order
over source rule order, and :class:`Bounds` caps the program size on
every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from . import kernels
from .syntax import BoundExceededError, Literal, PrefasError, PrefProgram, Rule


# The variable that ``Bounds.from_env`` reads for each field.  The command
# line's bound messages name it; the library's name the field.
BOUND_VARIABLES = dict(max_rules="PREFAS_MAX_RULES", max_fragment_rules="PREFAS_MAX_FRAGMENT_RULES")


@dataclass(frozen=True)
class Bounds:
    """Enumeration limits.

    ``max_rules`` caps subset enumeration (generating sets and the
    preference semantics), ``max_atoms`` caps the head literals whose
    subsets the classic-reduction oracle tries, and ``max_fragment_rules``
    caps fragment enumeration, whose lattice can hold all 2^n rule subsets.
    A library call given no bounds uses ``DEFAULT_BOUNDS``, these defaults,
    and reads no environment; a bound it exceeds raises
    ``BoundExceededError`` naming the field.  ``from_env`` is the command
    line's reader: it takes each field of ``BOUND_VARIABLES`` from its
    variable, keeps the default ``max_atoms``, and raises ``PrefasError`` on
    a value that is not a non-negative integer.
    """

    max_rules: int = 20
    max_atoms: int = 16
    max_fragment_rules: int = 14

    @classmethod
    def from_env(cls) -> "Bounds":
        def read(field: str, name: str) -> int:
            raw = os.environ.get(name)
            if not raw:
                return getattr(cls, field)
            if not raw.strip().isdecimal():
                raise PrefasError(f"{name} must be a non-negative integer, not {raw!r}")
            return int(raw)

        return cls(**{field: read(field, name) for field, name in BOUND_VARIABLES.items()})


DEFAULT_BOUNDS = Bounds()


@dataclass(frozen=True)
class AnswerSet:
    """An answer set together with the generating rules that witness it."""

    literals: frozenset[Literal]
    generating: frozenset[str]

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(map(str, self.literals))) + "}"


def is_consistent(literals: Iterable[Literal]) -> bool:
    """No two of the literals are complementary: distinct literals clash
    exactly when they share an atom."""
    lits = set(literals)
    return len({l.atom for l in lits}) == len(lits)


def defeats(attackers: Iterable[Rule], targets: Iterable[Rule]) -> bool:
    """Does the rule set ``attackers`` defeat the rule set ``targets``?

    A rule defeats another when its head occurs in the other's negative
    body; a rule set defeats whatever any of its heads defeats.
    """
    heads = {r.head for r in attackers}
    return any(heads & r.neg_body for r in targets)


def gr(s: Iterable[Literal], p: PrefProgram) -> frozenset[str]:
    """The rules applicable under literal set ``s``: positive body inside s,
    negative body disjoint from s."""
    lits = set(s)
    return frozenset(r.label for r in p.rules if r.pos_body <= lits and not r.neg_body & lits)


def _fired(rules: Iterable[Rule]) -> Iterator[Rule]:
    """The rules of the least rule set positively satisfying ``rules``, in
    the order they fire.

    A rule fires once its positive body is among the heads of rules already
    fired, and then leaves the pending list; negative bodies play no part.
    A pass that fires nothing ends the loop.
    """
    pending = list(rules)
    derived: set[Literal] = set()
    while pending:
        waiting = []
        for r in pending:
            if r.pos_body <= derived:
                derived.add(r.head)
                yield r
            else:
                waiting.append(r)
        if len(waiting) == len(pending):
            return
        pending = waiting


def minpos(rules: Iterable[Rule]) -> frozenset[str]:
    """Labels of the least rule set positively satisfying ``rules``."""
    return frozenset(r.label for r in _fired(rules))


def gl_least_model(rules: Iterable[Rule]) -> frozenset[Literal]:
    """Least model of a program read positively (negative bodies dropped):
    the heads of the rules that ``minpos`` fires."""
    return frozenset(r.head for r in _fired(rules))


def reduct(p: PrefProgram, r_labels: Iterable[str]) -> tuple[Rule, ...]:
    """The program minus every rule defeated by the rule set ``r_labels``."""
    heads = {p.by_label[l].head for l in r_labels}
    return tuple(r for r in p.rules if not r.neg_body & heads)


def is_generating(p: PrefProgram, r_labels: Iterable[str]) -> bool:
    members = frozenset(r_labels)
    return minpos(reduct(p, members)) == members


def _at_bits(mask: int, items: Sequence) -> list:
    """``items[i]`` for each set bit i of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


class _Index:
    """Bitmask tables for one rule tuple, shared by every semantics.

    Rule i of the tuple is bit i of a rule mask, and the i-th distinct head
    literal is bit i of a head mask.  ``pos_masks[i]`` is rule i's positive
    body as head bits; a body literal that no rule derives sets the one
    sentinel bit above them, so the kernels never fire that rule and need
    no separate table for it.  ``free`` holds the rules whose positive body
    is empty, which fire at once.  ``defeats[j]`` holds the rules that
    rule j defeats, read off one table from each negative-body literal to
    the rules that hold it, so no rule is tested against another.
    ``clashes`` holds one head mask per pair of complementary head
    literals, so a head set is consistent when it holds none of them.  The
    tables are built here, ``generating`` and ``fragments`` on first use,
    and ``attacks`` per argument; ``_index`` keeps one index per rule
    tuple, so each tuple is scanned at most once for each.
    """

    def __init__(self, rules: tuple[Rule, ...]):
        self.n = len(rules)
        self.labels = tuple(r.label for r in rules)
        head_id: dict[Literal, int] = {}
        for r in rules:
            head_id.setdefault(r.head, len(head_id))
        self.head_lits = tuple(head_id)
        self.head_bits = tuple(1 << head_id[r.head] for r in rules)
        underived = 1 << len(head_id)  # the sentinel: no set of heads holds it
        pos_masks = []
        for r in rules:
            mask = 0
            for l in r.pos_body:
                mask |= 1 << head_id[l] if l in head_id else underived
            pos_masks.append(mask)
        self.pos_masks = tuple(pos_masks)
        self.free = kernels.free_rules(self.pos_masks)
        negated_in: dict[Literal, int] = {}  # literal -> rules with it in their negative body
        for i, r in enumerate(rules):
            for l in r.neg_body:
                negated_in[l] = negated_in.get(l, 0) | 1 << i
        self.defeats = tuple(negated_in.get(r.head, 0) for r in rules)
        self.clashes = tuple(
            1 << i | 1 << head_id[Literal(l.atom)]
            for i, l in enumerate(self.head_lits)
            if not l.positive and Literal(l.atom) in head_id
        )
        self._attacks: dict[int, int] = {}

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(_at_bits(mask, self.labels))

    def minpos_mask(self, members: int) -> int:
        return kernels.minpos(members, self.head_bits, self.pos_masks, self.free)

    def attacks(self, members: int) -> int:
        """A(minpos(members)): the rules that the greatest fragment inside
        ``members`` defeats, memoised per ``members``."""
        found = self._attacks.get(members)
        if found is None:
            found = kernels._or_of(self.minpos_mask(members), self.defeats)
            self._attacks[members] = found
        return found

    @cached_property
    def generating(self) -> tuple[int, ...]:
        """The generating sets as masks, ascending."""
        return tuple(kernels.enum_fixpoints(self.n, self.head_bits, self.pos_masks, self.defeats))

    @cached_property
    def fragments(self) -> dict[int, int]:
        """Each fragment as a mask, ascending, mapped to A(f), the rules
        that f defeats: fragment Y defeats X iff ``fragments[Y] & X``, and
        ``X & fragments[Y]`` are the rules of X that Y defeats.  ``g``
        reads only the keys.  Shared by every caller, so read only."""
        return {
            f: kernels._or_of(f, self.defeats)
            for f in kernels.enum_closed(self.n, self.head_bits, self.pos_masks)
        }


# Small: an index keeps its fragment lattice, up to 2^n masks.  A fuzz step
# uses two rule tuples, the drawn one and its stratified redraw.
_index = lru_cache(maxsize=4)(_Index)


def _check_rule_bound(n: int, bounds: Bounds | None, field: str = "max_rules") -> None:
    """Raise when ``n`` rules exceed the rule bound ``field`` of ``bounds``."""
    limit = getattr(bounds or DEFAULT_BOUNDS, field)
    if n > limit:
        kind = "fragment" if field == "max_fragment_rules" else "subset"
        raise BoundExceededError(
            f"program has {n} rules; {kind} enumeration is bounded at {limit}", field
        )


def _compiled(p: PrefProgram, bounds: Bounds | None, field: str = "max_rules") -> _Index:
    """The index of ``p``'s rules, once they pass the rule bound ``field``."""
    idx = _index(p.rules)
    _check_rule_bound(idx.n, bounds, field)
    return idx


def _beaten(idx: _Index, less: Sequence[int], r: int, rules: int, attacked: int) -> Iterator[int]:
    """The rules i of ``rules``, each as its bit and ascending, that
    minpos(r minus M_i) defeats, where M_i = attacked ∩ less[i] and ``less``
    is the program's ``PrefProgram.less``.  ``gno`` passes every rule as
    ``attacked``, so M_i = less[i]; ``g`` passes A(D) for a part D outside
    ``r``, as the ``fragments`` description explains."""
    while rules:
        low = rules & -rules
        rules ^= low
        if idx.attacks(r & ~(attacked & less[low.bit_length() - 1])) & low:
            yield low


def generating_sets(p: PrefProgram, bounds: Bounds | None = None) -> list[frozenset[str]]:
    """All generating sets, in bitmask order over source rule order."""
    idx = _compiled(p, bounds)
    return [idx.labels_of(m) for m in idx.generating]


def _assembled(idx: _Index, masks: Iterable[int]) -> Iterator[tuple[int, AnswerSet]]:
    """Each of ``masks`` whose heads are consistent, with its answer set, in
    their order.

    One walk over a mask's set bits gathers its head bits and its labels.
    The heads are consistent when they hold no mask of ``idx.clashes``.
    Every semantics passes distinct generating sets: ``as``, ``gno`` and
    ``g`` by construction, and ``d`` because a ``d``-preferred generating
    set defeats none of its own rules, so it is a plain generating set too.
    A generating set is fixed by its heads, since the reduct it is a
    fixpoint of reads only heads(R), so no literal set repeats; the tests
    check both facts.
    """
    labels, head_bits, head_lits, clashes = idx.labels, idx.head_bits, idx.head_lits, idx.clashes
    for m in masks:
        heads = 0
        members = []
        rest = m
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            heads |= head_bits[i]
            members.append(labels[i])
            rest ^= low
        for pair in clashes:
            if heads & pair == pair:
                break
        else:
            yield m, AnswerSet(frozenset(_at_bits(heads, head_lits)), frozenset(members))


def _answer_sets_from_masks(idx: _Index, masks: Iterable[int]) -> list[AnswerSet]:
    """The consistent head sets of ``masks``, in their order, as
    ``_assembled`` finds them."""
    return [a for _, a in _assembled(idx, masks)]


def answer_sets(p: PrefProgram, bounds: Bounds | None = None) -> list[AnswerSet]:
    """Answer sets of the plain program: the heads of generating sets that
    are consistent."""
    idx = _compiled(p, bounds)
    return _answer_sets_from_masks(idx, idx.generating)


def gl_is_answer_set(rules: Iterable[Rule], s: Iterable[Literal]) -> bool:
    """Classic answer set test: delete rules whose negative body meets ``s``,
    then ``s`` must equal the least model of what remains."""
    lits = frozenset(s)
    if not is_consistent(lits):
        return False
    return gl_least_model(r for r in rules if not r.neg_body & lits) == lits


def gl_answer_sets(p: PrefProgram, bounds: Bounds | None = None) -> list[frozenset[Literal]]:
    """Answer sets by direct candidate enumeration over head literals.

    Any answer set is the least model of its reduct and therefore only
    contains literals some rule derives, so candidates range over subsets of
    the distinct head literals.  There are 2^k of them for k head literals,
    up to two per atom, so ``Bounds.max_atoms`` caps k.
    """
    bounds = bounds or DEFAULT_BOUNDS
    basis = list(dict.fromkeys(r.head for r in p.rules))
    if len(basis) > bounds.max_atoms:
        raise BoundExceededError(
            f"program has {len(basis)} distinct head literals; candidate enumeration is "
            f"bounded at {bounds.max_atoms}",
            "max_atoms",
        )
    out = []
    for mask in range(1 << len(basis)):
        cand = frozenset(basis[i] for i in range(len(basis)) if mask >> i & 1)
        if gl_is_answer_set(p.rules, cand):
            out.append(cand)
    return out


def is_stratified(p: PrefProgram) -> bool:
    """No dependency cycle through default negation.

    The dependency graph has an edge from a rule's head to each of its body
    literals, the negative-body edges marked; ``a`` and ``-a`` are distinct
    nodes.  The program is stratified when no marked edge lies on a cycle.
    """
    edges: dict[Literal, set[Literal]] = {}
    neg_edges: list[tuple[Literal, Literal]] = []
    for r in p.rules:
        targets = edges.setdefault(r.head, set())
        targets.update(r.pos_body)
        targets.update(r.neg_body)
        neg_edges.extend((r.head, l) for l in r.neg_body)

    def reaches(src: Literal, dst: Literal) -> bool:
        stack = [src]
        visited = set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(edges.get(node, ()))
        return False

    return not any(reaches(body_lit, head) for head, body_lit in neg_edges)
