"""Syntax of propositional logic programs with preferences on rules.

A program is a set of labelled rules plus a strict preference order on rule
labels.  The concrete grammar (files conventionally use the ``.lpp``
extension, UTF-8 encoded):

    program    := statement*
    statement  := rule | preference
    rule       := label ':' literal (':-' body)? terminator
    body       := bodyitem (',' bodyitem)*
    bodyitem   := 'not'? literal
    literal    := '-'? atom
    preference := label '<' label terminator
    terminator := '.' | end of line

``lo < hi`` declares that rule ``hi`` is preferred over rule ``lo``.  ``%``
starts a comment running to the end of the line.  Classical negation is
written with a ``-`` prefix, default negation with the keyword ``not``.
Atoms are identifiers, optionally followed by an opaque parenthesised
argument part such as ``rec(car_1)``; atom names starting with ``__`` are
reserved for generated programs and rejected on ordinary input.

A :class:`Literal` is a named tuple ``(atom, positive)``: it hashes,
compares and sorts as that plain tuple does, and compares equal to it, so
``Literal("a") == ("a", True)``.  A :class:`Rule` is likewise a named tuple
``(label, head, pos_body, neg_body)`` and compares equal to that plain
tuple.

The preference relation a user writes can be any set of pairs; a program
keeps the pairs as written and closes them transitively into one bit row
per rule, and it is rejected if the closure is not asymmetric (i.e. the
written pairs contain a directed cycle).

Parsing makes one ``findall`` pass of a compiled statement expression over
the text.  Each match is a whole preference ``lo < hi``, a whole rule
``label: head :- body`` with its terminator, a blank or comment line, or a
single character that starts none of these; body items are split by a
second expression, since an argument part such as ``p(a, b)`` may hold
commas.  That pass has no error text of its own.  When a character matches
no statement, an atom is ``not`` or reserved, a label or a rule repeats, or
a pair names an unknown label, the text is parsed again by the token
parser of :mod:`prefas.tokens`, which reports the error with its line and
column; that module is imported on first need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Sequence

RESERVED_PREFIX = "__"


class PrefasError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrefasError):
    """Invalid program text; carries the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class PreferenceCycleError(PrefasError):
    """The written preference pairs contain a directed cycle, so their
    transitive closure would not be asymmetric."""


class BoundExceededError(PrefasError):
    """An enumeration bound was exceeded; the message is ``reason`` and the
    name of ``field``, the ``prefas.base.Bounds`` field that holds it."""

    def __init__(self, reason: str, field: str):
        super().__init__(f"{reason} (Bounds.{field})")
        self.reason, self.field = reason, field


class Literal(NamedTuple):
    """An atom or its classical negation, as the tuple ``(atom, positive)``;
    hashing, equality and ordering are the tuple's, and run in C."""

    atom: str
    positive: bool = True

    def __str__(self) -> str:
        return self.atom if self.positive else "-" + self.atom


class Rule(NamedTuple):
    """A labelled rule ``head :- pos_body, not neg_body``, as the tuple
    ``(label, head, pos_body, neg_body)``; hashing and equality are the
    tuple's, and run in C.

    Rule identity within a program is the label; two distinct rules may not
    share both head and body.
    """

    label: str
    head: Literal
    pos_body: frozenset[Literal] = frozenset()
    neg_body: frozenset[Literal] = frozenset()

    def __str__(self) -> str:
        items = sorted(map(str, self.pos_body))
        items += ["not " + s for s in sorted(map(str, self.neg_body))]
        if items:
            return f"{self.label}: {self.head} :- {', '.join(items)}."
        return f"{self.label}: {self.head}."


@dataclass(frozen=True, eq=False)
class PrefProgram:
    """A rule set with a strict preference order on its labels.

    ``pairs`` holds the ``(lo, hi)`` pairs meaning ``hi`` is preferred over
    ``lo``, as written in the source; any acyclic pair set will do, closed
    or not.  ``less[i]`` is their transitive closure as bits: the rules that
    rule i is preferred over, bit j for rule j in source order.  It is built
    on first use, by the parser at once, and raises
    :class:`PreferenceCycleError` on a cycle and ``KeyError`` on an unknown
    label.  ``prefs`` is the closed relation as a pair set.  Two
    programs are equal when they have the same rules and the same closed
    relation; rule order and the written pairs do not take part in
    equality.
    """

    rules: tuple[Rule, ...]
    pairs: Collection[tuple[str, str]] = ()

    @cached_property
    def less(self) -> tuple[int, ...]:
        if not self.pairs:
            return (0,) * len(self.rules)
        return _closed_rows({r.label: i for i, r in enumerate(self.rules)}, self.pairs)

    @cached_property
    def prefs(self) -> frozenset[tuple[str, str]]:
        if not self.pairs:
            return frozenset()
        return _closed_pairs(self.labels(), self.less)

    @cached_property
    def _identity(self) -> tuple[frozenset[Rule], frozenset[tuple[str, str]]]:
        """What equality and hashing compare, built once per program."""
        return frozenset(self.rules), self.prefs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefProgram):
            return NotImplemented
        return self._identity == other._identity

    def __hash__(self) -> int:
        return hash(self._identity)

    @cached_property
    def by_label(self) -> dict[str, Rule]:
        return {r.label: r for r in self.rules}

    @cached_property
    def atoms(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.rules:
            out.add(r.head.atom)
            out.update(l.atom for l in r.pos_body)
            out.update(l.atom for l in r.neg_body)
        return frozenset(out)

    def rule(self, label: str) -> Rule:
        return self.by_label[label]

    def rules_of(self, labels: Iterable[str]) -> tuple[Rule, ...]:
        """The rules named by ``labels``, in program order."""
        wanted = set(labels)
        unknown = wanted - self.by_label.keys()
        if unknown:
            raise KeyError(f"unknown rule labels: {sorted(unknown)}")
        return tuple(r for r in self.rules if r.label in wanted)

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rules)

    def preferred_over(self, lo: str, hi: str) -> bool:
        """True when rule ``hi`` is preferred over rule ``lo`` (``lo < hi``)."""
        return (lo, hi) in self.prefs


def _closed_rows(position: dict[str, int], pairs: Collection[tuple[str, str]]) -> tuple[int, ...]:
    """The transitive closure of ``pairs`` as one bit row per label:
    ``rows[position[hi]]`` holds bit ``position[lo]`` for each ``lo`` below
    ``hi``, as :func:`_reach` finds it over the edges hi -> lo.

    On a cycle the error names the first ``lo`` in pair order whose row
    holds its own bit, with its first written ``hi`` that lies below it
    again.  Raises ``KeyError`` for the first label, in pair order, missing
    from ``position``.
    """
    below: list[list[int]] = [[] for _ in range(len(position))]
    try:
        for lo, hi in pairs:
            j = position[lo]
            below[position[hi]].append(j)
    except KeyError as missing:
        raise KeyError(f"preference names unknown rule label {missing.args[0]!r}") from None
    rows, cyclic = _reach(below)
    if cyclic:
        lo = next(lo for lo, _ in pairs if rows[position[lo]] >> position[lo] & 1)
        row = rows[position[lo]]
        hi = next(h for l, h in pairs if l == lo and row >> position[h] & 1)
        raise PreferenceCycleError(
            f"preferences are cyclic: {lo} and {hi} would each be preferred over the other"
        )
    return tuple(rows)


def _reach(below: Sequence[Sequence[int]]) -> tuple[list[int], bool]:
    """The nodes each node reaches by one or more edges, as bit rows, and
    whether the graph has a cycle; ``below[i]`` lists the nodes that node
    i's edges lead to.

    One post-order DFS gives each row as the OR of (bit j | row[j]) over
    its edges i -> j.  A node met again while it is on the stack closes a
    cycle, and the rows are then completed by propagation, so that a node
    on a cycle holds its own bit.
    """
    n = len(below)
    rows = [0] * n
    state = bytearray(n)  # 0 unseen, 1 on the stack, 2 closed
    cyclic = False
    for root in range(n):
        if state[root] or not below[root]:
            continue
        state[root] = 1
        stack = [(root, iter(below[root]))]
        while stack:
            node, children = stack[-1]
            row = rows[node]
            for child in children:
                seen = state[child]
                if not seen:
                    if below[child]:
                        state[child] = 1
                        stack.append((child, iter(below[child])))
                        break
                    state[child] = 2  # a leaf: its row stays 0
                elif seen == 1:
                    cyclic = True
                row |= 1 << child | rows[child]
            else:
                state[node] = 2
                stack.pop()
                if stack:
                    rows[stack[-1][0]] |= 1 << node | row
            rows[node] = row
    if cyclic:
        changed = True
        while changed:
            changed = False
            for i, edges in enumerate(below):
                row = rows[i]
                for j in edges:
                    row |= 1 << j | rows[j]
                if row != rows[i]:
                    rows[i], changed = row, True
    return rows, cyclic


def _closed_pairs(labels: Sequence[str], rows: Sequence[int]) -> frozenset[tuple[str, str]]:
    """The pairs ``(lo, hi)`` that the bit rows of ``labels`` hold."""
    return frozenset((lo, hi) for hi, row in zip(labels, rows) for lo in _at_bits(row, labels))


def _at_bits(mask: int, items: Sequence) -> list:
    """``items[i]`` for each set bit i of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


# The statement pass.  Between tokens the token parser skips blanks, and a
# comment only before a newline or the end; ``not`` is the keyword only as
# a whole identifier, and ``:`` before ``-`` is the token ``:-``.
_W = r"[ \t\r]*"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_LITERAL = rf"(?:-{_W})?{_ID}(?:\([^()]*\))?"
_ITEM = rf"(?:not(?![A-Za-z0-9_(]){_W})?{_LITERAL}"
_COMMENT = r"(?:%[^\n]*)?"
# Each match is one statement with its terminator and, after a '.', the
# rest of its line when that is blank: groups (label, hi) for ``label <
# hi``, (label, head, body) for a rule; a blank or comment line, or the
# empty match at the end, has no group; any other character is the last
# group, and the token parser takes over.
_STATEMENT_RE = re.compile(
    rf"{_W}(?:({_ID}){_W}(?:<{_W}({_ID})|:(?!-){_W}({_LITERAL})"
    rf"(?:{_W}:-{_W}({_ITEM}(?:{_W},{_W}{_ITEM})*))?)"
    rf"{_W}(?:\.(?:{_W}{_COMMENT}\n)?|{_COMMENT}(?:\n|\Z))|{_COMMENT}(?:\n|\Z))"
    r"|(.)"
)
# One body item: (literal, "") under ``not``, else ("", literal)
_ITEM_RE = re.compile(rf"not(?![A-Za-z0-9_(]){_W}({_LITERAL})|({_LITERAL})")


class _NotAStatement(Exception):
    """The statement pass cannot read the text; the token parser reports why."""


def _parse_statements(text: str, allow_reserved: bool) -> PrefProgram:
    """The program of a text that the statement pass reads whole, with its
    preference rows built; raises :class:`_NotAStatement` when the text
    holds anything the token parser would reject, a preference cycle
    apart, which raises :class:`PreferenceCycleError` as there."""
    literals: dict[str, Literal] = {}  # literal text -> literal

    def literal(written: str) -> Literal:
        positive = written[0] != "-"
        atom = written if positive else written[1:].lstrip(" \t\r")
        if atom == "not" or atom.startswith(RESERVED_PREFIX) and not allow_reserved:
            raise _NotAStatement
        lit = literals[written] = Literal(atom, positive)
        return lit

    rules: list[Rule] = []
    labels: set[str] = set()
    seen_bodies: set[tuple[Literal, frozenset[Literal], frozenset[Literal]]] = set()
    pairs: list[tuple[str, str]] = []
    for label, hi, head, body, other in _STATEMENT_RE.findall(text):
        if hi:
            pairs.append((label, hi))
        elif head:
            if label in labels:
                raise _NotAStatement
            head_lit = literals.get(head) or literal(head)
            pos: list[Literal] = []
            neg: list[Literal] = []
            if body:
                for negative, positive in _ITEM_RE.findall(body):
                    if negative:
                        neg.append(literals.get(negative) or literal(negative))
                    else:
                        pos.append(literals.get(positive) or literal(positive))
            rule = Rule(label, head_lit, frozenset(pos), frozenset(neg))
            key = (head_lit, rule.pos_body, rule.neg_body)
            if key in seen_bodies:
                raise _NotAStatement
            seen_bodies.add(key)
            labels.add(label)
            rules.append(rule)
        elif other:
            raise _NotAStatement
    program = PrefProgram(tuple(rules), tuple(pairs))
    try:
        program.less  # the cycle check; the rows stay for the solver
    except KeyError:  # a pair names an unknown label
        raise _NotAStatement from None
    return program


def parse_program(text: str, allow_reserved: bool = False) -> PrefProgram:
    """Parse program text into a :class:`PrefProgram`.

    Rules come out in source order and ``pairs`` holds the preference pairs
    exactly as written; ``prefs`` is their transitive closure.  Set
    ``allow_reserved`` to accept ``__``-prefixed atoms, e.g. when reading
    back a generated program.
    """
    try:
        return _parse_statements(text, allow_reserved)
    except _NotAStatement:
        from . import tokens  # imported only when the statement pass declines a text

        return tokens.parse_tokens(text, allow_reserved)


def format_program(p: PrefProgram) -> str:
    """Render a program in the grammar accepted by :func:`parse_program`.

    The closed preference relation is emitted as plain written pairs;
    re-parsing re-closes it, which is idempotent, so the output parses back
    to an equal program.
    """
    lines = [str(r) for r in p.rules]
    lines += [f"{lo} < {hi}." for lo, hi in sorted(p.prefs)]
    return "\n".join(lines) + ("\n" if lines else "")
