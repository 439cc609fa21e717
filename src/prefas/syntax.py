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

The preference relation a user writes can be any set of pairs; it is closed
transitively here, and rejected if the closure is not asymmetric (i.e. the
written pairs contain a directed cycle).

Parsing makes one ``findall`` pass of a compiled regular expression over the
text.  Each match skips blanks and a comment, then yields one token as a
plain string; a character that starts no token becomes a one-character
token of its own, and the empty match at the end of the text marks the end
of input.  The parse loop reads that list by index and tracks no positions.
Only a :class:`ParseError` scans the text again, up to the failing token,
and turns the token's offset into a line and a column: lines end at ``\n``,
and a tab or ``\r`` is one column.  A text holding a character that starts
no token is reported at the first such character, before any other error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

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

    @property
    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)


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
    """A rule set with a transitively closed, asymmetric order on labels.

    ``prefs`` contains pairs ``(lo, hi)`` meaning ``hi`` is preferred over
    ``lo``.  ``raw_prefs`` keeps the pairs exactly as written in the source,
    before closure.  Two programs are equal when they have the same rules
    and the same closed preference relation; rule order and the raw pairs do
    not take part in equality.
    """

    rules: tuple[Rule, ...]
    prefs: frozenset[tuple[str, str]] = frozenset()
    raw_prefs: tuple[tuple[str, str], ...] = ()

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


def close_preferences(
    raw_pairs: Iterable[tuple[str, str]], labels: Iterable[str]
) -> frozenset[tuple[str, str]]:
    """Transitively close a set of ``(lo, hi)`` preference pairs.

    Raises :class:`PreferenceCycleError` if the closure contains both
    ``(x, y)`` and ``(y, x)`` for any ``x, y`` (including ``x = y``), and
    :class:`KeyError` if a pair names an unknown label.
    """
    known = set(labels)
    succ: dict[str, list[str]] = {}
    for lo, hi in raw_pairs:
        for name in (lo, hi):
            if name not in known:
                raise KeyError(f"preference names unknown rule label {name!r}")
        succ.setdefault(lo, []).append(hi)

    # the closure is asymmetric exactly when no label reaches itself
    closure: dict[str, set[str]] = {}
    for lo, his in succ.items():
        reach = closure[lo] = _reachable(his, succ, closure)
        if lo in reach:
            hi = next(h for h in his if h == lo or lo in _reachable([h], succ, {}))
            raise PreferenceCycleError(
                f"preferences are cyclic: {lo} and {hi} would each be "
                "preferred over the other"
            )
    return frozenset((lo, hi) for lo, reach in closure.items() for hi in reach)


def _reachable(
    start: Iterable[str], succ: dict[str, list[str]], closure: dict[str, set[str]]
) -> set[str]:
    """Every label reachable from ``start`` along ``succ``, ``start``
    included; a label in ``closure`` contributes its known reach at once."""
    seen: set[str] = set()
    stack = list(start)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            known = closure.get(name)
            if known is None:
                stack.extend(succ.get(name, ()))
            else:
                seen |= known
    return seen


# Each match skips blanks and comments, then captures one token: an
# identifier (a label, or an atom with its argument part), a punctuation
# mark, a newline, any other single character (it starts no token and is
# reported), or the empty string at the end of the text.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:%[^\n]*)?"
    r"([A-Za-z_][A-Za-z0-9_]*(?:\([^()]*\))?|:-|[.,:<\n-]|.|\Z)"
)
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCTUATION = frozenset((":-", ".", ",", ":", "<", "-", "\n"))


def _error(text: str, tokens: list[str], k: int, message: str) -> ParseError:
    """The error for token ``k``, located by scanning the text once more.

    A character that starts no token anywhere in the text is reported in
    its place: the grammar cannot accept such a text, and the first of
    them is the first error a reader meets.
    """
    for j, tok in enumerate(tokens):
        if len(tok) == 1 and tok not in _ID_START and tok not in _PUNCTUATION:
            k, message = j, f"unexpected character {tok!r}"
            break
    for _, m in zip(range(k + 1), _TOKEN_RE.finditer(text)):
        pass
    offset = m.start(1)
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_program(text: str, allow_reserved: bool = False) -> PrefProgram:
    """Parse program text into a :class:`PrefProgram`.

    Rules come out in source order and ``raw_prefs`` holds the preference
    pairs exactly as written; ``prefs`` is their transitive closure.  Set
    ``allow_reserved`` to accept ``__``-prefixed atoms, e.g. when reading
    back a generated program.
    """
    tokens = _TOKEN_RE.findall(text)  # ends with "" for the end of input
    literals: tuple[dict[str, Literal], dict[str, Literal]] = ({}, {})

    def expected(k: int, what: str) -> ParseError:
        return _error(text, tokens, k, f"expected {what}, found {tokens[k] or 'end of input'!r}")

    def literal(k: int) -> tuple[Literal, int]:
        """The literal starting at token ``k`` and the index after it."""
        positive = tokens[k] != "-"
        if not positive:
            k += 1
        atom = tokens[k]
        lit = literals[positive].get(atom)
        if lit is None:
            if atom[:1] not in _ID_START:
                raise expected(k, "an atom")
            if atom == "not":
                raise _error(text, tokens, k, "'not' is a keyword, not an atom")
            if atom.startswith(RESERVED_PREFIX) and not allow_reserved:
                raise _error(
                    text, tokens, k,
                    f"atom {atom!r} uses the reserved {RESERVED_PREFIX!r} prefix",
                )
            lit = literals[positive][atom] = Literal(atom, positive)
        return lit, k + 1

    def end_statement(k: int) -> int:
        tok = tokens[k]
        if tok == ".":
            return k + 1
        if tok == "\n" or not tok:  # one statement per line is also accepted
            return k
        raise _error(text, tokens, k, f"expected '.' or end of line, found {tok!r}")

    rules: list[Rule] = []
    seen_labels: set[str] = set()
    seen_bodies: set[tuple[Literal, frozenset[Literal], frozenset[Literal]]] = set()
    raw_pairs: list[tuple[str, str]] = []
    pair_at: list[int] = []  # token index of each pair's first label
    i = 0
    while True:
        label = tokens[i]
        if label == "\n":
            i += 1
            continue
        if not label:
            break
        if label[:1] not in _ID_START:
            raise expected(i, "a rule label")
        if "(" in label:
            raise _error(text, tokens, i, f"invalid label {label!r}")
        label_at = i
        after = tokens[i + 1]
        i += 2
        if after == "<":
            if tokens[i][:1] not in _ID_START:
                raise expected(i, "a rule label")
            raw_pairs.append((label, tokens[i]))
            pair_at.append(label_at)
            i = end_statement(i + 1)
            continue
        if after != ":":
            raise _error(text, tokens, i - 1, f"expected ':' or '<' after label {label!r}")
        if label in seen_labels:
            raise _error(text, tokens, label_at, f"duplicate rule label {label!r}")
        head, i = literal(i)
        pos: list[Literal] = []
        neg: list[Literal] = []
        if tokens[i] == ":-":
            while True:
                i += 1
                if tokens[i] == "not":
                    lit, i = literal(i + 1)
                    neg.append(lit)
                else:
                    lit, i = literal(i)
                    pos.append(lit)
                if tokens[i] != ",":
                    break
        i = end_statement(i)
        rule = Rule(label, head, frozenset(pos), frozenset(neg))
        key = (head, rule.pos_body, rule.neg_body)
        if key in seen_bodies:
            raise _error(
                text, tokens, label_at,
                f"rule {label!r} duplicates an earlier rule (same head and body)",
            )
        seen_bodies.add(key)
        seen_labels.add(label)
        rules.append(rule)

    for (lo, hi), k in zip(raw_pairs, pair_at):
        for name in (lo, hi):
            if name not in seen_labels:
                raise _error(text, tokens, k, f"preference names unknown rule label {name!r}")
    closed = close_preferences(raw_pairs, seen_labels)
    return PrefProgram(tuple(rules), closed, tuple(raw_pairs))


def format_program(p: PrefProgram) -> str:
    """Render a program in the grammar accepted by :func:`parse_program`.

    The closed preference relation is emitted as plain written pairs;
    re-parsing re-closes it, which is idempotent, so the output parses back
    to an equal program.
    """
    lines = [str(r) for r in p.rules]
    lines += [f"{lo} < {hi}." for lo, hi in sorted(p.prefs)]
    return "\n".join(lines) + ("\n" if lines else "")
