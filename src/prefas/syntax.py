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

The preference relation a user writes can be any set of pairs; it is closed
transitively here, and rejected if the closure is not asymmetric (i.e. the
written pairs contain a directed cycle).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

RESERVED_PREFIX = "__"

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\([^()]*\))?")
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    """An enumeration bound was exceeded; see ``prefas.base.Bounds``."""


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its classical negation."""

    atom: str
    positive: bool = True

    def __str__(self) -> str:
        return self.atom if self.positive else "-" + self.atom

    @property
    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)


@dataclass(frozen=True)
class Rule:
    """A labelled rule ``head :- pos_body, not neg_body``.

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefProgram):
            return NotImplemented
        return frozenset(self.rules) == frozenset(other.rules) and self.prefs == other.prefs

    def __hash__(self) -> int:
        return hash((frozenset(self.rules), self.prefs))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

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
    succ: dict[str, set[str]] = {}
    for lo, hi in raw_pairs:
        for name in (lo, hi):
            if name not in known:
                raise KeyError(f"preference names unknown rule label {name!r}")
        succ.setdefault(lo, set()).add(hi)

    closed = {(lo, hi) for lo, his in succ.items() for hi in his}
    changed = True
    while changed:
        changed = False
        for lo, hi in list(closed):
            for hi2 in succ.get(hi, ()):
                if (lo, hi2) not in closed:
                    closed.add((lo, hi2))
                    succ.setdefault(lo, set()).add(hi2)
                    changed = True

    for lo, hi in closed:
        if lo == hi or (hi, lo) in closed:
            raise PreferenceCycleError(
                f"preferences are cyclic: {lo} and {hi} would each be "
                "preferred over the other"
            )
    return frozenset(closed)


_TOKEN_KINDS = (
    ("IMPL", ":-"),
    ("DOT", "."),
    ("COMMA", ","),
    ("COLON", ":"),
    ("LT", "<"),
    ("DASH", "-"),
)


@dataclass(frozen=True)
class _Token:
    kind: str  # one of ID, IMPL, DOT, COMMA, COLON, LT, DASH, NL, EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token("NL", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _ATOM_RE.match(text, i)
        if m and m.start() == i:
            token = m.group(0)
            tokens.append(_Token("ID", token, line, col))
            breaks = token.count("\n")  # an argument part may span lines
            line += breaks
            col = len(token) - token.rfind("\n") if breaks else col + len(token)
            i = m.end()
            continue
        for kind, lexeme in _TOKEN_KINDS:
            if text.startswith(lexeme, i):
                tokens.append(_Token(kind, lexeme, line, col))
                i += len(lexeme)
                col += len(lexeme)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allow_reserved: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_reserved = allow_reserved

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def skip_newlines(self) -> None:
        while self.peek().kind == "NL":
            self.next()

    def atom(self) -> str:
        tok = self.expect("ID", "an atom")
        if tok.text == "not":
            raise ParseError("'not' is a keyword, not an atom", tok.line, tok.column)
        if tok.text.startswith(RESERVED_PREFIX) and not self.allow_reserved:
            raise ParseError(
                f"atom {tok.text!r} uses the reserved {RESERVED_PREFIX!r} prefix",
                tok.line,
                tok.column,
            )
        return tok.text

    def literal(self) -> Literal:
        if self.peek().kind == "DASH":
            self.next()
            return Literal(self.atom(), positive=False)
        return Literal(self.atom(), positive=True)

    def body(self) -> tuple[set[Literal], set[Literal]]:
        pos: set[Literal] = set()
        neg: set[Literal] = set()
        while True:
            if self.peek().kind == "ID" and self.peek().text == "not":
                self.next()
                neg.add(self.literal())
            else:
                pos.add(self.literal())
            if self.peek().kind == "COMMA":
                self.next()
                continue
            return pos, neg

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "DOT":
            self.next()
        elif tok.kind in ("NL", "EOF"):
            pass  # one statement per line is also accepted
        else:
            self.fail(f"expected '.' or end of line, found {tok.text!r}")


def parse_program(text: str, allow_reserved: bool = False) -> PrefProgram:
    """Parse program text into a :class:`PrefProgram`.

    Rules come out in source order and ``raw_prefs`` holds the preference
    pairs exactly as written; ``prefs`` is their transitive closure.  Set
    ``allow_reserved`` to accept ``__``-prefixed atoms, e.g. when reading
    back a generated program.
    """
    parser = _Parser(_tokenize(text), allow_reserved)
    rules: list[Rule] = []
    seen_labels: dict[str, int] = {}
    seen_bodies: set[tuple[Literal, frozenset[Literal], frozenset[Literal]]] = set()
    raw_pairs: list[tuple[str, str]] = []
    pair_positions: list[tuple[int, int]] = []

    while True:
        parser.skip_newlines()
        if parser.peek().kind == "EOF":
            break
        tok = parser.expect("ID", "a rule label")
        label = tok.text
        if not _LABEL_RE.fullmatch(label):
            raise ParseError(f"invalid label {label!r}", tok.line, tok.column)
        after = parser.next()
        if after.kind == "LT":
            other = parser.expect("ID", "a rule label")
            raw_pairs.append((label, other.text))
            pair_positions.append((tok.line, tok.column))
            parser.end_statement()
            continue
        if after.kind != "COLON":
            raise ParseError(
                f"expected ':' or '<' after label {label!r}", after.line, after.column
            )
        if label in seen_labels:
            raise ParseError(f"duplicate rule label {label!r}", tok.line, tok.column)
        head = parser.literal()
        pos: set[Literal] = set()
        neg: set[Literal] = set()
        if parser.peek().kind == "IMPL":
            parser.next()
            pos, neg = parser.body()
        parser.end_statement()
        rule = Rule(label, head, frozenset(pos), frozenset(neg))
        key = (rule.head, rule.pos_body, rule.neg_body)
        if key in seen_bodies:
            raise ParseError(
                f"rule {label!r} duplicates an earlier rule (same head and body)",
                tok.line,
                tok.column,
            )
        seen_bodies.add(key)
        seen_labels[label] = tok.line
        rules.append(rule)

    labels = {r.label for r in rules}
    for (lo, hi), (line, col) in zip(raw_pairs, pair_positions):
        for name in (lo, hi):
            if name not in labels:
                raise ParseError(f"preference names unknown rule label {name!r}", line, col)
    closed = close_preferences(raw_pairs, labels)
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
