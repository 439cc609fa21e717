"""The token parser of program text, the one that reports errors.

:func:`prefas.syntax.parse_program` reads a text a whole statement at a
time and hands it here when it cannot, which it does only for an invalid
text, so only such a text loads this module and gets its error here.
Parsing makes one ``findall`` pass of a compiled token expression over the
text.  Each match skips blanks and a comment, then yields one token as a
plain string; a character that starts no token becomes a one-character
token of its own, and the empty match at the end of the text marks the end
of input.  The parse loop reads that list by index and tracks no positions.
Only a :class:`~prefas.syntax.ParseError` scans the text again, up to the
failing token, and turns the token's offset into a line and a column:
lines end at ``\n``, and a tab or ``\r`` is one column.  A text holding a
character that starts no token is reported at the first such character,
before any other error.
"""

from __future__ import annotations

import re

from .syntax import RESERVED_PREFIX, Literal, ParseError, PrefProgram, Rule

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



def parse_tokens(text: str, allow_reserved: bool) -> PrefProgram:
    """:func:`~prefas.syntax.parse_program` for any text, with the
    :class:`ParseError` of the first token that breaks the grammar."""
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
    program = PrefProgram(tuple(rules), tuple(raw_pairs))
    program.less  # the cycle check; the rows stay for the solver
    return program
