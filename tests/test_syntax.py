import ast
import random
import re

import pytest
from helpers import (
    CYCLE_IDS,
    CYCLE_MESSAGES,
    closure_by_composition,
    cycle_message,
    even_loops,
    random_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from prefas import fixtures, syntax, tokens
from prefas.syntax import (
    Literal,
    ParseError,
    PreferenceCycleError,
    PrefProgram,
    Rule,
    format_program,
    parse_program,
)
from prefas.transform import transform
from prefas.verify import GenParams, random_lpp


def lit(s):
    return Literal(s.lstrip("-"), positive=not s.startswith("-"))


def test_parse_indirect_conflict_fixture():
    p = parse_program("r1: a :- x.\nr2: x :- not b.\nr3: b :- not a.\nr2 < r3.")
    assert p.labels() == ("r1", "r2", "r3")
    assert p.rule("r1") == Rule("r1", lit("a"), frozenset({lit("x")}))
    assert p.rule("r2") == Rule("r2", lit("x"), neg_body=frozenset({lit("b")}))
    assert p.rule("r3") == Rule("r3", lit("b"), neg_body=frozenset({lit("a")}))
    assert p.pairs == (("r2", "r3"),)
    assert p.prefs == {("r2", "r3")}


def test_parse_empty_input():
    p = parse_program("")
    assert p.rules == ()
    assert p.prefs == frozenset()


def test_parse_duplicate_label_rejected():
    with pytest.raises(ParseError, match="duplicate rule label"):
        parse_program("r1: a :- x.\nr1: b.")


def test_parse_duplicate_rule_rejected():
    with pytest.raises(ParseError, match="duplicates an earlier rule"):
        parse_program("r1: a :- x, not b.\nr2: a :- x, not b.")


def test_parse_reserved_atom_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_program("r1: __n_r1.")
    p = parse_program("r1: __n_r1.", allow_reserved=True)
    assert p.rule("r1").head.atom == "__n_r1"


def test_parse_unknown_pref_label():
    with pytest.raises(ParseError, match="unknown rule label"):
        parse_program("r1: a.\nr1 < r9.")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("r1: a.\nr2: b :- , c.")
    assert err.value.line == 2
    assert err.value.column == 10


def test_parse_position_after_an_argument_spanning_lines():
    # the argument parts of p(a\nb) span lines, so the '?' is on line 5
    with pytest.raises(ParseError) as err:
        parse_program("r1: p(a\nb).\nr2: q :- not p(a\nb).\nr3: ?")
    assert (err.value.line, err.value.column) == (5, 5)


# one case or more per ParseError message, each with its exact position:
# tabs and '\r' count as one column, argument parts may span lines
ERROR_CASES = [
    ("r1: a.\n\tr2: b ? c.", "2:8: unexpected character '?'"),
    ("r1: a.\r\nr2: b :- $.", "2:10: unexpected character '$'"),
    ("r1: a :- p(x.", "1:11: unexpected character '('"),
    ("r1: a.\n  , r2: b.", "2:3: expected a rule label, found ','"),
    ("r1: a.\nr1 < .", "2:6: expected a rule label, found '.'"),
    ("r1: a.\nr2 <", "2:5: expected a rule label, found 'end of input'"),
    ("r1: a :- x.\nr2: b :- , c.", "2:10: expected an atom, found ','"),
    ("r1: a :-", "1:9: expected an atom, found 'end of input'"),
    ("r1: a :-\n", "1:9: expected an atom, found '\\n'"),
    ("r1: a :- not not b.", "1:14: 'not' is a keyword, not an atom"),
    ("r1: -not.", "1:6: 'not' is a keyword, not an atom"),
    ("r1: a :- __x.", "1:10: atom '__x' uses the reserved '__' prefix"),
    ("r1: a.\np(x): b.", "2:1: invalid label 'p(x)'"),
    ("r1: a.\nr2 a.", "2:4: expected ':' or '<' after label 'r2'"),
    ("r1: a.\nr2", "2:3: expected ':' or '<' after label 'r2'"),
    ("r1: a.\r\n\tr2: b. c", "2:10: expected ':' or '<' after label 'c'"),
    ("r1: a b.", "1:7: expected '.' or end of line, found 'b'"),
    ("r1: p(a\nb) :- q(\n c) d.", "3:5: expected '.' or end of line, found 'd'"),
    ("r1: a.\nr1: b.", "2:1: duplicate rule label 'r1'"),
    (
        "r1: a :- b, not c.\nr2: a :- not c, b.",
        "2:1: rule 'r2' duplicates an earlier rule (same head and body)",
    ),
    ("r1: a.\nr2: b.\nr1 < r9.", "3:1: preference names unknown rule label 'r9'"),
    ("r1: a.\nr2: b.\nr9 < r1.", "3:1: preference names unknown rule label 'r9'"),
]


@pytest.mark.parametrize("text, message", ERROR_CASES)
def test_parse_error_message_and_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message
    line, column = message.split(":")[:2]
    assert (err.value.line, err.value.column) == (int(line), int(column))


def test_unexpected_character_is_reported_before_an_earlier_grammar_error():
    with pytest.raises(ParseError) as err:
        parse_program("r1 a.\nr2: b ? c.")
    assert str(err.value) == "2:7: unexpected character '?'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("r1: a :- % c\n", "1:13: expected an atom, found '\\n'"),
        ("r1: a :- % c", "1:13: expected an atom, found 'end of input'"),
        ("r1: a. % c\nr2 % d\n", "2:7: expected ':' or '<' after label 'r2'"),
    ],
)
def test_error_after_a_comment_is_placed_past_the_comment(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


def _offset(text, line, column):
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    return starts[line - 1] + column - 1


# messages that quote what stands at the reported position
_NAMED_AT_POSITION = (
    re.compile(r"found (.+)$"),
    re.compile(r"unexpected character (.+)$"),
    re.compile(r"^atom (.+) uses the reserved"),
    re.compile(r"^invalid label (.+)$"),
    re.compile(r"^duplicate rule label (.+)$"),
    re.compile(r"^rule (.+) duplicates an earlier rule"),
)

_MUTATIONS = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.floats(min_value=0, max_value=1, exclude_max=True),
    st.sampled_from(["%", "% c", "\n", "\t", "\r", " ", "?", "(", ")", ":", ":-", "-",
                     ".", ",", "<", "x", "not ", "__", "é"]),
)


def _mutated(text, mutations):
    for op, where, piece in mutations:
        i = int(where * (len(text) + 1))
        if op == "insert":
            text = text[:i] + piece + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + len(piece):]
        else:
            text = text[:i] + piece + text[i + len(piece):]
    return text


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_reported_position_shows_the_named_text(seed, mutations):
    text = _mutated(format_program(random_lpp(GenParams(seed=seed, pref_density=0.5))), mutations)
    try:
        parse_program(text)
    except ParseError as err:
        message = str(err).split(": ", 1)[1]
        at = text[_offset(text, err.line, err.column):]
        if message.endswith("found 'end of input'"):
            assert at == ""
            return
        if message.startswith("'not' is a keyword"):
            assert at.startswith("not")
            return
        for pattern in _NAMED_AT_POSITION:
            m = pattern.search(message)
            if m:
                assert at.startswith(ast.literal_eval(m.group(1)))
                return
    except PreferenceCycleError:
        pass


# The statement pass reads a whole statement per match and falls back to
# the token parser on anything it cannot read; the two must agree.

_LABELS = ["r1", "r2", "r3", "r4", "r5", "r6", "not", "__l", "x_1"]
_ATOMS = ["a", "b", "p(a, b)", "q(x,y)", "nota", "not_b", "s(a\nb)", "c1"]
_GAPS = ["", " ", "\t", " \t "]
_SPACES = [" ", "\t", "  "]
# what may follow a statement: after its '.', or in place of a '.'
_AFTER_DOT = ["", " ", "\n", "\r\n", " % note\n", "\n\n", "\t\r\n% line\n"]
_LINE_ENDS = ["\n", "\r\n", " % note\n", "\t\n"]


@st.composite
def layouts(draw):
    """A valid program text in a varied layout, with the rules and pairs it
    holds: argument parts with commas and a newline, ``- a``, ``not-a``,
    tabs, ``\\r\\n``, comments, blank lines, several statements on a line,
    statements without a '.', preferences before the rules they name, and
    reserved atoms when they are allowed."""
    allow_reserved = draw(st.booleans())
    atoms = _ATOMS + ["__r"] * allow_reserved
    gap = st.sampled_from(_GAPS)
    literal = st.builds(Literal, st.sampled_from(atoms), st.booleans())

    def text_of(lit):
        return lit.atom if lit.positive else "-" + draw(gap) + lit.atom

    labels = draw(st.permutations(_LABELS))[: draw(st.integers(min_value=1, max_value=6))]
    rules, statements, seen = [], [], set()
    for label in labels:
        head = draw(literal)
        pos = draw(st.lists(literal, max_size=2))
        neg = draw(st.lists(literal, max_size=2))
        key = (head, frozenset(pos), frozenset(neg))
        if key in seen:
            continue
        seen.add(key)
        rules.append(Rule(label, *key))
        # ':' followed at once by '-' would read as ':-'
        after_colon = draw(st.sampled_from(_SPACES if not head.positive else _GAPS))
        text = f"{label}{draw(gap)}:{after_colon}{text_of(head)}"
        items = [text_of(l) for l in pos]
        for l in neg:
            written = text_of(l)
            keyword_gap = st.sampled_from(_SPACES + [""] * written.startswith("-"))
            items.append("not" + draw(keyword_gap) + written)
        if items:
            items = draw(st.permutations(items))
            text += draw(gap) + ":-" + draw(gap) + (draw(gap) + "," + draw(gap)).join(items)
        statements.append(text)
    index = {r.label: i for i, r in enumerate(rules)}
    pairs = [
        (lo, hi)
        for lo in index
        for hi in index
        if index[lo] < index[hi] and draw(st.booleans())
    ]
    statements += [f"{lo}{draw(gap)}<{draw(gap)}{hi}" for lo, hi in pairs]
    order = draw(st.permutations(range(len(statements))))
    text = draw(st.sampled_from(["", "% header\n", "\n", " \t\n"]))
    for k, i in enumerate(order):
        text += draw(gap) + statements[i]
        if draw(st.booleans()):
            text += draw(gap) + "." + draw(st.sampled_from(_AFTER_DOT))
        elif k < len(order) - 1 or draw(st.booleans()):
            text += draw(gap) + draw(st.sampled_from(_LINE_ENDS))
    written_rules = tuple(rules[i] for i in order if i < len(rules))
    written_pairs = tuple(pairs[i - len(rules)] for i in order if i >= len(rules))
    return text, allow_reserved, written_rules, written_pairs


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_statement_pass_reads_what_the_token_parser_reads(layout):
    text, allow_reserved, rules, pairs = layout
    fast = syntax._parse_statements(text, allow_reserved)
    slow = tokens.parse_tokens(text, allow_reserved)
    assert fast.rules == slow.rules == rules
    assert fast.pairs == slow.pairs == pairs
    assert fast.prefs == slow.prefs == closure_by_composition(pairs)


def _outcome(parse, text):
    try:
        p = parse(text, False)
    except (ParseError, PreferenceCycleError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    return p.rules, p.pairs, p.prefs


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_statement_pass_fails_as_the_token_parser_does(seed, mutations):
    text = _mutated(format_program(random_lpp(GenParams(seed=seed, pref_density=0.5))), mutations)
    assert _outcome(parse_program, text) == _outcome(tokens.parse_tokens, text)


@pytest.mark.parametrize("text, message", ERROR_CASES)
def test_statement_pass_leaves_every_error_to_the_token_parser(text, message):
    with pytest.raises(syntax._NotAStatement):
        syntax._parse_statements(text, False)


# Random texts over the grammar's pieces: labels, atoms with and without an
# argument part, each punctuation mark, the keyword, comments, blanks and
# line ends.  Most are invalid.
_PIECES = ["r1", "r2", "a", "b", "p(a, b)", "__r", "-", "not", "not(a)", ":", ":-", ",", ".",
           "<", "% c", " ", "\t", "\r", "\n"]


def test_statement_pass_declines_only_what_the_token_parser_rejects():
    rng = random.Random(30)
    declined = 0
    for _ in range(20_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 16)))
        allow_reserved = rng.random() < 0.5
        try:
            syntax._parse_statements(text, allow_reserved)
        except syntax._NotAStatement:
            declined += 1
            with pytest.raises(ParseError):
                tokens.parse_tokens(text, allow_reserved)
        except PreferenceCycleError:
            pass
    assert 10_000 < declined < 20_000


def test_statement_pass_raises_the_cycle_error_itself():
    for text, lo, hi in CYCLE_MESSAGES:
        with pytest.raises(PreferenceCycleError, match=re.escape(cycle_message(lo, hi))):
            syntax._parse_statements(text, False)


def test_generated_texts_take_the_statement_pass(monkeypatch):
    monkeypatch.setattr(tokens, "parse_tokens", lambda text, allow_reserved: pytest.fail(text))
    programs = [
        random_lpp(GenParams(seed=seed, n_rules=n, n_atoms=n // 2 + 1, pref_density=density))
        for seed in range(20)
        for n in (1, 6, 14)
        for density in (0.0, 0.3, 0.9)
    ]
    programs += [even_loops(k, seed, chain=seed % 2 == 1) for k in (1, 3, 5) for seed in range(4)]
    for p in programs:
        again = parse_program(format_program(p))
        assert again == p and again.rules == p.rules
    # even loops as the g_even_loops benchmark writes them: labelled by
    # their heads, one preference per loop, no closure
    loops = ["p3: p3 :- not q7.", "q7: q7 :- not p3.", "s0: s0 :- not t1.", "t1: t1 :- not s0."]
    p = parse_program("\n".join(loops + ["q7 < p3.", "s0 < t1."]) + "\n")
    assert p.labels() == ("p3", "q7", "s0", "t1")
    assert p.pairs == (("q7", "p3"), ("s0", "t1"))


def test_parse_classical_negation_and_arguments():
    p = parse_program("u2: -rec(car_1) :- rec(car_2).")
    r = p.rule("u2")
    assert r.head == Literal("rec(car_1)", positive=False)
    assert r.pos_body == {Literal("rec(car_2)")}


def test_parse_statement_per_line_without_dot():
    p = parse_program("r1: a :- x\nr2: x :- not b")
    assert p.labels() == ("r1", "r2")


def test_parse_comments_and_blank_lines():
    p = parse_program("% header\nr1: a. % trailing\n\n% only comment\nr2: b :- not a.\n")
    assert p.labels() == ("r1", "r2")


def test_parse_not_is_a_keyword():
    with pytest.raises(ParseError, match="keyword"):
        parse_program("r1: not.")


class TestLiteral:
    """A literal is the named tuple (atom, positive)."""

    def test_fields_and_default(self):
        assert Literal._fields == ("atom", "positive")
        x = Literal("p(x)")
        assert (x.atom, x.positive) == ("p(x)", True)
        assert Literal("a", False).positive is False

    def test_str_and_repr(self):
        assert str(Literal("a")) == "a"
        assert str(Literal("p(x)", False)) == "-p(x)"
        assert repr(Literal("a", False)) == "Literal(atom='a', positive=False)"

    def test_sorted_by_atom_then_sign(self):
        found = sorted([Literal("b"), Literal("a"), Literal("b", False), Literal("a", False)])
        assert found == [Literal("a", False), Literal("a"), Literal("b", False), Literal("b")]

    def test_equal_to_the_plain_tuple(self):
        assert Literal("a") == ("a", True)
        assert hash(Literal("a", False)) == hash(("a", False))
        assert Literal("a") != Literal("a", False)

    def test_independently_built_literals_hash_and_compare_equal(self):
        first = parse_program("r1: -a :- b, not c.")
        second = parse_program("r9: c.\nr1: -a :- b, not c.")
        built = {Literal("a", False), Literal("b"), Literal("c")}
        r1, r2 = first.rule("r1"), second.rule("r1")
        assert r1 == r2 and hash(r1) == hash(r2)
        assert {r1.head, *r1.pos_body, *r1.neg_body} == built

    def test_keys_with_a_label(self):
        # transform keys its shadow atoms by (literal, rule label)
        p = fixtures.load("indirect_conflict")
        t = transform(p)
        again = parse_program(fixtures.INDIRECT_CONFLICT)
        for r in again.rules:
            for x in r.neg_body:
                assert (x, r.label) in t.shadow_atoms
        table = {(Literal("a"), "r1"): 1}
        assert table[(parse_program("r1: a.").rules[0].head, "r1")] == 1
        assert table.get((Literal("a", False), "r1")) is None


def closure(pairs, labels):
    """The closed relation of ``pairs`` on a program of one fact per label."""
    return PrefProgram(tuple(Rule(l, Literal(l)) for l in labels), tuple(pairs)).prefs


def test_prefs_closure_chain():
    closed = closure({("r3", "r2"), ("r2", "r1")}, {"r1", "r2", "r3"})
    assert closed == {("r3", "r2"), ("r2", "r1"), ("r3", "r1")}


def test_prefs_closure_empty():
    assert closure(set(), {"r1"}) == frozenset()


def test_prefs_closure_two_cycle():
    with pytest.raises(PreferenceCycleError):
        closure({("r1", "r2"), ("r2", "r1")}, {"r1", "r2"})


def test_prefs_closure_self_pair():
    with pytest.raises(PreferenceCycleError):
        closure({("r1", "r1")}, {"r1"})


def test_prefs_closure_long_cycle_in_program_text():
    with pytest.raises(PreferenceCycleError):
        parse_program("r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.\nr3 < r1.")


@pytest.mark.parametrize("text, lo, hi", CYCLE_MESSAGES, ids=CYCLE_IDS)
def test_cycle_error_names_the_first_label_on_a_cycle(text, lo, hi):
    with pytest.raises(PreferenceCycleError) as raised:
        parse_program(text)
    assert str(raised.value) == cycle_message(lo, hi)


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "any"])
def test_prefs_closure_matches_composition(acyclic):
    rng = random.Random(16)
    raised = closed = 0
    for _ in range(400):
        labels = [f"r{i}" for i in range(rng.randint(1, 8))]
        pairs = random_pairs(rng, labels, acyclic)
        expected = closure_by_composition(pairs)
        cyclic = [lo for lo, hi in pairs if (lo, lo) in expected]
        if not cyclic:
            assert closure(pairs, labels) == expected
            closed += 1
            continue
        with pytest.raises(PreferenceCycleError) as error:
            closure(pairs, labels)
        # the first label written as a lo that lies on a cycle, and its
        # first hi that leads back to it
        lo = cyclic[0]
        hi = next(h for l, h in pairs if l == lo and (h == lo or (h, lo) in expected))
        assert str(error.value) == cycle_message(lo, hi)
        raised += 1
    assert closed
    assert raised == 0 if acyclic else raised


def test_prefs_closure_names_the_first_unknown_label():
    with pytest.raises(KeyError, match="'x'"):
        closure([("r1", "r2"), ("r2", "x"), ("y", "r1")], ["r1", "r2"])


def test_prefs_closure_idempotent():
    closed = closure({("r3", "r2"), ("r2", "r1")}, {"r1", "r2", "r3"})
    assert closure(closed, {"r1", "r2", "r3"}) == closed


def test_format_round_trips_fixture():
    p = fixtures.load("indirect_conflict")
    assert parse_program(format_program(p)) == p


def test_format_empty_program():
    assert format_program(PrefProgram(())) == ""


def test_format_round_trips_car_recommender_with_closed_pairs():
    p = fixtures.load("car_recommender")
    assert len(p.prefs) == 16
    again = parse_program(format_program(p))
    assert again == p
    assert len(again.prefs) == 16


def test_program_equality_ignores_rule_order():
    a = parse_program("r1: a.\nr2: b.")
    b = parse_program("r2: b.\nr1: a.")
    assert a == b


names = st.sampled_from(["a", "b", "c", "d", "p(x)", "q_1"])
literals = st.builds(Literal, names, st.booleans())


@st.composite
def programs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rules = []
    seen = set()
    for i in range(n):
        head = draw(literals)
        pos = frozenset(draw(st.sets(literals, max_size=2)))
        neg = frozenset(draw(st.sets(literals, max_size=2)))
        if (head, pos, neg) in seen:
            continue
        seen.add((head, pos, neg))
        rules.append(Rule(f"r{i}", head, pos, neg))
    labels = [r.label for r in rules]
    pairs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return PrefProgram(tuple(rules), tuple(pairs))


@settings(max_examples=150, deadline=None)
@given(programs())
def test_parse_format_round_trip(p):
    assert parse_program(format_program(p)) == p


@settings(max_examples=150, deadline=None)
@given(programs())
def test_closed_prefs_are_asymmetric(p):
    for lo, hi in p.prefs:
        assert (hi, lo) not in p.prefs
        assert lo != hi
