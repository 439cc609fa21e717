"""Shared helpers for the test suite."""

from hypothesis import strategies as st

from prefas.syntax import Literal, PrefProgram, Rule, close_preferences, parse_program


def lit(s: str) -> Literal:
    return Literal(s.lstrip("-"), positive=not s.startswith("-"))


def lits(*names: str) -> frozenset[Literal]:
    return frozenset(lit(n) for n in names)


def labelset(*labels: str) -> frozenset[str]:
    return frozenset(labels)


def subsets_in_mask_order(p):
    """Every label set of the program's rules, ascending by bitmask over
    rule order, as the enumerators return them."""
    labels = [r.label for r in p.rules]
    return [
        frozenset(l for i, l in enumerate(labels) if mask >> i & 1)
        for mask in range(1 << len(labels))
    ]


def literal_families(answers):
    """The family of literal sets of a list of AnswerSet results."""
    return {a.literals for a in answers}


def g_families(results):
    """Same for the (AnswerSet, FragmentSet) pairs of the g semantics."""
    return {a.literals for a, _ in results}


_names = st.sampled_from(["a", "b", "c", "d", "p(x)"])
_literals = st.builds(Literal, _names, st.booleans())


@st.composite
def small_programs(draw, max_rules=5, with_prefs=True):
    n = draw(st.integers(min_value=0, max_value=max_rules))
    rules = []
    seen = set()
    for i in range(n):
        head = draw(_literals)
        pos = frozenset(draw(st.sets(_literals, max_size=2)))
        neg = frozenset(draw(st.sets(_literals, max_size=2)))
        if (head, pos, neg) in seen:
            continue
        seen.add((head, pos, neg))
        rules.append(Rule(f"r{i}", head, pos, neg))
    labels = [r.label for r in rules]
    pairs = []
    if with_prefs:
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if draw(st.booleans()):
                    pairs.append((labels[i], labels[j]))
    return PrefProgram(tuple(rules), close_preferences(pairs, labels), tuple(pairs))


MUTUAL_DEFAULTS = parse_program("r1: a :- not b.\nr2: c :- d, not b.\nr3: b :- not a.")
FACT_CHAIN = parse_program("r1: a.\nr2: b :- a.\nr3: d :- c.")
DIRECT_PAIR = parse_program("r1: a :- not b.\nr2: b :- not a.\nr2 < r1.")
