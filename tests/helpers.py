"""Shared helpers for the test suite."""

import random

from hypothesis import strategies as st

from prefas.base import gl_is_answer_set, is_consistent, minpos
from prefas.gno import reduct_gno
from prefas.syntax import Literal, PrefProgram, Rule, parse_program
from prefas.verify import GenParams, random_lpp


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


def gno_fixpoint_subsets(p):
    """Every rule set R with minpos(reduct_gno(p, R)) == R, generating or
    not, in mask order: the fixpoints ``gno`` would find without its
    restriction to generating sets."""
    return [r for r in subsets_in_mask_order(p) if minpos(reduct_gno(p, r)) == r]


def transformed_answer_sets_by_literals(t):
    """Oracle for ``transform.transformed_answer_sets``: the same guesses
    over the name atoms, each closed under forms 1 and 3 over ``Literal``
    sets and kept when the classic reduct-and-least-model test accepts it,
    with no prefilter."""
    names = [t.name_literal(r.label) for r in t.source.rules]
    positive_forms = [r for r in t.program if t.forms[r.label] in (1, 3)]
    out = []
    for mask in range(1 << len(names)):
        model = {names[i] for i in range(len(names)) if mask >> i & 1}
        changed = True
        while changed:
            changed = False
            for r in positive_forms:
                if r.head not in model and r.pos_body <= model:
                    model.add(r.head)
                    changed = True
        cand = frozenset(model)
        if is_consistent(cand) and gl_is_answer_set(t.program, cand):
            out.append(cand)
    return out


def rewrite_by_forms(p):
    """Oracle for ``transform.transform``: the four forms of the
    ``transform`` module description, written out rule by rule.

    For each source rule r in order: form 1, form 2, one form-3 rule for
    each q with (q, r) not in ``p.prefs``, in source order, then one form-4
    rule per literal of body-(r) in sorted order.  Output rules are
    labelled t1, t2, ... in that order.  Bodies are visited in sorted
    literal order, and a shadow is named when a rule first uses it, a
    form-3 rule using the shadow of its head before those of its body; a
    name that an earlier shadow holds gets the first free suffix _1, _2, ...
    Returns (rules, forms, name_atoms, shadow_atoms) as a tuple and three
    dicts in insertion order.
    """
    inc = Literal("__inc")
    name_atoms = {r.label: "__n_" + r.label for r in p.rules}
    shadow_atoms = {}
    rules, forms = [], {}

    def shadow(x, r):
        if (x, r.label) not in shadow_atoms:
            sign = "" if x.positive else "neg_"
            name = plain = "__s_" + r.label + "_" + sign + x.atom
            k = 0
            while name in shadow_atoms.values():
                k += 1
                name = plain + "_" + str(k)
            shadow_atoms[(x, r.label)] = name
        return Literal(shadow_atoms[(x, r.label)])

    def add(form, head, pos, neg=()):
        label = "t" + str(len(rules) + 1)
        rules.append(Rule(label, head, frozenset(pos), frozenset(neg)))
        forms[label] = form

    for r in p.rules:
        name = Literal(name_atoms[r.label])
        add(1, r.head, [name])
        add(2, name, r.pos_body, [shadow(x, r) for x in sorted(r.neg_body)])
        for q in p.rules:
            if (q.label, r.label) not in p.prefs:
                head = shadow(q.head, r)
                body = [shadow(x, r) for x in sorted(q.pos_body)]
                add(3, head, body + [Literal(name_atoms[q.label])])
        for x in sorted(r.neg_body):
            add(4, inc, [name, x], [inc])
    return tuple(rules), forms, name_atoms, shadow_atoms


# Valid programs whose plain shadow names in ``transform`` meet: neg_a and
# -a at one rule, and _x at rule r and x at rule r_, which both read __s_r__x.
COLLIDING = {
    "one_rule": "r1: neg_a :- not b.\nr2: -a :- not b.\nr3: b :- not neg_a, not -a.\n",
    "two_rules": "r: _x :- not x.\nr_: x :- not _x.\n",
}


def closure_by_composition(pairs):
    """Oracle for ``PrefProgram.prefs``: compose the pairs with themselves
    until nothing new appears, cycles and all."""
    closed = set(pairs)
    while True:
        new = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not new:
            return frozenset(closed)
        closed |= new


def random_pairs(rng, labels, acyclic):
    """Random (lo, hi) pairs over ``labels``; with ``acyclic`` each pair
    rises in one shuffled order, so no cycle can form."""
    order = rng.sample(labels, len(labels))
    pairs = []
    for _ in range(rng.randint(0, 2 * len(labels))):
        lo, hi = rng.choice(labels), rng.choice(labels)
        if acyclic:
            if lo == hi:
                continue
            if order.index(lo) > order.index(hi):
                lo, hi = hi, lo
        pairs.append((lo, hi))
    return pairs


def defeater_masks_by_pairs(rules):
    """Oracle: defeater[i], the rules whose head is in rule i's negative
    body, found by testing every pair of rules."""
    return [
        sum(1 << j for j, other in enumerate(rules) if other.head in r.neg_body) for r in rules
    ]


def transpose(table, n):
    """Oracle: column j of an n-row bit table, the rows that hold bit j.
    Of ``defeater_masks_by_pairs`` it is the rules each rule defeats, and
    of a remover table the column table of the generating-set search."""
    return [sum(1 << i for i in range(n) if table[i] >> j & 1) for j in range(n)]


def less_masks_by_pairs(p):
    """Oracle: less[i], the rules that rule i is preferred over, found by
    looking every pair of labels up in ``p.prefs``."""
    return [
        sum(1 << j for j, other in enumerate(p.rules) if (other.label, r.label) in p.prefs)
        for r in p.rules
    ]


def d_remover_by_pairs(p):
    """Oracle: remover[i] of the ``d`` reduct, each defeater of rule i that
    rule i does not directly override (defeat back and be preferred over)."""
    n = len(p.rules)
    defeaters = defeater_masks_by_pairs(p.rules)
    defeated = transpose(defeaters, n)
    less = less_masks_by_pairs(p)
    return [defeaters[i] & ~(less[i] & defeated[i]) for i in range(n)]


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
    return PrefProgram(tuple(rules), tuple(pairs))


def even_loops(k: int, seed: int, chain: bool = False) -> PrefProgram:
    """``k`` even loops ``ai: ai :- not bi.  bi: bi :- not ai.`` with
    preferences drawn from a seeded total order on the rules: one inside
    most loops, in either direction, and up to three across loops.

    With ``chain`` the rule ``c: c :- a0, not b<k-1>.`` is added; its
    positive body makes some rule sets that contain it no fragment.
    """
    rng = random.Random(seed)
    rules = []
    for i in range(k):
        rules.append(Rule(f"a{i}", lit(f"a{i}"), frozenset(), lits(f"b{i}")))
        rules.append(Rule(f"b{i}", lit(f"b{i}"), frozenset(), lits(f"a{i}")))
    if chain:
        rules.append(Rule("c", lit("c"), lits("a0"), lits(f"b{k - 1}")))
    labels = [r.label for r in rules]
    rank = {label: i for i, label in enumerate(rng.sample(labels, len(labels)))}

    def ordered(x, y):
        return (x, y) if rank[x] < rank[y] else (y, x)

    pairs = [ordered(f"a{i}", f"b{i}") for i in range(k) if rng.random() < 0.75]
    # a<i> and b<i> share the loop index i; c is in no loop
    across = [
        (x, y) for x in labels for y in labels if x[1:] != y[1:] and rank[x] < rank[y]
    ]
    pairs += rng.sample(across, min(3, len(across)))
    return PrefProgram(tuple(rules), tuple(pairs))


def loops_with_tail(seed):
    """Three even loops, for many generating sets, plus rules that read the
    loop atoms through positive and negative bodies, all under a random
    preference order of density 0.5."""
    rng = random.Random(seed)
    loops = even_loops(3, seed)
    atoms = sorted(loops.atoms) + ["c", "d"]
    rules = list(loops.rules)
    seen = {(r.head, r.pos_body, r.neg_body) for r in rules}
    while len(rules) < 11:
        head = lit(rng.choice(atoms))
        pos = frozenset(map(lit, rng.sample(atoms, rng.randint(0, 2))))
        neg = frozenset(map(lit, rng.sample(atoms, rng.randint(0, 1))))
        if (head, pos, neg) not in seen:
            seen.add((head, pos, neg))
            rules.append(Rule(f"t{len(rules)}", head, pos, neg))
    labels = [r.label for r in rules]
    order = rng.sample(labels, len(labels))
    pairs = [(x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < 0.5]
    return PrefProgram(tuple(rules), tuple(pairs))


MUTUAL_DEFAULTS = parse_program("r1: a :- not b.\nr2: c :- d, not b.\nr3: b :- not a.")
FACT_CHAIN = parse_program("r1: a.\nr2: b :- a.\nr3: d :- c.")
DIRECT_PAIR = parse_program("r1: a :- not b.\nr2: b :- not a.\nr2 < r1.")

# Small programs for the bitmask kernels, each small enough to check on
# every rule subset: random draws with and without preferences, even loops
# (every rule free), loops with a tail, a program in which no rule is free
# and one whose positive bodies read literals that no rule derives.
NONE_FREE = parse_program(
    "r1: a :- b.\nr2: b :- a.\nr3: c :- a, not d.\nr4: d :- c, not c.\nr5: -a :- b, not a."
)
UNDERIVED = parse_program(
    "r1: a :- z.\nr2: b.\nr3: c :- b, not a.\nr4: d :- b, -z, not c.\nr5: a :- c.\nr6: e :- a, b."
)
KERNEL_PROGRAMS = [
    *(
        (f"random-{n}-{density}-{seed}", random_lpp(GenParams(
            seed=seed, n_rules=n, n_atoms=3 + seed % 4, pref_density=density
        )))
        for n in (5, 7, 9)
        for density in (0.0, 0.6)
        for seed in range(8)
    ),
    *((f"even-loops-{k}", even_loops(k, k)) for k in (1, 2, 4)),
    ("even-loops-chain", even_loops(3, 1, chain=True)),
    *((f"loops-with-tail-{seed}", loops_with_tail(seed)) for seed in range(3)),
    ("none-free", NONE_FREE),
    ("underived", UNDERIVED),
]


# Cyclic preference texts, each with the lo and hi its error names
CYCLE_MESSAGES = [
    ("r1: a.\nr1 < r1.", "r1", "r1"),
    ("r1: a.\nr2: b.\nr1 < r2.\nr2 < r1.", "r1", "r2"),
    # r1 reaches the cycle first, yet only r2 and r3 lie on it
    ("r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.\nr3 < r2.", "r2", "r3"),
    # r4 is closed first and reaches the cycle without lying on it
    ("r1: a.\nr2: b.\nr3: c.\nr4: d.\nr4 < r1.\nr1 < r2.\nr2 < r3.\nr3 < r1.", "r1", "r2"),
    # r1's first pair leads away from the cycle, so its second one is named
    ("r1: a.\nr2: b.\nr3: c.\nr4: d.\nr1 < r4.\nr1 < r2.\nr2 < r3.\nr3 < r1.", "r1", "r2"),
]
CYCLE_IDS = [
    "self-loop", "two-cycle", "behind-an-earlier-label", "after-an-earlier-label", "second-pair"
]


def cycle_message(lo, hi):
    return f"preferences are cyclic: {lo} and {hi} would each be preferred over the other"
