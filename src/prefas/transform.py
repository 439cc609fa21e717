"""Rewriting a program with preferences into a plain program whose answer
sets are exactly the gno-preferred answer sets of the original.

For each source rule r, with a fresh name atom n_r, fresh shadow atoms x^r
for the literals x that may reach r, and one fresh atom inc, the output
contains:

  form 1   head(r) :- n_r
  form 2   n_r :- body+(r), not shadows of body-(r)
  form 3   shadow of head(p) :- shadows of body+(p), n_p
           for every p not less preferred than r
  form 4   inc :- n_r, x, not inc          for every x in body-(r)

The n_r atoms encode the generating-set guess, the shadow atoms rebuild,
separately for each rule r, what the not-less-preferred part of the guess
derives (so only that part can block r through form 2), and the form-4
rules forbid a model containing both n_r and a literal of r's negative
body, which keeps the guess a generating set.

Fresh atoms use the parser-reserved "__" namespace:

  n_r for rule r        __n_<label>
  shadow of  a  at r    __s_<label>_<atom>
  shadow of -a  at r    __s_<label>_neg_<atom>
  inc                   __inc

Two shadows can get the same plain name: ``neg_a`` and ``-a`` at one rule,
or atom ``_x`` at rule ``r`` and atom ``x`` at rule ``r_``.  The later one
then gets the first suffix ``_1``, ``_2``, ... that makes its name free, so
every valid program has a rewriting.  The output prints in the ordinary
grammar and re-parses with ``allow_reserved=True``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Collection, Iterable

from .base import Bounds, _check_rule_bound, gl_is_answer_set, gr
from .gno import preferred_answer_sets_gno, trules
from .syntax import RESERVED_PREFIX, Literal, PrefProgram, PrefasError, Rule, format_program


@dataclass(frozen=True)
class TransformedProgram:
    """The rewritten plain program plus the naming maps into it."""

    source: PrefProgram
    program: tuple[Rule, ...]
    name_atoms: dict[str, str]  # source rule label -> n_r atom
    shadow_atoms: dict[tuple[Literal, str], str]  # (literal, rule label) -> x^r atom
    inc_atom: str
    forms: dict[str, int]  # output rule label -> 1..4

    def name_literal(self, label: str) -> Literal:
        return Literal(self.name_atoms[label])

    def shadow_literal(self, x: Literal, label: str) -> Literal:
        return Literal(self.shadow_atoms[(x, label)])


def transform(p: PrefProgram) -> TransformedProgram:
    """Rewrite ``p`` into a plain program per the module description.

    The output always has 2|P| + sum over r of |{p : p not < r}| + sum over
    r of |body-(r)| rules, which is quadratic in the input.  The sorted
    bodies and name literal of each source rule are built once, q not < r
    is one bit of ``p.less``, and each shadow at r is named once, in order
    of first use; ``tuple.__new__`` builds every ``Rule`` and ``Literal``.
    """
    for atom in p.atoms:
        if atom.startswith(RESERVED_PREFIX):
            raise PrefasError(f"source atom {atom!r} uses the reserved {RESERVED_PREFIX!r} prefix")

    new, n = tuple.__new__, len(p.rules)
    name_atoms = {r.label: f"{RESERVED_PREFIX}n_{r.label}" for r in p.rules}
    names = [new(Literal, (name_atoms[r.label], True)) for r in p.rules]
    inc_atom = f"{RESERVED_PREFIX}inc"
    inc = new(Literal, (inc_atom, True))
    empty, not_inc = frozenset(), frozenset((inc,))
    alone = [frozenset((n_q,)) for n_q in names]  # form 1, and form 3 of a fact
    negs = [sorted(r.neg_body) for r in p.rules]
    poss = [sorted(r.pos_body) for r in p.rules]
    uses = [(r.head, *pos) for r, pos in zip(p.rules, poss)]  # form 3's shadows, in order
    suffix = {x: x.atom if x.positive else "neg_" + x.atom for xs in chain(uses, negs) for x in xs}
    shadow_atoms: dict[tuple[Literal, str], str] = {}
    taken: set[str] = set()  # shadow names; n_r and inc have prefixes of their own
    heads, bodies, negatives, form_of = [], [], [], []  # the output rules' columns
    for r, n_r, neg, row, body in zip(p.rules, names, negs, p.less, alone):
        kept = [j for j in range(n) if not row >> j & 1] if row else range(n)  # q not < r
        prefix = f"{RESERVED_PREFIX}s_{r.label}_"
        atoms = {}
        for x in dict.fromkeys(chain(neg, *[uses[j] for j in kept])):
            atom = prefix + suffix[x]
            if atom in taken:
                atom = next(f"{atom}_{k}" for k in count(1) if f"{atom}_{k}" not in taken)
            taken.add(atom)
            atoms[x] = atom
        shadow_atoms.update(zip(zip(atoms, repeat(r.label)), atoms.values()))
        shadow = {x: new(Literal, (a, True)) for x, a in atoms.items()}
        get = shadow.__getitem__
        heads += (r.head, n_r, *[shadow[uses[j][0]] for j in kept], *repeat(inc, len(neg)))
        bodies += (body, r.pos_body)
        bodies += [frozenset((*map(get, poss[j]), names[j])) if poss[j] else alone[j] for j in kept]
        bodies += [frozenset((n_r, x)) for x in neg]
        negatives += (empty, frozenset(map(get, neg)), *repeat(empty, len(kept)))
        negatives += repeat(not_inc, len(neg))
        form_of += (1, 2, *repeat(3, len(kept)), *repeat(4, len(neg)))

    labels = [f"t{k}" for k in range(1, len(heads) + 1)]
    return TransformedProgram(
        source=p,
        program=tuple(map(new, repeat(Rule), zip(labels, heads, bodies, negatives))),
        name_atoms=name_atoms,
        shadow_atoms=shadow_atoms,
        inc_atom=inc_atom,
        forms=dict(zip(labels, form_of)),
    )


def project(a: Iterable[Literal], t: TransformedProgram) -> frozenset[Literal]:
    """Restrict a literal set of the transformed program to source literals."""
    return frozenset(l for l in a if l.atom in t.source.atoms)


def embed(
    s: Iterable[Literal], p: PrefProgram, t: TransformedProgram, bounds: Bounds | None = None
) -> frozenset[Literal]:
    """The answer set of the transformed program that projects to ``s``.

    ``s`` must be a gno-preferred answer set of ``p``; anything else is
    refused, since the construction is only defined there.
    """
    s = frozenset(s)
    preferred = {a.literals for a in preferred_answer_sets_gno(p, bounds)}
    if s not in preferred:
        raise ValueError(f"{sorted(map(str, s))} is not a gno-preferred answer set")
    return _embed(s, p, t)


def _embed(s: frozenset[Literal], p: PrefProgram, t: TransformedProgram) -> frozenset[Literal]:
    """``embed`` for an ``s`` the caller already knows to be gno-preferred."""
    r = gr(s, p)
    out = set(s)
    out.update(t.name_literal(label) for label in r)
    for rule in p.rules:
        for member in trules(p, rule.label, r):
            out.add(t.shadow_literal(p.rule(member).head, rule.label))
    return frozenset(out)


def transformed_answer_sets(
    t: TransformedProgram, bounds: Bounds | None = None
) -> list[frozenset[Literal]]:
    """Answer sets of the transformed program, ordered by their n_r part read
    as a bitmask over source rule order.

    Source literals and shadows only appear as heads of rules whose bodies
    are driven by the n_r atoms, and inc can never be in an answer set, so
    every answer set is determined by its n_r part G: it is close(G), the
    closure of G under forms 1 and 3.  Form 2 is the only rule with head
    n_r, so close(G) can be an answer set only when G is exactly the set of
    n_r whose form-2 body holds in close(G), and when close(G) is
    consistent.  One pass over the emitted rules compiles them into
    bitmasks, each literal getting its bit when first seen, and a negative
    literal clashes with the twin of its atom; the closures run on those
    masks, and a candidate is read off its set bits.

    A search finds every such G without trying all 2^n of them.  It keeps
    the name atoms decided in (H) and decided out (N); the rest are
    undecided.  Forms 1 and 3 are positive, so close is monotone and every
    completion G of the partial decision has

        close(H)  ⊆  close(G)  ⊆  close(all ∖ N).

    Against these bounds a rule r is forced in when its form-2 body holds
    under both (its positive body is inside close(H) and its shadows miss
    close(all ∖ N)), and forced out when the body fails in every completion
    (a positive-body literal lies outside close(all ∖ N), or a shadow is
    already in close(H)).  A branch is dropped when a forced rule
    contradicts H or N, or when close(H) holds a complementary pair; forced
    rules join H or N and the bounds are recomputed until nothing more
    follows, and only then does the search branch on the lowest undecided
    name atom.  Each stack entry carries close(H) and close(all ∖ N), so a
    branch recomputes only the closure whose decision grew.  With nothing
    undecided the bounds meet, and every rule is forced the way it was
    decided, so close(H) is a candidate.  The two branches split the
    guesses, so nothing is found twice, and no step drops a G that passes
    both tests.  The classic reduct-and-least-model test stays the final
    word on every candidate.

    The search propagates the way ``kernels.enum_fixpoints`` does, but it
    shares no code with it.  The route calls no enumeration kernel, no
    shared index and no preference semantics, and it does not restrict the
    guesses to known generating sets, because it is the independent side
    of ``check_correspondence``: a fault in shared code would show on both
    sides of that check and cancel out.
    """
    n = len(t.source.rules)
    _check_rule_bound(n, bounds)
    # a literal gets its bit when first seen; the name atoms come first, at
    # bits 0..n-1 in source rule order, so a decision over them is its own
    # literal mask
    bit: dict[Literal, int] = defaultdict(map((1).__lshift__, count()).__next__)
    get = bit.__getitem__
    for r in t.source.rules:
        bit[t.name_literal(r.label)]
    # every form-1 and form-3 body holds exactly one name atom; grouped by
    # it, a closure visits only the rules its names can fire
    facts = [0] * n  # heads of the rules whose body is n_r alone
    needs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (head, rest of body)
    blocking = [(0, 0)] * n  # body+ and body- of the form-2 rule of each n_r
    everything = (1 << n) - 1
    for r in t.program:
        form, body = t.forms[r.label], sum(map(get, r.pos_body))
        if form == 2:
            blocking[get(r.head).bit_length() - 1] = (body, sum(map(get, r.neg_body)))
        elif form != 4:  # forms 1 and 3
            i = (body & everything).bit_length() - 1
            body ^= 1 << i
            if body:
                needs[i].append((get(r.head), body))
            else:
                facts[i] |= get(r.head)
    blocking = list(enumerate(blocking))
    literal_at = list(bit)
    # a literal clashes with its negative twin, found by atom
    clashes = [b | bit[(atom, True)] for (atom, positive), b in bit.items()
               if not positive and (atom, True) in bit]

    def close(names: int) -> int:
        model = names
        pending: list[tuple[int, int]] = []
        for i in range(n):
            if names >> i & 1:
                model |= facts[i]
                pending += needs[i]
        while pending:
            waiting = []
            for head, body in pending:
                if body & ~model:
                    waiting.append((head, body))
                else:
                    model |= head
            if len(waiting) == len(pending):
                break
            pending = waiting
        return model

    found = []
    # (names decided in, names decided out, and the closures of the two
    # bounds, -1 while stale)
    stack = [(0, 0, -1, -1)]
    while stack:
        hit, missed, low, high = stack.pop()
        if low < 0:
            low = close(hit)
        if high < 0:
            high = close(everything & ~missed)
        while not any(low & c == c for c in clashes):
            forced_in = forced_out = 0
            for i, (pos, neg) in blocking:
                if not pos & ~low and not neg & high:
                    forced_in |= 1 << i
                elif pos & ~high or neg & low:
                    forced_out |= 1 << i
            if forced_in & missed or forced_out & hit:
                break
            grown_hit, grown_missed = hit | forced_in, missed | forced_out
            if grown_hit == hit and grown_missed == missed:
                undecided = everything & ~hit & ~missed
                if not undecided:
                    found.append((hit, low))
                else:
                    g = undecided & -undecided
                    stack.append((hit, missed | g, low, -1))
                    stack.append((hit | g, missed, -1, high))
                break
            if grown_hit != hit:
                hit, low = grown_hit, close(grown_hit)
            if grown_missed != missed:
                missed, high = grown_missed, close(everything & ~grown_missed)
    out = []
    for _, model in sorted(found):
        members = []
        while model:
            low = model & -model
            members.append(literal_at[low.bit_length() - 1])
            model ^= low
        cand = frozenset(members)
        if gl_is_answer_set(t.program, cand):
            out.append(cand)
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of comparing the two solving routes for one program."""

    ok: bool
    transformed: tuple[frozenset[Literal], ...]
    projected: tuple[frozenset[Literal], ...]
    preferred: tuple[frozenset[Literal], ...]
    missing: tuple[frozenset[Literal], ...]  # gno-preferred but not projected
    extra: tuple[frozenset[Literal], ...]  # projected but not gno-preferred
    embed_mismatches: tuple[tuple[frozenset[Literal], frozenset[Literal]], ...]


def check_correspondence(
    p: PrefProgram,
    bounds: Bounds | None = None,
    preferred: Collection[frozenset[Literal]] | None = None,
) -> CorrespondenceReport:
    """Solve ``p`` through the gno semantics and through the transformation
    and compare: projections must match the preferred answer sets as
    families, and every answer set of the transformed program must equal
    the embedding of its projection.

    ``preferred`` is the gno-preferred family of ``p`` when the caller has
    already solved it; without it the gno semantics is solved here.
    """
    t = transform(p)
    transformed = transformed_answer_sets(t, bounds)
    projected = [project(a, t) for a in transformed]
    if preferred is None:
        preferred = [a.literals for a in preferred_answer_sets_gno(p, bounds)]
    missing = tuple(s for s in preferred if s not in projected)
    extra = tuple(s for s in projected if s not in preferred)
    mismatches = []
    for a, s in zip(transformed, projected):
        if s in preferred and _embed(s, p, t) != a:
            mismatches.append((s, a))
    return CorrespondenceReport(
        ok=not missing and not extra and not mismatches,
        transformed=tuple(transformed),
        projected=tuple(projected),
        preferred=tuple(preferred),
        missing=missing,
        extra=extra,
        embed_mismatches=tuple(mismatches),
    )


def format_transformed(t: TransformedProgram) -> str:
    """Render the transformed program in the ordinary grammar."""
    return format_program(PrefProgram(t.program))
