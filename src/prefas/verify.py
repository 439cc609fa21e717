"""Executable property checks and the random-program fuzzer.

Every check returns a list of violation records, empty when the property
holds, instead of raising: a violation carries the program and a witness
payload from which the finding can be re-checked independently.  The
properties are one table, ``_CHECKS``, whose entries all take
``(program, bounds, draw, families)``; ``fuzz`` and ``check_program`` call
it directly.  ``fuzz`` drives the checks over a deterministic stream of
random programs (one derived seed per program) and also counts the
programs that witness the strict inclusions between the semantics.  The
checks on one program share one dict of the families that
``preferred_families`` solves, so each of those is solved once per program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .base import AnswerSet, Bounds, answer_sets, gr, is_stratified
from .direct import preferred_answer_sets_d
from .fragments import FragmentFamily, preferred_answer_sets_g
from .gno import preferred_answer_sets_gno
from .syntax import Literal, PrefProgram, Rule, format_program
from .transform import check_correspondence

SEMANTICS = ("d", "g", "gno")


Families = dict[tuple[PrefProgram, str], frozenset[frozenset[Literal]]]


def solve(
    p: PrefProgram, semantics: str, bounds: Bounds | None = None
) -> list[tuple[AnswerSet, FragmentFamily | None]]:
    """The answer sets of ``p`` under ``semantics`` (``"as"`` or one of
    ``SEMANTICS``), each paired with its fragment set under ``g``, else None.
    The CLI and the checks both dispatch on the semantics here."""
    if semantics == "as":
        found = answer_sets(p, bounds)
    elif semantics == "d":
        found = preferred_answer_sets_d(p, bounds)
    elif semantics == "g":
        return preferred_answer_sets_g(p, bounds)
    elif semantics == "gno":
        found = preferred_answer_sets_gno(p, bounds)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    return [(a, None) for a in found]


def preferred_families(
    p: PrefProgram,
    semantics: str,
    bounds: Bounds | None = None,
    families: Families | None = None,
) -> frozenset[frozenset[Literal]]:
    """The literal sets of ``p`` under ``semantics``: one of ``SEMANTICS``,
    or ``"as"`` for the plain answer sets.

    ``families`` is a dict that the checks on one program share, keyed by
    (program, semantics): a family found there is returned, and one that is
    computed is stored there.  ``fuzz`` makes a new dict for each program it
    draws and ``check_program`` one for each call, so each family is solved
    once per program and nothing is kept from one program to the next.
    """
    key = (p, semantics)
    if families is not None and key in families:
        return families[key]
    found = frozenset(a.literals for a, _ in solve(p, semantics, bounds))
    if families is not None:
        families[key] = found
    return found


@dataclass(frozen=True)
class Violation:
    kind: str  # one of PROPERTIES
    program: PrefProgram
    witness: dict
    seed: int | None = None

    def __str__(self) -> str:
        head = f"{self.kind} violated"
        if self.seed is not None:
            head += f" (seed {self.seed})"
        return head + f": {self.witness}\n{format_program(self.program)}"

    def to_dict(self) -> dict:
        """The JSON form; like ``__str__`` it names the seed only if there is one."""
        seed = {} if self.seed is None else {"seed": self.seed}
        program = format_program(self.program)
        return {"kind": self.kind, **seed, "witness": self.witness, "program": program}


def _sorted_literals(s: Iterable[Literal]) -> list[str]:
    return sorted(map(str, s))


def _sorted_family(family) -> list[list[str]]:
    return sorted(_sorted_literals(s) for s in family)


def check_principle_1(
    p: PrefProgram,
    semantics: str,
    bounds: Bounds | None = None,
    families: Families | None = None,
) -> list[Violation]:
    """If two answer sets' applicable rules differ by exactly one rule each
    and one of the two is preferred, the set built with the less preferred
    one must not be a preferred answer set."""
    preferred = preferred_families(p, semantics, bounds, families)
    asets = sorted(preferred_families(p, "as", bounds, families), key=_sorted_literals)
    applicable = [gr(s, p) for s in asets]
    out = []
    for s1, g1 in zip(asets, applicable):
        for s2, g2 in zip(asets, applicable):
            if s1 == s2:
                continue
            only1, only2 = g1 - g2, g2 - g1
            if len(only1) != 1 or len(only2) != 1:
                continue
            (r1,), (r2,) = only1, only2
            if p.preferred_over(r2, r1) and s2 in preferred:
                out.append(
                    Violation(
                        "principle1",
                        p,
                        {
                            "semantics": semantics,
                            "winner_rule": r1,
                            "loser_rule": r2,
                            "excluded_set": _sorted_literals(s2),
                        },
                    )
                )
    return out


def check_hierarchy(
    p: PrefProgram, bounds: Bounds | None = None, families: Families | None = None
) -> list[Violation]:
    """gno-preferred sets must be g-preferred, and g-preferred sets d-preferred."""
    fam = {s: preferred_families(p, s, bounds, families) for s in SEMANTICS}
    out = []
    for lower, upper in (("gno", "g"), ("g", "d")):
        if not fam[lower] <= fam[upper]:
            out.append(
                Violation(
                    "hierarchy",
                    p,
                    {
                        "lower": lower,
                        "upper": upper,
                        "not_included": _sorted_family(fam[lower] - fam[upper]),
                    },
                )
            )
    return out


def check_strat_equivalence(
    p: PrefProgram, bounds: Bounds | None = None, families: Families | None = None
) -> list[Violation]:
    """On stratified programs the g semantics must ignore all preferences."""
    if not is_stratified(p):
        return []
    expected = preferred_families(p, "as", bounds, families)
    got = preferred_families(p, "g", bounds, families)
    if got != expected:
        return [Violation(
            "strat_eq",
            p,
            {"answer_sets": _sorted_family(expected), "preferred_g": _sorted_family(got)},
        )]
    return []


def check_monotonicity(
    p: PrefProgram,
    weaker: Iterable[tuple[str, str]],
    bounds: Bounds | None = None,
    families: Families | None = None,
) -> list[Violation]:
    """Growing the preference relation may only shrink the preferred sets.

    ``p`` is checked against the program with the same rules and the
    ``weaker`` pairs, an acyclic pair set, written or closed, whose closure
    must be a subset of ``p.prefs``; a violation names that closure."""
    weak_program = PrefProgram(p.rules, tuple(weaker))
    if not weak_program.prefs <= p.prefs:
        raise ValueError("the closure of the weaker pairs must be a subset of the program's")
    for semantics in ("g", "gno"):
        strong = preferred_families(p, semantics, bounds, families)
        weak = preferred_families(weak_program, semantics, bounds, families)
        if not strong <= weak:
            return [Violation(
                "monotonicity",
                p,
                {
                    "semantics": semantics,
                    "weaker": sorted(weak_program.prefs),
                    "escaped": _sorted_family(strong - weak),
                },
            )]
    return []


def _check_empty_pref(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    plain = PrefProgram(p.rules)
    expected = preferred_families(plain, "as", bounds, families)
    for semantics in SEMANTICS:
        got = preferred_families(plain, semantics, bounds, families)
        if got != expected:
            return [Violation(
                "empty_pref",
                plain,
                {"semantics": semantics, "got": _sorted_family(got)},
            )]
    return []


def _check_pas_subset_as(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    expected = preferred_families(p, "as", bounds, families)
    for semantics in SEMANTICS:
        got = preferred_families(p, semantics, bounds, families)
        if not got <= expected:
            return [Violation(
                "pas_subset_as",
                p,
                {"semantics": semantics, "extra": _sorted_family(got - expected)},
            )]
    return []


def _check_transform_eq(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    report = check_correspondence(p, bounds, preferred_families(p, "gno", bounds, families))
    if report.ok:
        return []
    return [Violation(
        "transform_eq",
        p,
        {
            "missing": _sorted_family(report.missing),
            "extra": _sorted_family(report.extra),
            "embed_mismatches": len(report.embed_mismatches),
        },
    )]


# Each property runs as check(program, bounds, draw, families).  ``draw``
# holds the generator parameters when ``fuzz`` produced the program and is
# None for a given program; strat_eq and monotonicity derive their inputs
# from it.  ``families`` is the dict of ``preferred_families`` that all
# checks on the program share.  The adapters below look the public checks
# up as module globals at call time, so that a wrapper installed under a
# public name sees every call.


def _principle1(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    return [
        v for semantics in SEMANTICS for v in check_principle_1(p, semantics, bounds, families)
    ]


def _strat_eq(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    if draw is not None:
        p = random_lpp(replace(draw, stratified=True))
    return check_strat_equivalence(p, bounds, families)


def _monotonicity(
    p: PrefProgram, bounds: Bounds | None, draw: GenParams | None, families: Families
) -> list[Violation]:
    weaker: list[tuple[str, str]] = []
    if draw is not None:
        rng = random.Random(f"{draw.seed}/aux")
        weaker = [pair for pair in sorted(p.prefs) if rng.random() < 0.5]
    return check_monotonicity(p, weaker, bounds, families)


_CHECKS = {
    "principle1": _principle1,
    "hierarchy": lambda p, bounds, draw, families: check_hierarchy(p, bounds, families),
    "strat_eq": _strat_eq,
    "empty_pref": _check_empty_pref,
    "monotonicity": _monotonicity,
    "transform_eq": _check_transform_eq,
    "pas_subset_as": _check_pas_subset_as,
}

PROPERTIES = tuple(_CHECKS)


def _selected(properties: tuple[str, ...]) -> list[str]:
    """The named properties in table order; unknown names are an error."""
    unknown = set(properties) - set(_CHECKS)
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    return [name for name in _CHECKS if name in properties]


@dataclass(frozen=True)
class GenParams:
    """Knobs of the random program generator; a deterministic function of
    ``seed`` for fixed knobs."""

    n_atoms: int = 6
    n_rules: int = 8
    max_pos_body: int = 2
    max_neg_body: int = 2
    p_classical_neg: float = 0.2
    pref_density: float = 0.3
    seed: int = 0
    stratified: bool = False


def _atom_names(n: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(alphabet):
        return list(alphabet[:n])
    return [f"a{i}" for i in range(1, n + 1)]


def random_lpp(params: GenParams) -> PrefProgram:
    """A random program with preferences, deterministic in ``params.seed``.

    Preference pairs are sampled consistently with a random total order on
    the rules, so the written pairs are acyclic and closure keeps them
    asymmetric.  Stratified mode first draws a random rank of the atoms,
    then draws positive-body atoms at or below the head's rank and
    negative-body atoms strictly below it, so no dependency cycle passes
    through default negation.
    """
    rng = random.Random(params.seed)
    atoms = _atom_names(params.n_atoms)
    ranked = rng.sample(atoms, len(atoms)) if params.stratified else None

    def random_literal(pool: Sequence[str]) -> Literal:
        return Literal(rng.choice(pool), rng.random() >= params.p_classical_neg)

    def body(pool: Sequence[str], max_size: int) -> frozenset[Literal]:
        size = rng.randint(0, max_size) if pool else 0
        return frozenset(random_literal(pool) for _ in range(size))

    rules = []
    seen = set()
    for i in range(params.n_rules):
        for _ in range(100):
            head = random_literal(atoms)
            if ranked is None:
                at_or_below = below = atoms
            else:
                below = ranked[: ranked.index(head.atom)]
                at_or_below = below + [head.atom]
            pos = body(at_or_below, params.max_pos_body)
            neg = body(below, params.max_neg_body)
            if (head, pos, neg) not in seen:
                seen.add((head, pos, neg))
                rules.append(Rule(f"r{i + 1}", head, pos, neg))
                break
        else:
            raise RuntimeError("could not draw enough distinct rules")
    labels = [r.label for r in rules]
    order = rng.sample(labels, len(labels))
    pairs = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < params.pref_density
    ]
    return PrefProgram(tuple(rules), tuple(pairs))


def violation_lines(violations: Sequence[Violation]) -> list[str]:
    """The violations block that ends each text report of ``prefas check``."""
    if not violations:
        return ["  no violations"]
    return [f"  VIOLATIONS: {len(violations)}", *(f"    {v}" for v in violations)]


@dataclass
class FuzzReport:
    params: GenParams
    count: int
    properties: tuple[str, ...]
    violations: list[Violation] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=dict)
    strict_g_over_gno: int = 0  # programs where gno-preferred is strictly below g
    strict_d_over_g: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.params.seed,
            "properties": list(self.properties),
            "checked": dict(self.checked),
            "violations": [v.to_dict() for v in self.violations],
            "strictness_witnesses": {
                "g_over_gno": self.strict_g_over_gno,
                "d_over_g": self.strict_d_over_g,
            },
        }

    def __str__(self) -> str:
        lines = [
            f"fuzz: {self.count} programs from seed {self.params.seed}, "
            f"properties: {', '.join(self.properties)}"
        ]
        for name in self.properties:
            lines.append(f"  {name}: {self.checked.get(name, 0)} checks")
        lines.append(
            f"  strictness witnesses: g over gno {self.strict_g_over_gno}, "
            f"d over g {self.strict_d_over_g}"
        )
        return "\n".join(lines + violation_lines(self.violations))


def fuzz(
    params: GenParams,
    count: int,
    properties: Iterable[str] = PROPERTIES,
    bounds: Bounds | None = None,
) -> FuzzReport:
    """Run the selected checks over ``count`` generated programs.

    Violations are data, not exceptions; each carries the seed of the
    program that produced it, and re-running the narrow check on that
    program reproduces it.
    """
    properties = tuple(properties)
    selected = _selected(properties)
    report = FuzzReport(params=params, count=count, properties=properties)
    for i in range(count):
        seed = params.seed + i
        draw = replace(params, seed=seed)
        p = random_lpp(draw)
        families: Families = {}
        for name in selected:
            report.checked[name] = report.checked.get(name, 0) + 1
            found = _CHECKS[name](p, bounds, draw, families)
            report.violations.extend(replace(v, seed=seed) for v in found)
        if "hierarchy" in selected:
            fam = {s: preferred_families(p, s, bounds, families) for s in SEMANTICS}
            if fam["gno"] < fam["g"]:
                report.strict_g_over_gno += 1
            if fam["g"] < fam["d"]:
                report.strict_d_over_g += 1
    return report


def check_program(
    p: PrefProgram,
    properties: Iterable[str] = PROPERTIES,
    bounds: Bounds | None = None,
) -> list[Violation]:
    """Run the selected checks against one given program.

    Monotonicity is checked against the empty relation, and stratified
    equivalence is vacuous when the program is not stratified.
    """
    families: Families = {}
    return [
        v
        for name in _selected(tuple(properties))
        for v in _CHECKS[name](p, bounds, None, families)
    ]
