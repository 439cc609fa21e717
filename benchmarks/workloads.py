"""The three benchmark workloads: seeded inputs, the op each one times, and
the check of every op against the stored reference answers.

Inputs come from the reference store in ``reference/<workload>.json``,
built once by ``make_reference.py`` from the generators below and the
independent oracles in ``oracles.py``.  A run seed selects and orders inputs
from one pool of that store: seeds below ``HOLDOUT_FROM`` draw from the
``dev`` pool, larger seeds from the disjoint ``holdout`` pool.

The op code looks every library function up as a module attribute at call
time, so the wrappers the traced run installs see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from prefas import base, direct, fragments, gno, syntax, verify

HOLDOUT_FROM = 1000
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# solve_random: random_lpp programs of this size stay inside the default
# Bounds (14 rules is the fragment bound) and make one 2^14 scan cost
# about 0.1 s with the pure kernels.
SOLVE_PARAMS = verify.GenParams(n_rules=14, n_atoms=8)
SEMANTICS_CYCLE = ("as", "d", "gno", "g")

# g_even_loops: at 5 loops a g op takes about 0.5 s; at 6 it takes about
# 11 s, too few ops per run for a steady tail.
LOOPS = 5
_LOOP_ATOMS = [f"{c}{i}" for c in "pqrstuvwxyz" for i in range(10)]

# fuzz_all: the default generator knobs of ``prefas check --random``.
FUZZ_PARAMS = verify.GenParams()

# Distinct programs in one run's op cycle.  A run repeats its cycle until
# time is up, so every op is timed several times (about 4 to 7 in 40 s) and
# its fastest repetition filters out slow spells of a shared machine; the
# cycles are long enough that the program mix differs little between seeds.
PROGRAMS_PER_RUN = {"solve_random": 12, "g_even_loops": 12, "fuzz_all": 64}


def random_program_text(seed: int) -> str:
    """A ``solve_random`` input: one random_lpp program as .lpp text."""
    return syntax.format_program(verify.random_lpp(replace(SOLVE_PARAMS, seed=seed)))


def even_loops_text(seed: int) -> str:
    """A ``g_even_loops`` input: ``LOOPS`` independent even loops
    ``a: a :- not b.  b: b :- not a.`` with one preference each.

    The seed sets the atom names (each rule is labelled by its head), the
    rule order and the direction of each preference.
    """
    rng = random.Random(f"even_loops/{seed}")
    names = rng.sample(_LOOP_ATOMS, 2 * LOOPS)
    pairs = [(names[2 * i], names[2 * i + 1]) for i in range(LOOPS)]
    rules = [f"{a}: {a} :- not {b}." for a, b in pairs] + [
        f"{b}: {b} :- not {a}." for a, b in pairs
    ]
    rng.shuffle(rules)
    prefs = [f"{b} < {a}." if rng.random() < 0.5 else f"{a} < {b}." for a, b in pairs]
    return "\n".join(rules + prefs) + "\n"


def family(literal_sets) -> list[list[str]]:
    """Canonical JSON form of a family of literal sets."""
    return sorted(sorted(map(str, s)) for s in literal_sets)


def pool_name(seed: int) -> str:
    return "holdout" if seed >= HOLDOUT_FROM else "dev"


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class SolveOp:
    """``prefas solve --semantics <semantics>`` on one program text."""

    text: str
    semantics: str
    expected: dict  # semantics name -> canonical family

    def run(self, bounds: base.Bounds):
        p = syntax.parse_program(self.text, allow_reserved=True)
        asets = base.answer_sets(p, bounds)
        if self.semantics == "as":
            return asets, None
        if self.semantics == "d":
            return asets, direct.preferred_answer_sets_d(p, bounds)
        if self.semantics == "gno":
            return asets, gno.preferred_answer_sets_gno(p, bounds)
        return asets, [a for a, _ in fragments.preferred_answer_sets_g(p, bounds)]

    def check(self, result) -> str | None:
        asets, preferred = result
        if family(a.literals for a in asets) != self.expected["as"]:
            return "answer sets differ from the reference"
        if preferred is not None and (
            family(a.literals for a in preferred) != self.expected[self.semantics]
        ):
            return f"{self.semantics}-preferred answer sets differ from the reference"
        return None


@dataclass(frozen=True)
class FuzzOp:
    """Iteration ``seed - params.seed`` of ``prefas check --random``: all
    properties on the one program generated from ``seed``."""

    seed: int
    witnesses: int  # bit 0: gno strictly below g; bit 1: g strictly below d

    def run(self, bounds: base.Bounds):
        return verify.fuzz(replace(FUZZ_PARAMS, seed=self.seed), 1, verify.PROPERTIES, bounds)

    def check(self, report) -> str | None:
        if report.violations:
            return f"{len(report.violations)} violations, first: {report.violations[0].kind}"
        if report.checked != {name: 1 for name in verify.PROPERTIES}:
            return f"checked counts {report.checked} differ from the reference"
        got = report.strict_g_over_gno + 2 * report.strict_d_over_g
        if got != self.witnesses:
            return f"strictness witnesses {got} differ from the reference {self.witnesses}"
        return None


@dataclass(frozen=True)
class Plan:
    """The op cycle of one run: op i is ``ops[i % len(ops)]``."""

    ops: tuple
    inputs: dict  # what the seed selected, for the report's stamp

    def op(self, i: int):
        return self.ops[i % len(self.ops)]


def plan(workload: str, seed: int) -> Plan:
    """The seeded op cycle of ``workload`` over its stored inputs."""
    ref = load_reference(workload)
    pool = pool_name(seed)
    rng = random.Random(f"{workload}/{seed}")
    count = PROGRAMS_PER_RUN[workload]
    if workload == "fuzz_all":
        block = ref["pools"][pool]
        first, bits = block["first"], block["witnesses"]
        start = rng.randrange(len(bits))
        picked = [(start + i) % len(bits) for i in range(count)]
        ops = tuple(FuzzOp(first + j, int(bits[j])) for j in picked)
        return Plan(ops, {"pool": pool, "first_program_seed": first + start, "programs": count})
    entries = rng.sample(ref["pools"][pool], count)
    semantics = SEMANTICS_CYCLE if workload == "solve_random" else ("g",)
    ops = tuple(SolveOp(e["text"], sem, e["answers"]) for e in entries for sem in semantics)
    return Plan(ops, {"pool": pool, "program_seeds": [e["seed"] for e in entries]})
