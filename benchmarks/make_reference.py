"""Build the reference store ``reference/<workload>.json`` from the
generators in ``workloads.py`` and the oracles in ``oracles.py``.

Run from the repository root, once per workload:

    python3 benchmarks/make_reference.py --workload solve_random

The store is checked in; rebuild it only when a generator changes.  The
pools below are the input seeds each run seed can draw from (see
``workloads.HOLDOUT_FROM``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prefas.base import Bounds  # noqa: E402
from prefas.syntax import parse_program  # noqa: E402
from prefas.verify import random_lpp  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

POOLS = {
    "solve_random": {"dev": range(0, 32), "holdout": range(1000, 1024)},
    "g_even_loops": {"dev": range(0, 16), "holdout": range(1000, 1016)},
    "fuzz_all": {"dev": range(0, 2048), "holdout": range(1_000_000, 1_000_512)},
}


def _program_entries(seeds, make_text, semantics, bounds):
    out = []
    for seed in seeds:
        text = make_text(seed)
        fams = oracles.reference_families(parse_program(text, allow_reserved=True), semantics, bounds)
        out.append(
            {"seed": seed, "text": text, "answers": {k: workloads.family(v) for k, v in fams.items()}}
        )
        print(f"  seed {seed}: " + ", ".join(f"{k} {len(v)}" for k, v in fams.items()), file=sys.stderr)
    return out


def _fuzz_block(seeds, bounds):
    bits = []
    for seed in seeds:
        p = random_lpp(replace(workloads.FUZZ_PARAMS, seed=seed))
        fam = oracles.reference_families(p, ("d", "gno", "g"), bounds)
        bits.append(str(int(fam["gno"] < fam["g"]) + 2 * int(fam["g"] < fam["d"])))
    return {"first": seeds[0], "witnesses": "".join(bits)}


def build(workload: str) -> dict:
    bounds = Bounds()
    pools = POOLS[workload]
    if workload == "solve_random":
        made = {
            name: _program_entries(seeds, workloads.random_program_text, workloads.SEMANTICS_CYCLE, bounds)
            for name, seeds in pools.items()
        }
        generator = {"random_lpp": asdict(workloads.SOLVE_PARAMS)}
    elif workload == "g_even_loops":
        made = {
            name: _program_entries(seeds, workloads.even_loops_text, ("as", "g"), bounds)
            for name, seeds in pools.items()
        }
        generator = {"even_loops": workloads.LOOPS}
    else:
        made = {name: _fuzz_block(seeds, bounds) for name, seeds in pools.items()}
        generator = {"random_lpp": asdict(workloads.FUZZ_PARAMS)}
    return {"workload": workload, "generator": generator, "pools": made}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    args = parser.parse_args()
    store = build(args.workload)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(store, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
