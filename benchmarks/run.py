"""Benchmark of ``prefas``: three seeded workloads, end to end and by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload solve_random --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 0

With ``--trace 0`` a fresh worker process times the workload's op cycle,
repeated for ``--seconds`` seconds, and the report holds the end-to-end
metrics.  ``ops_per_s``, ``op_p50_ms`` and ``cpu_ms_per_op`` take each
distinct op at its fastest repetition, which filters out slow spells of a
shared machine.  ``op_tail_ms``, a percentile of every op timed, is
printed in the report but is not one of the result's metrics: its
run-to-run spread on a shared machine is as wide as the widest bound.
Setup time is the median over eleven fresh workers: five before the timed
one, the timed one, and five after it.  With
``--trace 1`` the workload's first ``traced_ops`` ops run once untraced
and once under the span wrappers, each in a fresh worker, and the report
holds the per-layer metrics.  Everything runs single-process and
single-threaded: this process only waits for one worker at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed (``correct`` says whether every op matched its
reference), and nonzero without a result when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# tail_pct: the highest percentile with at least ten ops beyond it in a
# 40 s run of this workload at the time the benchmark was defined; fixed so
# that runs of different speed report the same percentile.
# traced_ops: ops in a traced run, a fixed count so counters repeat exactly.
WORKLOADS = {
    "solve_random": {"tail_pct": 90, "traced_ops": 16},
    "g_even_loops": {"tail_pct": 75, "traced_ops": 6},
    "fuzz_all": {"tail_pct": 95, "traced_ops": 48},
}

# Set-up-only workers started before and again after the timed worker.
SETUP_PROBES = 5

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(workload: str, seed: int, src: Path, extra: list[str], timeout: float,
            env: dict | None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--src", str(src), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(extra)} exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _fastest_repetition(samples: list[float], cycle: int) -> list[float]:
    """Per distinct op of the cycle, its fastest repetition in the run."""
    best: dict[int, float] = {}
    for i, value in enumerate(samples):
        best[i % cycle] = min(best.get(i % cycle, value), value)
    return list(best.values())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            src: Path = ROOT / "src", env: dict | None = None) -> dict:
    """One benchmark run; returns the result object plus a ``detail`` key."""
    if not (src / "prefas" / "__init__.py").is_file():
        raise BenchError(f"no prefas package under {src}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    spec = WORKLOADS[workload]
    if trace:
        ops = ["--ops", str(spec["traced_ops"])]
        plain = _worker(workload, seed, src, ops, 80, env)
        traced = _worker(workload, seed, src, ops + ["--trace"], 80, env)
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        runs = (plain, traced)
        metrics = layers
        detail = {"stamp": traced["stamp"], "traced_op_s": sum(traced["op_s"])}
    else:
        probe = ["--setup-only"]
        setups = [_worker(workload, seed, src, probe, 60, env)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _worker(workload, seed, src, ["--seconds", str(seconds)], seconds + 90, env)
        setups += [run["setup_s"]]
        setups += [_worker(workload, seed, src, probe, 60, env)["setup_s"] for _ in range(SETUP_PROBES)]
        runs = (run,)
        best_s = _fastest_repetition(run["op_s"], run["cycle"])
        best_cpu_s = _fastest_repetition(run["op_cpu_s"], run["cycle"])
        tail, beyond = percentile(run["op_s"], spec["tail_pct"])
        metrics = {
            "ops_per_s": len(best_s) / sum(best_s),
            "op_p50_ms": statistics.median(best_s) * 1e3,
            "cpu_ms_per_op": statistics.mean(best_cpu_s) * 1e3,
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        detail = {
            "stamp": run["stamp"],
            "tail": f"{tail * 1e3:.6g} ms, p{spec['tail_pct']} of {run['attempted']} ops, "
                    f"{beyond} beyond it",
            "observed_ops_per_s": (run["attempted"] - run["failed"]) / run["wall_s"],
            "repetitions": run["attempted"] / run["cycle"],
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail["error_rate"] = failed / attempted if attempted else 1.0
    detail["failures"] = [f for r in runs for f in r["failures"]]
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("yield", "ratio")):
        return "ratio"
    return "count"


def _print_report(workload: str, result: dict) -> None:
    detail = result["detail"]
    print(f"== {workload}")
    print("stamp: " + json.dumps(detail["stamp"], sort_keys=True))
    if "tail" in detail:
        print(f"op_tail_ms (not gated): {detail['tail']}")
        print(f"each distinct op ran {detail['repetitions']:.1f} times on average; "
              f"ops completed per wall-clock second: {detail['observed_ops_per_s']:.4g}")
    for name, value in result["metrics"].items():
        share = ""
        if name.endswith("self_s"):
            share = f"  {value / detail['traced_op_s']:6.1%} of traced op time"
        print(f"  {name:<48} {value:>14.6g} {_unit(name)}{share}")
    print(f"  {'error_rate':<48} {detail['error_rate']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for failure in detail["failures"]:
        print(f"  failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="prefas benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    for name, result in results.items():
        _print_report(name, result)
    if args.workload != "all":
        (result,) = results.values()
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in result["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
