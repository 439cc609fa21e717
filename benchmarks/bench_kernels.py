"""Compare the two kernel backends on the ``solve_random`` workload.

Informational, not gated.  Run from the root of a checkout:

    python3 benchmarks/bench_kernels.py --seed 1 --seconds 30

Copies ``src/prefas`` into a temporary directory under ``.bench_build/``,
compiles the checked-in ``kernels/_ckernels.c`` there with ``gcc`` (never
into ``src/``), runs ``solve_random`` once with ``PREFAS_PURE_KERNELS=1``
and once with the compiled backend, both from the copy, and prints the two
``ops_per_s`` side by side.  The copy is removed afterwards.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import run


def _compile(package: str) -> float:
    kernels = os.path.join(package, "kernels")
    target = os.path.join(kernels, "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ["gcc", "-shared", "-fPIC", "-O2", "-w", "-I", sysconfig.get_paths()["include"],
           os.path.join(kernels, "_ckernels.c"), "-o", target]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=300)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="kernels-", dir=build)
    try:
        package = os.path.join(tmp, "prefas")
        shutil.copytree(run.ROOT / "src" / "prefas", package,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        print(f"compiled _ckernels.c in {_compile(package):.1f} s")
        results = {}
        for backend in ("python", "c"):
            env = {k: v for k, v in os.environ.items() if k != "PREFAS_PURE_KERNELS"}
            if backend == "python":
                env["PREFAS_PURE_KERNELS"] = "1"
            result = run.measure("solve_random", args.seed, args.seconds, False,
                                 src=Path(tmp), env=env)
            used = result["detail"]["stamp"]["backend"]
            if used != backend:
                raise run.BenchError(f"asked for the {backend} backend, the worker used {used}")
            if not result["correct"]:
                raise run.BenchError(f"{backend} backend: {result['detail']['failures']}")
            results[backend] = result["metrics"]["ops_per_s"]
    except (run.BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"bench_kernels: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"solve_random seed {args.seed}, {args.seconds:g} s per backend")
    print(f"  {'backend':<8} {'ops_per_s':>10}")
    for backend, value in results.items():
        print(f"  {backend:<8} {value:>10.3f}")
    print(f"  c / python = {results['c'] / results['python']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
