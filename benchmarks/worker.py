"""One fresh benchmark worker process; ``run.py`` starts it.

The worker imports ``prefas`` from ``--src``, selects the kernel backend
(by importing ``prefas.kernels``), loads the workload's inputs and times
its ops serially in this one thread.  ``--seconds`` runs ops until that
much wall time has passed; ``--ops`` runs exactly that many.  With
``--trace`` the ops run under the span wrappers of ``spans.py``.
``--setup-only`` stops before the first op.  Every ``functools`` cache of
the library is cleared before each op, outside its timing, so an op costs
the same whether or not its program ran before, as with a fresh
``prefas`` process.  The last line of standard output is one JSON object
with the raw measurements.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="one benchmark worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory holding the prefas package")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = _parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import prefas.kernels

    if not Path(prefas.kernels.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported prefas from {prefas.kernels.__file__}, not from {src}")
    from prefas.base import Bounds

    import workloads

    bounds = Bounds.from_env()
    plan = workloads.plan(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0

    # Harness-only imports, outside the set-up time.
    import os
    import platform
    import resource
    from contextlib import nullcontext
    from dataclasses import asdict

    import spans

    out = {
        "setup_s": setup_s,
        "stamp": {
            "backend": prefas.kernels.BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "bounds": asdict(bounds),
            "workload_seed": args.seed,
            "inputs": plan.inputs,
        },
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    caches = [
        fn
        for name, module in list(sys.modules.items())
        if name == "prefas" or name.startswith("prefas.")
        for fn in vars(module).values()
        if callable(getattr(fn, "cache_clear", None))
    ]
    tracer = spans.Tracer()
    op_s: list[float] = []
    op_cpu_s: list[float] = []
    failures: list[str] = []
    i = 0
    with spans.traced(tracer) if args.trace else nullcontext():
        start = time.perf_counter()
        deadline = start + args.seconds if args.seconds is not None else None
        while (i < args.ops) if args.ops is not None else (time.perf_counter() < deadline):
            op = plan.op(i)
            for fn in caches:
                fn.cache_clear()
            c = time.process_time()
            t = time.perf_counter()
            try:
                with tracer.span(spans.OP) if args.trace else nullcontext():
                    result = op.run(bounds)
            except Exception as err:  # one failed op must not end the run
                result, problem = None, f"{type(err).__name__}: {err}"
            op_s.append(time.perf_counter() - t)
            op_cpu_s.append(time.process_time() - c)
            if result is not None:
                try:
                    problem = op.check(result)
                except Exception as err:  # an unexpected result shape is a failure too
                    problem = f"result not checkable: {type(err).__name__}: {err}"
            if problem is not None:
                failures.append(f"op {i}: {problem}")
            i += 1
        wall_s = time.perf_counter() - start
    out.update(
        {
            "attempted": i,
            "failed": len(failures),
            "failures": failures[:5],
            "cycle": len(plan.ops),
            "op_s": op_s,
            "op_cpu_s": op_cpu_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    if args.trace:
        out["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
