"""Outside-in tracing: spans around the calls into each ``prefas`` module.

Only the traced run installs wrappers, and ``traced`` puts every original
back when it exits.  A layer is a public function of a module.  Its wrapper
is installed under the function's name in the defining module and in every
other ``prefas`` module that holds the same object under that name, which
is where callers look it up: ``base`` calls ``kernels.enum_fixpoints``
through the module attribute, while ``fragments``, ``verify`` and
``transform`` hold imported copies of ``generating_sets``, ``overrides``,
``check_correspondence`` and others.  The kernel backend modules
(``prefas.kernels.<backend>``) are never patched: the pure
``enum_fixpoints`` calls its own ``minpos`` per subset, and that scan work
is counted by ``kernels.enum_fixpoints.subsets`` instead.

Spans are kept in memory; ``layer_metrics`` reduces them after the run.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _found(args, result) -> dict:
    return {"found": len(result)}


def _scan(args, result) -> dict:
    return {"subsets": 1 << args[0], "found": len(result)}


def _output_rules(args, result) -> dict:
    return {"output_rules": len(result.program)}


def _candidates(args, result) -> dict:
    return {"candidates": 1 << len(args[0].source.rules)}


# (module, public function, counters taken from its arguments and result);
# every span also counts ``calls``.
LAYERS = (
    ("syntax", "parse_program", None),
    ("base", "answer_sets", _found),
    ("base", "generating_sets", _found),
    ("kernels", "enum_fixpoints", _scan),
    ("kernels", "enum_closed", _scan),
    ("kernels", "minpos", None),
    ("direct", "preferred_answer_sets_d", _found),
    ("gno", "preferred_answer_sets_gno", _found),
    ("fragments", "preferred_answer_sets_g", _found),
    ("fragments", "fragments", None),
    ("fragments", "overrides", None),
    ("transform", "transform", _output_rules),
    ("transform", "transformed_answer_sets", _candidates),
    ("transform", "check_correspondence", None),
    ("verify", "fuzz", None),
    ("verify", "random_lpp", None),
    ("verify", "check_principle_1", None),
    ("verify", "check_hierarchy", None),
    ("verify", "check_monotonicity", None),
    ("verify", "check_strat_equivalence", None),
)

OP = "op"  # root span the benchmark opens around each op


@dataclass
class Span:
    name: str
    start: float
    parent: int | None  # index of the enclosing span, None for a root
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call, nested by a call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter):
        def traced_call(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call


class MissingLayerError(LookupError):
    """A layer of ``LAYERS`` is not in the library; its metrics would read 0."""


def _patch_sites(module_name: str, attr: str) -> list[tuple[object, str]]:
    """Every (module, name) where callers find ``prefas.<module>.<attr>``."""
    original = getattr(sys.modules.get(f"prefas.{module_name}"), attr, None)
    if original is None:
        raise MissingLayerError(
            f"prefas.{module_name}.{attr} is gone; edit LAYERS and PER_LAYER in spans.py"
        )
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "prefas" or name.startswith("prefas.")):
            continue
        if name.startswith("prefas.kernels."):  # backend internals
            continue
        if getattr(module, attr, None) is original:
            sites.append((module, attr))
    return sites


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of every layer in ``LAYERS`` for the duration of
    the block and restore the originals afterwards, also on error.  Raises
    ``MissingLayerError`` when the library lacks a layer, so that a renamed
    or removed function is not silently reported as taking no time."""
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, counter in LAYERS:
            sites = _patch_sites(module_name, attr)
            original = getattr(sites[0][0], attr)
            wrapper = tracer.wrap(f"{module_name}.{attr}", original, counter)
            for module, name in sites:
                patched.append((module, name, original))
                setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans nest by one call stack, so children never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _under(spans: list[Span], i: int, ancestor: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# The per-layer metrics a traced run reports, besides trace.overhead_ratio.
PER_LAYER = (
    "syntax.parse_program.self_s",
    "syntax.parse_program.calls",
    "base.answer_sets.self_s",
    "base.answer_sets.found",
    "base.generating_sets.self_s",
    "base.generating_sets.found",
    "kernels.enum_fixpoints.self_s",
    "kernels.enum_fixpoints.calls",
    "kernels.enum_fixpoints.subsets",
    "kernels.enum_fixpoints.yield",
    "kernels.enum_closed.self_s",
    "kernels.enum_closed.subsets",
    "kernels.enum_closed.found",
    "kernels.minpos.calls",
    "direct.preferred_answer_sets_d.self_s",
    "direct.preferred_answer_sets_d.found",
    "gno.preferred_answer_sets_gno.self_s",
    "gno.preferred_yield",
    "fragments.preferred_answer_sets_g.self_s",
    "fragments.preferred_yield",
    "fragments.fragments.self_s",
    "fragments.overrides.calls",
    "transform.transform.self_s",
    "transform.transform.output_rules",
    "transform.transformed_answer_sets.self_s",
    "transform.transformed_answer_sets.candidates",
    "transform.check_correspondence.self_s",
    "verify.fuzz.self_s",
    "verify.random_lpp.self_s",
    "verify.check_principle_1.self_s",
    "verify.check_hierarchy.self_s",
    "verify.check_monotonicity.self_s",
    "verify.check_strat_equivalence.self_s",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The ``PER_LAYER`` metrics: per layer, summed self time, calls and
    the counters of ``LAYERS``, and the yields derived from them.

    ``gno.preferred_yield`` is preferred answer sets over the generating
    sets its scans found, ``fragments.preferred_yield`` the same for g over
    the generating sets it read; both are 0 when the layer did not run.
    """
    totals: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s.name == OP:
            continue
        totals[f"{s.name}.self_s"] = totals.get(f"{s.name}.self_s", 0.0) + self_s
        totals[f"{s.name}.calls"] = totals.get(f"{s.name}.calls", 0) + 1
        for key, value in s.counts.items():
            totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value

    def total(key: str) -> float:
        return totals.get(key, 0.0 if key.endswith("self_s") else 0)

    gno_generating = sum(
        s.counts["found"]
        for i, s in enumerate(spans)
        if s.name == "kernels.enum_fixpoints" and _under(spans, i, "gno.preferred_answer_sets_gno")
    )
    g_generating = sum(
        s.counts["found"]
        for i, s in enumerate(spans)
        if s.name == "base.generating_sets" and _under(spans, i, "fragments.preferred_answer_sets_g")
    )
    totals["kernels.enum_fixpoints.yield"] = _ratio(
        total("kernels.enum_fixpoints.found"), total("kernels.enum_fixpoints.subsets")
    )
    totals["gno.preferred_yield"] = _ratio(total("gno.preferred_answer_sets_gno.found"), gno_generating)
    totals["fragments.preferred_yield"] = _ratio(
        total("fragments.preferred_answer_sets_g.found"), g_generating
    )
    return {key: total(key) for key in PER_LAYER}
