"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import pytest  # noqa: E402

import prefas.kernels  # noqa: E402
from prefas import base, fixtures, fragments, transform, verify  # noqa: E402
from prefas.syntax import parse_program  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BOUNDS = base.Bounds()


@pytest.mark.parametrize("make_text", [workloads.random_program_text, workloads.even_loops_text])
def test_generators_are_deterministic_in_the_seed(make_text):
    for seed in (0, 7, 1003):
        assert make_text(seed).encode() == make_text(seed).encode()
    assert make_text(1) != make_text(2)


@pytest.mark.parametrize(
    "workload, make_text",
    [("solve_random", workloads.random_program_text), ("g_even_loops", workloads.even_loops_text)],
)
def test_stored_inputs_are_the_generator_output(workload, make_text):
    ref = workloads.load_reference(workload)
    for pool in ref["pools"].values():
        for entry in pool:
            assert make_text(entry["seed"]) == entry["text"]


def test_pools_are_disjoint_and_selected_by_seed():
    assert workloads.plan("solve_random", 3).inputs["pool"] == "dev"
    assert workloads.plan("solve_random", workloads.HOLDOUT_FROM).inputs["pool"] == "holdout"
    for name in run.WORKLOADS:
        pools = workloads.load_reference(name)["pools"]
        if name == "fuzz_all":
            dev, held = pools["dev"], pools["holdout"]
            assert dev["first"] + len(dev["witnesses"]) <= held["first"]
        else:
            assert not {e["seed"] for e in pools["dev"]} & {e["seed"] for e in pools["holdout"]}
    first, second = workloads.plan("fuzz_all", 5), workloads.plan("fuzz_all", 5)
    assert first.ops[:20] == second.ops[:20]


def _patched_names():
    return [
        (prefas.kernels, "enum_fixpoints", prefas.kernels._active.enum_fixpoints),
        (prefas.kernels, "enum_closed", prefas.kernels._active.enum_closed),
        (prefas.kernels, "minpos", prefas.kernels._active.minpos),
        (verify, "answer_sets", base.answer_sets),
        (fragments, "generating_sets", base.generating_sets),
        (verify, "overrides", fragments.overrides),
        (verify, "check_correspondence", transform.check_correspondence),
    ]


def test_traced_run_restores_every_original():
    plan = workloads.plan("fuzz_all", 11)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert prefas.kernels.enum_fixpoints is not prefas.kernels._active.enum_fixpoints
        assert verify.overrides.__wrapped__ is fragments.overrides.__wrapped__
        assert not hasattr(prefas.kernels._active.minpos, "__wrapped__")  # backend untouched
        plan.op(0).run(BOUNDS)
    assert tracer.spans
    for module, name, original in _patched_names():
        assert getattr(module, name) is original

    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.Tracer()):
            1 / 0
    for module, name, original in _patched_names():
        assert getattr(module, name) is original


def test_self_time_subtracts_the_direct_children():
    S = spans.Span
    tree = [
        S("op", 0.0, None, end=10.0),
        S("base.answer_sets", 1.0, 0, end=4.0),
        S("kernels.enum_fixpoints", 2.0, 1, end=3.0, counts={"subsets": 8, "found": 2}),
        S("base.generating_sets", 4.5, 0, end=8.0),
        S("kernels.enum_fixpoints", 5.0, 3, end=7.0, counts={"subsets": 8, "found": 1}),
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.0, 1.0, 1.5, 2.0])
    got = spans.layer_metrics(tree)
    assert got["base.answer_sets.self_s"] == pytest.approx(2.0)
    assert got["kernels.enum_fixpoints.self_s"] == pytest.approx(3.0)
    assert got["kernels.enum_fixpoints.calls"] == 2
    assert got["kernels.enum_fixpoints.subsets"] == 16
    assert got["kernels.enum_fixpoints.yield"] == pytest.approx(3 / 16)
    assert got["transform.transform.self_s"] == 0.0
    assert set(got) == set(spans.PER_LAYER)


def test_a_layer_missing_from_the_library_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (("base", "no_such_layer", None),))
    with pytest.raises(spans.MissingLayerError):
        with spans.traced(spans.Tracer()):
            pass
    for module, name, original in _patched_names():
        assert getattr(module, name) is original


def _traced_counts(workload, seed, ops):
    plan = workloads.plan(workload, seed)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for i in range(ops):
            with tracer.span(spans.OP):
                result = plan.op(i).run(BOUNDS)
            assert plan.op(i).check(result) is None
    metrics = spans.layer_metrics(tracer.spans)
    return {k: v for k, v in metrics.items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly_and_reach_imported_copies():
    first = _traced_counts("fuzz_all", 4, 3)
    assert first == _traced_counts("fuzz_all", 4, 3)
    assert first["fragments.overrides.calls"] > 0  # verify's copy
    assert first["transform.transformed_answer_sets.candidates"] == 3 * 2**8
    assert first["base.generating_sets.found"] > 0  # fragments' copy


def test_fixture_programs_match_the_oracles():
    for name, text in fixtures.SOURCES.items():
        p = parse_program(text)
        expected = {
            k: workloads.family(v)
            for k, v in oracles.reference_families(p, workloads.SEMANTICS_CYCLE, BOUNDS).items()
        }
        for semantics in workloads.SEMANTICS_CYCLE:
            op = workloads.SolveOp(text, semantics, expected)
            assert op.check(op.run(BOUNDS)) is None, (name, semantics)


def test_a_wrong_answer_counts_as_a_failure():
    text = fixtures.SOURCES["brewka_eiter"]
    op = workloads.SolveOp(text, "d", {"as": [["b"]], "d": [["a"]]})
    assert op.check(op.run(BOUNDS)) is not None


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_on_a_held_out_seed(workload):
    result = run.measure(workload, workloads.HOLDOUT_FROM + 3, 1.0, trace=False)
    assert result["correct"], result["detail"]["failures"]
    assert result["detail"]["error_rate"] == 0
    assert result["detail"]["stamp"]["inputs"]["pool"] == "holdout"
    assert set(result["metrics"]) == set(run.UNITS)
    assert all(v > 0 for v in result["metrics"].values())
