"""The front ends reach the index and the fragment lattice only through
public names, so that ``base`` and ``fragments`` alone know how they are
stored; the rule-level definitions reach neither, nor does the fragment
lattice oracle of the tests; and every layer that the benchmark's traced
run wraps is a library function."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import prefas.kernels

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prefas"
TESTS = ROOT / "tests"
GUARDED = {"base", "fragments"}


def _target(node: ast.ImportFrom) -> str | None:
    """The ``prefas`` module that ``node`` imports from, by its short name:
    "" for the package itself, None for a module outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "prefas":
        return node.module.removeprefix("prefas").removeprefix(".")
    return None


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_reaches(source: str) -> list[str]:
    """Each ``_``-prefixed name that ``source`` imports from a guarded
    module, or reads as an attribute of one it imports whole."""
    tree = ast.parse(source)
    found = []
    modules = {f"prefas.{m}" for m in GUARDED}  # names bound to a guarded module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _target(node)
            for alias in node.names:
                if target in GUARDED and alias.name.startswith("_"):
                    found.append(f"{target}.{alias.name}")
                elif target == "" and alias.name in GUARDED:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and _dotted(node.value) in modules
        ):
            found.append(f"{_dotted(node.value)}.{node.attr}")
    return found


@pytest.mark.parametrize("name", ["verify.py", "cli.py"])
def test_front_end_uses_public_names_only(name):
    assert private_reaches((SRC / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .base import _index, answer_sets", ["base._index"]),
        ("from .fragments import _mask_overrides as m", ["fragments._mask_overrides"]),
        ("from prefas.fragments import _lattice_index", ["fragments._lattice_index"]),
        ("from . import fragments\nfragments._part_removed(1)", ["fragments._part_removed"]),
        ("from prefas import base as b\nb._less_masks(p)", ["b._less_masks"]),
        ("import prefas.base\nprefas.base._index.cache_clear()", ["prefas.base._index"]),
        ("import prefas.fragments as f\nf._witness", ["f._witness"]),
        ("from .gno import _preferred_masks", []),
        ("from .base import Bounds\nfrom . import verify\nverify._CHECKS", []),
    ],
)
def test_private_reaches_are_found(source, expected):
    assert private_reaches(source) == expected


# The rule-level definitions that the tests and the benchmark's reference
# builder use as oracles, by module.  They must not reach the enumeration
# kernels or the shared index, or a fault there would show on both sides of
# a differential test and cancel out.
RULE_LEVEL = {
    "base": [
        "minpos", "gl_least_model", "gl_is_answer_set", "gl_answer_sets", "gr", "reduct",
        "is_generating", "defeats",
    ],
    "direct": ["reduct_d"],
    "gno": ["trules", "reduct_gno"],
    "fragments": ["is_fragment", "conflicting", "overrides"],
}
FAST_PATH = {"kernels", "_index", "_Index", "_compiled"}

# The fragment lattice oracle of ``helpers`` and what it must not mention
# beyond ``FAST_PATH``: the lattice index and witness of ``g``, and the
# ``fragments`` module or an index's ``fragments`` lattice.
LATTICE_ORACLE = ["lattice_by_definition", "overrides_by_masks", "reduct_g_by_definition"]
LATTICE_FAST_PATH = FAST_PATH | {"_lattice_index", "_witness", "fragments"}


def fast_path_names(source: str, names: list[str], banned: set[str] = FAST_PATH) -> set[str]:
    """The names of ``banned`` that the functions ``names`` of ``source``
    mention, directly or through the module's own functions they call."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found: set[str] = set()
    seen: set[str] = set()
    todo = list(names)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            else:
                continue
            if ident in banned:
                found.add(ident)
            elif ident in functions:
                todo.append(ident)
    return found


@pytest.mark.parametrize("module", sorted(RULE_LEVEL))
def test_rule_level_definitions_stay_off_the_fast_path(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert fast_path_names(source, RULE_LEVEL[module]) == set()


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(p):\n    return kernels.minpos(p)", {"kernels"}),
        ("def f(p):\n    return g(p)\ndef g(p):\n    return _index(p.rules).n", {"_index"}),
        ("def f(p):\n    i: _Index = _compiled(p, None)", {"_Index", "_compiled"}),
        ("def f(p):\n    return p.rules\ndef g(p):\n    return kernels", set()),
    ],
)
def test_fast_path_names_are_found(source, expected):
    assert fast_path_names(source, ["f"]) == expected


def test_lattice_oracle_stays_off_the_fast_path():
    source = (TESTS / "helpers.py").read_text(encoding="utf-8")
    assert fast_path_names(source, LATTICE_ORACLE, LATTICE_FAST_PATH) == set()


def test_lattice_oracle_guard_finds_the_lattice_index():
    source = (
        "def oracle(p):\n    return lattice(p)\n"
        "def lattice(p):\n    return _lattice_index(p, None).n"
    )
    assert fast_path_names(source, ["oracle"], LATTICE_FAST_PATH) == {"_lattice_index"}


def _benchmark_spans() -> types.ModuleType:
    """``benchmarks/spans.py``, run from its text so that nothing is written
    beside it; its dataclasses look the module up while it runs."""
    path = ROOT / "benchmarks" / "spans.py"
    module = sys.modules["benchmark_spans"] = types.ModuleType("benchmark_spans")
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules["benchmark_spans"]
    return module


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in _benchmark_spans().LAYERS])
def test_every_traced_layer_is_a_library_function(module, name):
    # a traced run stops on a layer that the library lacks
    assert callable(getattr(importlib.import_module(f"prefas.{module}"), name, None))


def test_the_kernel_backend_is_named():
    # the benchmark records it with every run
    assert isinstance(prefas.kernels.BACKEND, str)
