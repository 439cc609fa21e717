"""The front ends reach the index and the fragment lattice only through
public names, so that ``base`` and ``fragments`` alone know how they are
stored."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prefas"
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
