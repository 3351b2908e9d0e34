"""The module layering the engine keeps: fuzzy sets sit below everything
that evaluates them, so no import cycle can form through them."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import foodn
from foodn import evaluator

SRC = Path(__file__).resolve().parent.parent / "src" / "foodn"


def foodn_imports(path: Path) -> set[str]:
    """Every foodn module *path* imports, at any depth (inside functions too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: "from . import x" or "from .x import y"
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif node.module.split(".")[0] == "foodn":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "foodn"}
    return found


@pytest.mark.parametrize("module,allowed", [("fuzzy", {"errors"}), ("errors", set())])
def test_low_layers_import_nothing_above_them(module, allowed):
    assert foodn_imports(SRC / f"{module}.py") <= allowed


def test_extend_is_the_evaluators():
    assert foodn.extend is evaluator.extend
