"""Source hygiene: every name a package or test module imports is used or exported."""

import ast
import pathlib

import pytest

import critshe

MODULES = sorted(pathlib.Path(critshe.__file__).parent.rglob("*.py")) + sorted(
    pathlib.Path(__file__).parent.glob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in ``tree`` and never read in it,
    except those listed in ``__all__`` and ``__future__`` features."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_flags_unused_and_spares_exports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    import json\n"
        "    return np.pi\n"
    )
    assert unused_imports(tree) == ["json", "os", "pi"]
