"""Source hygiene: every name a package or test module imports is used or
exported, every package name the benchmark wraps or calls exists, and the
package's cold start leaves scipy.stats and scipy.interpolate unloaded."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import critshe

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = sorted(pathlib.Path(critshe.__file__).parent.rglob("*.py"))
MODULES = PACKAGE + sorted(pathlib.Path(__file__).parent.glob("*.py"))
SLOW_IMPORTS = ("scipy.stats", "scipy.interpolate")  # about 0.55 s of every CLI start


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


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps package functions and thread pools by
    # (module, attribute); a rename or deletion would break the traced run.
    # The file is executed from its source, so no bytecode lands beside it.
    path = BENCHMARK / "tracing.py"
    tracing: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    names = [(mod, attr) for mod, attr, *_ in tracing["_TARGETS"]]
    names += [(mod, "ThreadPoolExecutor") for mod, _ in tracing["_POOLS"]]
    names.append(("critshe.momentengine", "integrate"))
    missing = [(mod, attr) for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def package_names(tree: ast.Module) -> list[str]:
    """Dotted ``critshe`` names that ``tree`` imports, or reads as attributes
    of a name bound by such an import (``gc.apply_med`` after
    ``from critshe import gausscalc as gc``)."""
    bound = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "critshe":
                    # ``import critshe.cli`` binds critshe, ``... as c`` binds c
                    bound[a.asname or "critshe"] = a.name if a.asname else "critshe"
                    names.add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "critshe":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                names.add(f"{node.module}.{a.name}")

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    names.update(filter(None, (dotted(node) for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute))))
    return sorted(names)


def resolves(name: str) -> bool:
    """True when ``name`` is a module, or attributes below the longest
    importable module prefix of it."""
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_package_scan_follows_aliases():
    tree = ast.parse(
        "import critshe.cli\n"
        "from critshe import gausscalc as gc, shesim\n"
        "from critshe._quad import gauss_legendre_01\n"
        "def f(params):\n"
        "    critshe.cli.build_parser()\n"
        "    gc.apply_med(params.state)\n"
        "    return shesim.FieldParams(1).spacing\n"
    )
    assert package_names(tree) == [
        "critshe._quad.gauss_legendre_01", "critshe.cli", "critshe.cli.build_parser",
        "critshe.gausscalc", "critshe.gausscalc.apply_med", "critshe.shesim",
        "critshe.shesim.FieldParams",
    ]
    assert resolves("critshe.shesim.initial_state")
    assert not resolves("critshe.shesim.no_such_name")


@pytest.mark.parametrize("path", sorted(BENCHMARK.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_package_names_resolve(path):
    # the micro kernels, workloads and warm-up call package functions by
    # name; a deletion that keeps every test green would still break them
    names = package_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in names if not resolves(name)] == []


def test_cold_start_leaves_slow_scipy_modules_unloaded():
    # a fresh interpreter runs the benchmark's warm-up (critshe.cli, the
    # modules its subcommands import lazily, the first-call tables) from source
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(pathlib.Path(critshe.__file__).parent.parent)!r})\n"
        f"runpy.run_path({str(BENCHMARK / 'warmup.py')!r})['warm_up']()\n"
        "import critshe.cli\n"
        f"print(*(m for m in sys.modules if m.startswith({SLOW_IMPORTS!r})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_never_imports_slow_scipy_modules(path):
    # lazy imports inside functions included
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    assert sorted(n for n in names if n.startswith(SLOW_IMPORTS)) == []
