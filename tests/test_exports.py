"""Every exported name resolves and every imported name is used or exported.

A deletion can then leave neither a stale export nor a stale import.  Each
name has one import path: a module exports only what it defines, and the
package root exports nothing but its version.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import decayalg
from decayalg import harness

MODULES = ["decayalg"] + sorted(
    f"decayalg.{info.name}" for info in pkgutil.iter_modules(decayalg.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_or_function_is_defined_in_its_module(name):
    module = importlib.import_module(name)
    exported = [getattr(module, n) for n in getattr(module, "__all__", [])]
    assert [obj.__qualname__ for obj in exported
            if (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ != name] == []


def test_the_package_root_exports_only_its_version():
    public = [n for n, obj in vars(decayalg).items()
              if not n.startswith("_") and not inspect.ismodule(obj)]
    assert public == [] and getattr(decayalg, "__all__", []) == []
    assert decayalg.__version__ == "0.1.0"



def imports(tree) -> list:
    """(node, alias) of every name a module's import statements bring in, past __future__."""
    return [(node, alias) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def imported_but_unused(source: str) -> list:
    """Names a module imports (past __future__) that it never reads and does not export."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0] for _, alias in imports(tree)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    assert imported_but_unused(Path(module.__file__).read_text()) == []


def test_imported_but_unused_sees_a_stale_import():
    source = "from .a import Kept, Stale\nimport numpy as np\n__all__ = ['Kept']\nnp.zeros(1)\n"
    assert imported_but_unused(source) == ["Stale"]


def private_imports(source: str) -> list:
    """Underscore names a module imports from another decayalg module: each private
    name has one owner, the module that defines it."""
    return [alias.name for node, alias in imports(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and alias.name.startswith("_")
            and (node.level or (node.module or "").split(".")[0] == "decayalg")]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    module = importlib.import_module(name)
    assert private_imports(Path(module.__file__).read_text()) == []


def test_private_imports_sees_a_private_name():
    source = ("from .cd_operator import _squares, apply\nfrom decayalg.rng import _mix\n"
              "from numpy import _core\n")
    assert private_imports(source) == ["_squares", "_mix"]


def decayalg_imports(source: str) -> list:
    """The import statements, one name each, that bring a name in from decayalg."""
    return [f"from {node.module} import {alias.name}" if isinstance(node, ast.ImportFrom)
            else f"import {alias.name}"
            for node, alias in imports(ast.parse(source))
            if (getattr(node, "module", None) or alias.name).split(".")[0] == "decayalg"
            and not getattr(node, "level", 0)]


def unresolved(statements: list) -> list:
    """The import statements that raise ImportError."""
    failed = []
    for statement in statements:
        try:
            exec(statement, {})
        except ImportError:
            failed.append(statement)
    return failed


def test_every_name_the_benchmark_imports_from_decayalg_resolves():
    # perfbench/layers.py imports these inside Tracer.install(); an ImportError
    # there would stop the benchmark's traced run
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "layers.py").read_text()
    statements = decayalg_imports(source)
    assert "from decayalg.rng import Xoshiro256StarStar" in statements
    assert unresolved(statements) == []
    assert unresolved(["from decayalg.rng import Moved"]) == ["from decayalg.rng import Moved"]


def test_the_benchmark_tracer_patches_every_layer(monkeypatch):
    # the tracer wraps the runners and the trial pool by name: after a rename
    # the traced run only prints "not traced (missing)" and its counters read 0
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # dataclasses look it up by name
    spec.loader.exec_module(layers)
    svd, map_trials = np.linalg.svd, harness._map_trials
    with layers.Tracer() as t:
        assert t.missing == []
        assert harness._map_trials is not map_trials
    assert np.linalg.svd is svd and harness._map_trials is map_trials
