"""Every name a lagcast module imports is used in that module, every
module it imports is in the standard library or is numpy, only
data.float_array converts a caller's numbers to float, every int or float
field of a checked record goes through data.int_value or data.float_array
and is kept, and every lagcast name the benchmark in perfbench/ calls
exists."""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lagcast"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
RUNTIME_DEPENDENCIES = {"numpy"}  # pyproject.toml's [project] dependencies


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by absolute name that are neither in the
    standard library nor a runtime dependency."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return sorted(imported - sys.stdlib_module_names - RUNTIME_DEPENDENCIES)


def test_scan_flags_a_foreign_import():
    source = ("from __future__ import annotations\nimport os, scipy.stats\n"
              "from numpy.linalg import lstsq\nfrom . import rbf\n"
              "def load():\n    import yaml\n")
    assert foreign_imports(source) == ["scipy", "yaml"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


# ----------------------------------------------- one intake for float arrays

FLOAT_DTYPE = re.compile(r"float|double|^['\"][fd]")


def float_conversions(source: str) -> list[int]:
    """Lines of np.asarray or np.array calls given a float dtype, outside a
    function named float_array."""
    found = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == "float_array"
        if (not inside and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array")
                and getattr(node.func.value, "id", None) in ("np", "numpy")):
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(FLOAT_DTYPE.search(ast.unparse(dtype)) for dtype in dtypes):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_scan_flags_a_float_conversion():
    source = ("import numpy as np\n"
              "def float_array(v):\n    return np.asarray(v, dtype=np.float64)\n"
              "def check(v):\n    a = np.asarray(v, dtype=np.float64)\n"
              "    b = np.array(v, float)\n    c = np.asarray(v, dtype='f8')\n"
              "    return np.asarray(v), np.array(v, dtype=np.intp), a, b, c\n")
    assert float_conversions(source) == [5, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_float_array_converts_to_float(path):
    assert float_conversions(path.read_text()) == []


# ------------------------------------------ one intake for integers and floats

def unchecked_fields(source: str, annotation: str, intake: str, **keywords) -> list[str]:
    """Class.field of each field annotated `annotation` or `annotation | None`
    in a class with a __post_init__ that does not both pass the field to an
    `intake` call given these keyword constants and set it with
    object.__setattr__.  The call takes self.field, or getattr(self, name);
    the setter takes the field's name, or a variable.  A getattr or a
    variable stands for every name written in __post_init__."""
    typed = re.compile(rf"{annotation}( \| None)?")
    found = []
    classes = [c for c in ast.walk(ast.parse(source)) if isinstance(c, ast.ClassDef)]
    for cls in classes:
        post = next((f for f in cls.body
                     if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"), None)
        if post is None:
            continue
        written = {c.value for c in ast.walk(post) if isinstance(c, ast.Constant)}
        checked, stored = set(), set()
        for call in (c for c in ast.walk(post) if isinstance(c, ast.Call)):
            arg = call.args[0] if call.args else None
            if getattr(call.func, "id", None) == intake and all(
                    any(k.arg == key and getattr(k.value, "value", None) == value
                        for k in call.keywords) for key, value in keywords.items()):
                if isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "self":
                    checked.add(arg.attr)
                elif isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "getattr":
                    checked |= written
            elif ast.unparse(call.func) == "object.__setattr__":
                name = call.args[1]
                stored |= {name.value} if isinstance(name, ast.Constant) else written
        found += [f"{cls.name}.{f.target.id}" for f in cls.body
                  if isinstance(f, ast.AnnAssign) and f.target.id not in checked & stored
                  and typed.fullmatch(ast.unparse(f.annotation))]
    return found


def unchecked_int_fields(source: str) -> list[str]:
    return unchecked_fields(source, "int", "int_value")


def unchecked_float_fields(source: str) -> list[str]:
    return unchecked_fields(source, "float", "float_array", ndim=0)


def test_scan_flags_an_unchecked_int_field():
    source = ("class A:\n    n: int\n    m: int | None = None\n    k: int = 1\n"
              "    x: float = 0.0\n    sizes: tuple[int, ...] = ()\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'n', int_value(self.n, 'n', 1))\n"
              "        for name in ('k',):\n"
              "            value = int_value(getattr(self, name), name, 0)\n"
              "            object.__setattr__(self, name, value)\n"
              "class B:\n    n: int\n"
              "class C:\n    n: int\n    m: int\n"
              "    def __post_init__(self):\n        int_value(self.n, 'n', 1)\n"
              "        object.__setattr__(self, 'm', self.m)\n")
    assert unchecked_int_fields(source) == ["A.m", "C.n", "C.m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_int_field_goes_through_int_value(path):
    assert unchecked_int_fields(path.read_text()) == []


def test_scan_flags_an_unchecked_float_field():
    source = ("class A:\n    x: float\n    y: float | None = None\n    z: float = 1.0\n"
              "    n: int = 0\n    a: np.ndarray = None\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', float_array(self.x, 'x', ndim=0))\n"
              "        for name in ('z',):\n"
              "            value = float_array(getattr(self, name), name, ndim=0, error=E)\n"
              "            object.__setattr__(self, name, value)\n"
              "class B:\n    x: float\n"
              "class C:\n    w: float\n    v: float\n"
              "    def __post_init__(self):\n        float_array(self.w, 'w', ndim=0)\n"
              "        object.__setattr__(self, 'v', float_array(self.v, 'v'))\n")
    assert unchecked_float_fields(source) == ["A.y", "C.w", "C.v"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_float_field_goes_through_float_array(path):
    assert unchecked_float_fields(path.read_text()) == []


# ------------------------------------------------ what the benchmark calls

PERFBENCH = SRC.parents[1] / "perfbench"
# layers the benchmark still names though their functions are gone
STALE_LAYERS = {"numerics.solve_spd", "numerics.gram"}


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, attribute) of every attribute perfbench's code reads through a
    name bound to lagcast or one of its modules."""
    reads = set()
    for name in ("workloads.py", "run.py", "child.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "lagcast":  # import lagcast[.cli] [as x]
                        bound[a.asname or "lagcast"] = a.name if a.asname else "lagcast"
            elif isinstance(node, ast.ImportFrom) and node.module == "lagcast":
                for a in node.names:
                    bound[a.asname or a.name] = f"lagcast.{a.name}"
        reads.update((bound[n.value.id], n.attr) for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                     and n.value.id in bound)
    return reads


def test_every_lagcast_name_perfbench_reads_exists():
    import lagcast.cli  # noqa: F401  -- child.py reads lagcast.cli

    reads = perfbench_reads()
    assert {("lagcast.polynomial", "rolling_forecast"), ("lagcast.rbf", "grow_until_target"),
            ("lagcast", "WindowedDataset"), ("lagcast.data", "load_csv"),
            ("lagcast.metrics", "timed"), ("lagcast.harness", "run_degree_sweep")} <= reads
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_traced_layer_exists_but_the_stale_ones():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    absent = {layer for layer, (module, attr) in layers.items()
              if importlib.util.find_spec(module) is None
              or not hasattr(importlib.import_module(module), attr)}
    assert absent == STALE_LAYERS


def test_call_shapes_perfbench_relies_on():
    from lagcast import rbf
    from lagcast.data import WindowedDataset

    # the tracer counts rbf.train's steps from args[0] and args[4]
    params = list(inspect.signature(rbf.train).parameters)
    assert params[0] == "inputs" and params[4] == "config"
    # the stream builds one-row datasets positionally
    row = WindowedDataset(2, np.array([[1.0, 2.0]]), np.array([3.0]))
    assert row.window_d == 2 and row.inputs.tolist() == [[1.0, 2.0]]
    assert row.targets.tolist() == [3.0]
