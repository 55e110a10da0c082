"""Every name a lagcast module imports is used in that module, every
module it imports is in the standard library or is numpy, only
data.float_array converts a caller's numbers to float, every numeric field
a caller gives a record is in its intake table and kept as a plain number,
and every lagcast name the benchmark in perfbench/ calls exists."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from lagcast import data, harness, polynomial as poly, rbf
from lagcast.errors import ConfigError, DataError

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
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


# ----------------------------------------------- one intake for float arrays

FLOAT_DTYPE = re.compile(r"float|double|^['\"][fd]")


def float_conversions(source: str) -> list[int]:
    """Lines of np.asarray or np.array calls, or of .astype calls on anything,
    given a float dtype, outside a function named float_array."""
    found = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == "float_array"
        if (not inside and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and (node.func.attr == "astype" or node.func.attr in ("asarray", "array")
                     and getattr(node.func.value, "id", None) in ("np", "numpy"))):
            at = int(node.func.attr != "astype")  # astype takes the dtype first, np.array second
            dtypes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "dtype"]
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
              "    e = np.asarray(v, dtype=object).astype(np.float64)\n"
              "    return np.asarray(v), np.array(v, dtype=np.intp), a, b, c, e, b.astype(int)\n")
    assert float_conversions(source) == [5, 6, 7, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_float_array_converts_to_float(path):
    assert float_conversions(path.read_text(encoding="utf-8")) == []


# ------------------------------------------------ one intake table per record

# records only lagcast builds, from numbers it has checked already
OUTPUT_RECORDS = {"MetricReport", "TimedResult", "TrainTrace", "ModelRow", "SweepResult",
                  "ComparisonReport", "ComparisonSuite", "PairedTestResult"}
# each intake record: its error, and a valid example's fields, each number exact in float32
INTAKE_EXAMPLES = {
    data.TimeSeries: (DataError, {"name": "s", "values": [1.0, 2.0]}),
    data.WindowedDataset: (DataError, {"window_d": 1, "inputs": [[0.0], [1.0]],
                                       "targets": [1.0, 2.0]}),
    poly.MonomialBasis: (ConfigError, {"window_d": 2, "degree_k": 2}),
    poly.PolynomialModel: (DataError, {"basis": poly.MonomialBasis(1, 1), "weights": [0.5, 2.0],
                                       "ridge_lambda": 0.25}),
    rbf.RbfNetwork: (DataError, {"centers": [[0.0], [1.0]], "widths": [1.0, 0.5],
                                 "out_weights": [2.0, 0.5], "bias": 0.25}),
    rbf.RbfTrainConfig: (ConfigError, {"units": 2, "batch_size": 4, "epochs": 3, "seed": 1,
                                       "learning_rate": 0.5, "target_mse": 0.25, "max_units": 5}),
    harness.ExperimentConfig: (ConfigError, {"source": harness.SynthSource("walk", 8),
                                             "window_d": 2, "train_fraction": 0.75,
                                             "alpha": 0.125, "ridge_lambda": 0.5}),
    harness.SynthSource: (ConfigError, {"kind": "walk", "n": 8, "seed": 3}),
    harness.CsvSource: (DataError, {"path": "a.csv", "column": 1}),
}


def untabled_fields(cls) -> list[str]:
    """Class.field of each field typed int, float or np.ndarray, alone or in a
    union, that is not in the class's _NUMBERS table."""
    hints = typing.get_type_hints(cls)
    return [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
            if {int, float, np.ndarray} & set(typing.get_args(hints[f.name]) or [hints[f.name]])
            and f.name not in getattr(cls, "_NUMBERS", {})]


def unconverted_fields(cls, error: type, example: dict) -> list[str]:
    """Class.field of each table field, all of which must refuse True with error,
    that keeps an np.int64, np.float32 or float32 array as given, not as the
    plain int, plain float or float64 array the example holds there."""
    found = []
    for name in cls._NUMBERS:
        with pytest.raises(error):
            cls(**{**example, name: True})
        valid = example[name]
        want = type(valid) if isinstance(valid, (int, float)) else np.ndarray
        given = (np.int64 if want is int else np.float32)(valid)  # a list gives a float32 array
        kept = getattr(cls(**{**example, name: given}), name)
        if type(kept) is not want or want is np.ndarray and kept.dtype != np.float64:
            found.append(f"{cls.__name__}.{name}")
    return found


def test_every_numeric_field_is_in_its_records_table_and_kept_plain():
    modules = [importlib.import_module(f"lagcast.{p.stem}") for p in MODULES
               if p.stem != "__main__"]
    records = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    assert OUTPUT_RECORDS <= {cls.__name__ for cls in records}
    assert {cls for cls in records if hasattr(cls, "_NUMBERS")} == set(INTAKE_EXAMPLES)
    assert [f for cls in records if cls.__name__ not in OUTPUT_RECORDS
            for f in untabled_fields(cls)] == []
    assert [f for cls, (error, example) in INTAKE_EXAMPLES.items()
            for f in unconverted_fields(cls, error, example)] == []


@dataclasses.dataclass(frozen=True)
class _Untabled:  # x is missing from the table
    n: int
    x: float | None = None
    _NUMBERS = {"n": (data.int_value, "n", 1)}
    __post_init__ = data.take_numbers


class _Unconverted(_Untabled):  # the table keeps a numpy n as given
    _NUMBERS = {"n": (data.keeping(data.int_value, np.integer), "n", 1),
                "x": (data.float_array, "x", 0)}


def test_the_table_checks_flag_a_missing_field_and_an_unconverted_one():
    assert untabled_fields(_Untabled) == ["_Untabled.x"]
    assert unconverted_fields(_Untabled, DataError, {"n": 1}) == []
    assert unconverted_fields(_Unconverted, DataError, {"n": 1, "x": 0.5}) == ["_Unconverted.n"]


# ------------------------------------------------ what the benchmark calls

PERFBENCH = SRC.parents[1] / "perfbench"
# layers the benchmark still names though their functions are gone
STALE_LAYERS = {"numerics.solve_spd", "numerics.gram"}


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, attribute) of every attribute perfbench's code reads through a
    name bound to lagcast or one of its modules."""
    reads = set()
    for name in ("workloads.py", "run.py", "child.py"):
        tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
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
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    absent = {layer for layer, (module, attr) in layers.items()
              if importlib.util.find_spec(module) is None
              or not hasattr(importlib.import_module(module), attr)}
    assert absent == STALE_LAYERS


def test_call_shapes_perfbench_relies_on():
    # the tracer counts rbf.train's steps from args[0] and args[4]
    params = list(inspect.signature(rbf.train).parameters)
    assert params[0] == "inputs" and params[4] == "config"
    # the stream builds one-row datasets positionally
    row = data.WindowedDataset(2, np.array([[1.0, 2.0]]), np.array([3.0]))
    assert row.window_d == 2 and row.inputs.tolist() == [[1.0, 2.0]]
    assert row.targets.tolist() == [3.0]
