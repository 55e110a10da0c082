"""Every name a lagcast module imports is used in that module, and every
module it imports is in the standard library or is numpy."""

import ast
import sys
from pathlib import Path

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
