"""Every rclab module imports on its own, without the package __init__, and
every public function in it has a caller.

Each module is imported in a fresh interpreter under a stub `rclab` package
whose __init__ never runs, so an import cycle between the modules cannot be
hidden by the order in which __init__ happens to import them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rclab

PACKAGE_DIR = Path(rclab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

_STUB_IMPORT = """
import importlib, sys, types
package = types.ModuleType("rclab")
package.__path__ = [sys.argv[1]]
sys.modules["rclab"] = package
importlib.import_module("rclab." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_without_the_package_init(module):
    proc = subprocess.run(
        [sys.executable, "-c", _STUB_IMPORT, str(PACKAGE_DIR), module], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# Public code whose only callers are tests, and why it stays.
UNCALLED_ALLOWED = {
    "StarCoefficients.from_table": "tests and planted defects star-multiply solved tables with it",
    "QSeries.from_json_obj": "tests check that reports round-trip through it",
    "MPoly.from_json_obj": "no report emits an MPoly; tests pin polynomial digests through to_json_obj "
                           "and check that the README's serialization round-trips through this",
    "LinSystem.add_row": "goes with LinSystem and solve, which the benchmark still reads and traces",
}


def _public_definitions():
    """(qualified name, name) of each public module function and class method."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_"):
                    yield prefix + fn.name, fn.name


def _referenced_names():
    """Every Name and Attribute in rclab (less __init__) and bench; strings and docstrings do not count."""
    paths = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"] + sorted(BENCH_DIR.glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    referenced = _referenced_names()
    uncalled = {qual for qual, name in _public_definitions() if name not in referenced}
    assert uncalled == set(UNCALLED_ALLOWED)
