"""Every rclab module imports on its own, without the package __init__,
every public function in it has a caller, and the package itself binds only
its modules.

Each module is imported in a fresh interpreter under a stub `rclab` package
whose __init__ never runs, so an import cycle between the modules cannot be
hidden by the order in which __init__ happens to import them.
"""

import ast
import inspect
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


def test_the_package_binds_only_its_modules():
    # each name is imported from the module that defines it: the package re-exports none
    public = {name: value for name, value in vars(rclab).items() if not name.startswith("_")}
    assert [name for name, value in public.items()
            if not (inspect.ismodule(value) and value.__name__ == f"rclab.{name}")] == []
    assert isinstance(rclab.__version__, str)


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# Public code whose only callers are tests, and why it stays.
UNCALLED_ALLOWED = {
    "QSeries.from_json_obj": "tests check that reports round-trip through it",
    "MPoly.from_json_obj": "no report emits an MPoly; tests pin polynomial digests through to_json_obj "
                           "and check that the README's serialization round-trips through this",
    "LinSystem.add_row": "goes with LinSystem and solve, which the benchmark still reads and traces",
}


def _public_definitions(sources):
    """(qualified name, name, kind) of each public module function, class method and property."""
    for source in sources:
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_"):
                    prop = any(getattr(d, "id", None) == "property" for d in fn.decorator_list)
                    yield prefix + fn.name, fn.name, "property" if prop else "method" if prefix else "function"


def _uncalled(defining, referencing):
    """The public definitions no code in `referencing` reaches: a function or property by any reference
    to its name, a method only by a call (`x.m(...)`) or a read off a class name (`Cls.m`, as in
    bench/tracing.py's `uq.IsobaricPoly.to_form`), so a data attribute of its name does not hide it."""
    definitions = list(_public_definitions(defining))
    classes = {qual.partition(".")[0] for qual, _, kind in definitions if kind != "function"}
    names, called = set(), set()
    for node in (node for source in referencing for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if getattr(node.value, "id", getattr(node.value, "attr", None)) in classes:
                called.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return {qual for qual, name, kind in definitions if name not in (called if kind == "method" else names)}


def test_every_public_function_has_a_caller():
    package = [p.read_text() for p in PACKAGE_DIR.glob("*.py")]
    callers = [p.read_text() for p in [*PACKAGE_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")] if p.name != "__init__.py"]
    assert _uncalled(package, callers) == set(UNCALLED_ALLOWED)


def test_a_data_attribute_of_the_same_name_is_not_a_call():
    # exc.term reads an attribute, so the method term has no caller
    defining = """
class HbarSeries:
    def term(self, n): ...
    def scale(self, c): ...
    def to_form(self): ...
    @property
    def order(self): ...
"""
    referencing = "exc.term, series.scale(2), series.order, uq.HbarSeries.to_form"
    assert _uncalled([defining], [referencing]) == {"HbarSeries.term"}


def test_no_test_module_imports_another():
    # test modules share helpers through tests/oracles.py alone
    imports = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports += [(path.name, getattr(node, "module", None) or alias.name) for alias in node.names]
    assert [(path, module) for path, module in imports if module.rpartition(".")[2].startswith("test_")] == []


def test_no_handler_catches_an_assertion_error():
    # a verdict is decided by the suite that records it, not by catching an assert inside the library
    caught = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names = [getattr(t, "id", getattr(t, "attr", None)) for t in types]
                caught += [(path.name, node.lineno)] * names.count("AssertionError")
    assert caught == []
