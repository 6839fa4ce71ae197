"""Every rclab module imports on its own, without the package __init__.

Each module is imported in a fresh interpreter under a stub `rclab` package
whose __init__ never runs, so an import cycle between the modules cannot be
hidden by the order in which __init__ happens to import them.
"""

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
