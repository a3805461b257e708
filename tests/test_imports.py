"""Each module of the package imports on its own.

The package root imports nothing, so no import order is fixed by it: a
module that needs another must import it itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import homosyntax

SRC = Path(homosyntax.__file__).resolve().parents[1]
MODULES = sorted(
    p.stem for p in (SRC / "homosyntax").glob("*.py") if p.stem != "__init__"
)

# imports each named module in a fresh module table, one after the other
SCRIPT = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "homosyntax"]:
        del sys.modules[key]
    importlib.import_module("homosyntax." + name)
    print(name)
"""


def test_every_module_imports_on_its_own():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *MODULES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == MODULES
    assert "check" in MODULES and "cli" in MODULES
