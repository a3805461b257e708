"""Each module of the package imports on its own, and uses what it imports.

The package root imports nothing, so no import order is fixed by it: a
module that needs another must import it itself. The CLI imports the check
harness only for the check command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy

import homosyntax

SRC = Path(homosyntax.__file__).resolve().parents[1]
NUMPY_DIR = str(Path(numpy.__file__).resolve().parents[1])
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


def _python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports the package from SRC, in env
    (this process's environment by default)."""
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
        timeout=120,
    )


def test_every_module_imports_on_its_own():
    done = _python("-c", SCRIPT, *MODULES)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == MODULES
    assert "check" in MODULES and "cli" in MODULES


def test_cli_leaves_the_check_harness_unimported():
    # only the check command needs it; every other CLI call skips its imports
    done = _python(
        "-c", "import sys, homosyntax.cli; print('homosyntax.check' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


# whether a CLI import imported importlib.resources and the data files it
# opened, then the data files opened once an abbreviation is looked up: the
# last shows that the hook sees the abbreviation list being read
SHOW_DATA_OPENS = """
import os, sys
data = os.path.join("homosyntax", "data") + os.sep
opened = []
def hook(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        name = os.fsdecode(args[0])
        if data in name:
            opened.append(os.path.basename(name))
sys.addaudithook(hook)
import homosyntax.cli
print(["importlib.resources" in sys.modules, opened[:]])
homosyntax.corpus._is_abbreviation("El Sr.", 5)
print(opened)
"""


def test_cli_import_opens_no_data_file():
    # without site, whose own imports would hide importlib.resources; only
    # ingest needs the abbreviation list, so it is read on first use
    done = _python(
        "-S", "-c", SHOW_DATA_OPENS, env={**os.environ, "PYTHONPATH": NUMPY_DIR}
    )
    assert done.returncode == 0, done.stderr
    imported, segmented = map(ast.literal_eval, done.stdout.splitlines())
    assert imported == [False, []]
    assert segmented == ["abbreviations.txt"]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SHOW_THREAD_VARS = (
    "import os, homosyntax.cli; "
    f"print([os.environ.get(v) for v in {THREAD_VARS!r}])"
)


def _python_with_threads(**chosen: str) -> list:
    """The three BLAS thread variables after importing the CLI in a child
    whose environment sets only those of ``chosen``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    done = _python("-c", SHOW_THREAD_VARS, env={**env, **chosen})
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_cli_pins_one_blas_thread_by_default():
    assert _python_with_threads() == ["1", None, None]


def test_cli_leaves_a_chosen_thread_count_as_it_is():
    assert _python_with_threads(OPENBLAS_NUM_THREADS="2") == ["2", None, None]
    assert _python_with_threads(OMP_NUM_THREADS="2") == [None, None, "2"]


def _unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each name a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [u for name in MODULES
              for u in _unused_imports(SRC / "homosyntax" / f"{name}.py")]
    assert unused == []
