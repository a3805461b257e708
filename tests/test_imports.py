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
