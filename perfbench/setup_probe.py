"""Time one CLI start: import homosyntax and load a resource directory.

Usage: python3 setup_probe.py <repo root> <resource dir>

Prints the seconds from the first line of this script to the end of
``load_resources``, which is what every ``homosyntax generate`` call pays
before its first sentence.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root, resdir = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(root / "src"))
    import homosyntax.cli  # noqa: F401  (the import a CLI call pays)
    from homosyntax import resources

    resources.load_resources(resdir)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
