"""Run one workload of the homosyntax benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixture --seed 3 --seconds 40 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's metadata. The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the checkout lacks the sources or fixtures the benchmark builds from.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (
    "src/homosyntax/__init__.py",
    "tests/fixtures/sentences.txt",
    "tests/fixtures/lexicon.tsv",
    "tests/fixtures/forms.tsv",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fixture", "vocab5k"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a homosyntax checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # one thread everywhere, set before numpy loads its BLAS; no worker pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result, meta = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = bench.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n",
                   encoding="utf-8")
    del meta["latencies_ms"]  # kept in the result file only
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
