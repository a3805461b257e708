"""Build a resource directory from the test fixtures and generate samples.

Usage:
    python3 scripts/demo_pipeline.py --out /tmp/homosyntax-demo

The script runs the same steps as the CLI pipeline (tag, build, train-emb,
check) against the bundled fixture corpus, then prints a few sentences from
each model.
"""

import argparse
import pathlib
import shutil
import sys

from homosyntax.cli import main as cli_main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# the fixture corpus is small: at m = 60 model 1 fails far fewer requests
NEIGHBORS = "60"


def run(argv):
    print("$ homosyntax " + " ".join(argv))
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="resource directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / "sentences.txt", out / "sentences.txt")
    shutil.copy(FIXTURES / "forms.tsv", out / "forms.tsv")

    run(["tag", "--in", str(out / "sentences.txt"),
         "--lexicon", str(FIXTURES / "lexicon.tsv"),
         "--out", str(out / "tagged.tsv")])
    run(["build", "--resources", str(out)])
    run(["train-emb", "--in", str(out / "sentences.txt"),
         "--out", str(out / "vectors.txt"), "--seed", "1"])
    run(["check", "--resources", str(out)])

    for model, query in (("1", "amor"), ("2", "guerra"), ("3", "sol")):
        run(["generate", "--resources", str(out), "--model", model,
             "--query", query, "--len", "7", "--count", "3",
             "--seed", str(args.seed), "--neighbors", NEIGHBORS])


if __name__ == "__main__":
    main()
