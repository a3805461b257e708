"""A quality report of the three models on a fixed seeded request grid.

Usage:
    python scripts/quality.py [--resources DIR] [--out QUALITY_fixture.json]

Without ``--resources`` the demo directory is built first, by
``scripts/demo_pipeline.py``, in a temporary directory. The grid is 400
requests: request i draws its query uniformly from the words of
``vectors.txt`` and its length from 5–12, both from ``random.Random(7)``,
and runs at seed i. Every model runs the grid at the CLI defaults and at
``--neighbors 60``.

Like ``perfbench/checks.py``, the script reads the resource files itself
and calls homosyntax only to generate. Per model and setting it reports:

- ``failed``, and ``failures``: the requests that failed, counted by
  message;
- ``end_tags`` and ``end_tag_share`` (model 1): the sentences whose last
  tag ends a sentence of ``tagged.tsv``, and their share of the sentences;
- ``repeats``: the sentences that use one content word twice;
- ``distinct_2``: distinct token bigrams over all bigrams of the grid;
- ``sha256``: of the outputs, one line per request, its text or its error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from homosyntax.errors import HomosyntaxError
from homosyntax.model1 import generate_model1
from homosyntax.model2 import generate_model2
from homosyntax.model3 import generate_model3
from homosyntax.resources import load_resources

HERE = Path(__file__).resolve().parent
MODELS = {1: generate_model1, 2: generate_model2, 3: generate_model3}
SETTINGS = {"defaults": {}, "neighbors_60": {"neighbors_m": 60}}
REQUESTS = 400
GRID_SEED = 7
LENGTHS = (5, 12)


def vocabulary(directory: Path) -> list[str]:
    """The words of ``vectors.txt``, in file order."""
    lines = (directory / "vectors.txt").read_text(encoding="utf-8").splitlines()
    return [line.split(" ", 1)[0] for line in lines[1:] if line.strip()]


def end_tags(directory: Path) -> set[str]:
    """The truncated tags (first four characters) that end a sentence of
    ``tagged.tsv``: the tags with a count into ``</s>``."""
    ends, last = set(), None
    for line in (directory / "tagged.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            last = line.split("\t")[1][:4]
        elif last is not None:
            ends.add(last)
            last = None
    if last is not None:
        ends.add(last)
    return ends


def grid(vocab: list[str]) -> list[tuple[str, int, int]]:
    """(query, length, seed) of each request."""
    rng = random.Random(GRID_SEED)
    return [(rng.choice(vocab), rng.randint(*LENGTHS), i) for i in range(REQUESTS)]


def repeats_content_word(trace: list[dict]) -> bool:
    """Whether two content slots of a sentence hold one word. A model-1
    record names its kind; every slot of a template model is content."""
    words = [r["chosen"].lower() for r in trace if r.get("kind", "content") == "content"]
    return len(set(words)) < len(words)


def distinct_2(sentences: list[tuple[str, ...]]) -> float:
    """Distinct lowercased token bigrams over all bigrams (Li et al. 2016)."""
    bigrams = [tuple(t.lower() for t in s[i : i + 2])
               for s in sentences for i in range(len(s) - 1)]
    return len(set(bigrams)) / len(bigrams) if bigrams else 0.0


def report(model: int, outcomes: list, ends: set[str]) -> dict:
    """The metrics of one model over the grid; an outcome is a generated
    sentence or the error's message."""
    sentences = [o for o in outcomes if not isinstance(o, str)]
    lines = [o if isinstance(o, str) else o.text for o in outcomes]
    failures = Counter(o for o in outcomes if isinstance(o, str))
    out = {
        "requests": len(outcomes),
        "sentences": len(sentences),
        "failed": failures.total(),
        "failures": dict(failures.most_common()),
        "repeats": sum(repeats_content_word(s.trace) for s in sentences),
        "distinct_2": round(distinct_2([s.tokens for s in sentences]), 4),
        "sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }
    if model == 1:  # every position of a model-1 sentence has a record
        out["end_tags"] = sum(s.trace[-1]["tag"] in ends for s in sentences)
        out["end_tag_share"] = round(out["end_tags"] / max(1, len(sentences)), 4)
    return out


def run(directory: Path) -> dict:
    ends = end_tags(directory)
    requests = grid(vocabulary(directory))
    base = load_resources(directory)
    result = {"requests": REQUESTS, "grid_seed": GRID_SEED, "length_range": LENGTHS}
    for name, setting in SETTINGS.items():
        res = replace(base, **setting)
        result[name] = {}
        for model, generate in MODELS.items():
            outcomes = []
            for q, n, seed in requests:
                try:
                    outcomes.append(generate(q, n, res, seed))
                except HomosyntaxError as e:
                    outcomes.append(str(e))
            result[name][f"model{model}"] = report(model, outcomes, ends)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--resources", type=Path,
                        help="a demo directory (default: build one)")
    parser.add_argument("--out", type=Path, help="write the report as JSON here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        directory = args.resources
        if directory is None:
            directory = Path(tmp) / "demo"
            subprocess.run([sys.executable, str(HERE / "demo_pipeline.py"),
                            "--out", str(directory)], check=True,
                           stdout=subprocess.DEVNULL)
        result = run(directory)
    text = json.dumps(result, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")


if __name__ == "__main__":
    main()
