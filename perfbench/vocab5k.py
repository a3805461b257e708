"""Seeded synthetic resource set for the vocab5k workload.

Starting from a fixture resource directory, it keeps the corpus, tagged
corpus, matrix, templates and function-word dictionary byte for byte and
adds pseudo-words until the vocabulary holds SIZE words. Each added word gets
an isotropic Gaussian vector, is assigned round-robin to one of the content
tags of the fixture's associative table, and is listed under that tag in
``ta.jsonl`` (with a random frequency) and in ``forms.tsv`` (as its own
lemma). The same base directory and seed give byte-identical files.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

SIZE = 5000
COPIED = ("sentences.txt", "tagged.tsv", "matrix.txt", "templates.jsonl", "funcdict.jsonl")
SYLLABLES = tuple(c + v for c in "bcdfglmnprstvz" for v in "aeiou")
MAX_FREQ = 40


def _full_tags(tagged: Path) -> dict[str, str]:
    """Most frequent full tag per truncated tag in the tagged corpus."""
    counts = Counter(
        line.split("\t")[1]
        for line in tagged.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    best: dict[str, str] = {}
    for full, _ in sorted(counts.items(), key=lambda fc: (-fc[1], fc[0])):
        best.setdefault(full[:4], full)
    return best


def generate(base: Path, out: Path, seed: int) -> None:
    out.mkdir(parents=True)
    for name in COPIED:
        shutil.copyfile(base / name, out / name)

    vector_lines = (base / "vectors.txt").read_text(encoding="utf-8").splitlines()
    count, dims = (int(x) for x in vector_lines[0].split())
    base_rows = vector_lines[1 : 1 + count]
    ta_rows = [
        json.loads(line)
        for line in (base / "ta.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    forms_text = (base / "forms.tsv").read_text(encoding="utf-8")

    taken = {row.split(" ", 1)[0] for row in base_rows}
    taken |= {w for row in ta_rows for w, _ in row["words"]}
    taken |= {f for line in forms_text.splitlines() for f in line.split("\t")[:2]}
    for line in (base / "sentences.txt").read_text(encoding="utf-8").splitlines():
        taken |= {t.lower() for t in line.split()}

    rng = np.random.default_rng(seed)
    added: list[str] = []
    while len(added) < SIZE - count:
        word = "".join(rng.choice(SYLLABLES, size=int(rng.integers(2, 5))))
        if word not in taken:
            taken.add(word)
            added.append(word)
    vectors = rng.standard_normal((len(added), dims))
    freqs = rng.integers(1, MAX_FREQ, size=len(added)).tolist()

    with open(out / "vectors.txt", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{SIZE} {dims}\n")
        for row in base_rows:
            f.write(row + "\n")
        for word, vec in zip(added, vectors):
            f.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")

    tags = sorted(row["tag"] for row in ta_rows)
    full = _full_tags(base / "tagged.tsv")
    by_tag = {row["tag"]: [tuple(wc) for wc in row["words"]] for row in ta_rows}
    with open(out / "forms.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.write(forms_text)
        for i, (word, freq) in enumerate(zip(added, freqs)):
            tag = tags[i % len(tags)]
            by_tag[tag].append((word, freq))
            f.write(f"{word}\t{word}\t{full[tag]}\t{freq}\n")
    with open(out / "ta.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for tag in tags:
            words = sorted(by_tag[tag], key=lambda wc: (-wc[1], wc[0]))
            f.write(
                json.dumps({"tag": tag, "words": [list(wc) for wc in words]}, ensure_ascii=False)
                + "\n"
            )
