"""Output checks that read the resource files directly.

Nothing here calls homosyntax: the files are parsed with the standard
library and numpy, so a defect in a loader or a model cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# slack for a pick whose proximity ties the third-best in the last bits
TIE_EPS = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(directory: Path, expected: dict[str, str]) -> list[str]:
    found = {name: sha256(directory / name) for name in expected}
    return [
        f"{name}: sha256 {found[name]} != recorded {digest}"
        for name, digest in expected.items()
        if found[name] != digest
    ]


def alpha_key(tokens) -> str:
    """Lowercased tokens that contain a letter, joined by single spaces."""
    return " ".join(t.lower() for t in tokens if any(c.isalpha() for c in t))


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    """Parsed one line at a time into a preallocated array, so that the
    checks add little to the run's peak memory."""
    words: list[str] = []
    with open(path, encoding="utf-8") as f:
        count, dims = (int(x) for x in f.readline().split())
        vectors = np.empty((count, dims), dtype=np.float64)
        for line in f:
            if len(words) == count:
                break
            row = line.split(" ")
            if len(row) != dims + 1:
                raise ValueError(f"{path}: row {len(words) + 1} is not a word and {dims} floats")
            vectors[len(words)] = [float(x) for x in row[1:]]
            words.append(row[0])
    if len(words) != count:
        raise ValueError(f"{path}: expected {count} rows, found {len(words)}")
    return words, vectors


class Oracle:
    """Checks generated sentences against one resource directory."""

    def __init__(self, directory: Path, cap_m: int):
        self.cap_m = cap_m
        self.corpus_keys = {
            alpha_key(line.split()) for line in _lines(directory / "sentences.txt")
        }
        self.templates = {}  # source id -> template items
        for line in _lines(directory / "templates.jsonl"):
            obj = json.loads(line)
            self.templates[obj["source_id"]] = obj["items"]
        self.ta = {}  # truncated tag -> {word: count}
        for line in _lines(directory / "ta.jsonl"):
            obj = json.loads(line)
            self.ta[obj["tag"]] = {w: c for w, c in obj["words"]}
        self.funcdict = {}  # truncated tag -> words
        for line in _lines(directory / "funcdict.jsonl"):
            obj = json.loads(line)
            self.funcdict[obj["tag"]] = set(obj["words"])
        self.attested = {}  # surface -> truncated tags it is listed under
        for line in _lines(directory / "forms.tsv"):
            _lemma, surface, fulltag, _freq = line.split("\t")
            self.attested.setdefault(surface, set()).add(fulltag[:4])
        self.words, vectors = read_vectors(directory / "vectors.txt")
        self.index = {w: i for i, w in enumerate(self.words)}
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12)
        self.unit = vectors
        self._candidates: dict[str, np.ndarray] = {}
        self._capped: dict[str, set[str]] = {}

    def check(self, model: int, length: int, sentence) -> list[str]:
        """Violations of the output contract; empty when the sentence is sound."""
        problems = []
        if alpha_key(sentence.tokens) in self.corpus_keys:
            problems.append("reproduces a corpus sentence")
        if model == 1:
            problems += self._check_model1(length, sentence)
        else:
            problems += self._check_template_fill(model, sentence)
        return problems

    def _check_model1(self, length: int, sentence) -> list[str]:
        tokens, trace = sentence.tokens, sentence.trace
        if len(tokens) != length:
            return [f"{len(tokens)} tokens for requested length {length}"]
        if [slot["position"] for slot in trace] != list(range(length)):
            return ["trace does not cover every position once"]
        problems = []
        for slot in trace:
            pos, tag = slot["position"], slot["tag"]
            word = tokens[pos]
            if slot["kind"] == "content":
                if tag not in self.attested.get(word.lower(), ()):
                    problems.append(f"{word!r} not attested in forms.tsv under {tag}")
            elif word not in self.funcdict.get(tag, ()) and not (
                word == "." and pos == length - 1 and tag.startswith("F")
            ):
                problems.append(f"{word!r} not in funcdict.jsonl under {tag}")
        return problems

    def _check_template_fill(self, model: int, sentence) -> list[str]:
        items = self.templates.get(sentence.source)
        if items is None:
            return [f"no template with source {sentence.source!r}"]
        tokens = sentence.tokens
        if len(items) != len(tokens):
            return [f"{len(tokens)} tokens for a {len(items)}-item template"]
        q = sentence.query
        problems = []
        for pos, (item, word) in enumerate(zip(items, tokens)):
            if item["t"] == "lit":
                if word != item["w"]:
                    problems.append(f"literal {item['w']!r} at {pos} became {word!r}")
                continue
            tag = item["tag"][:4]
            if word not in self.ta.get(tag, ()):
                problems.append(f"{word!r} at {pos} not in ta.jsonl under {tag}")
            elif model == 2 or item["orig"].lower() not in self.index:
                # model 2, and model 3's fallback for an out-of-vocabulary original
                if not self._in_top3(tag, q, word):
                    problems.append(f"{word!r} at {pos} is not a top-3 pick for {q!r}")
            elif word not in self._capped_words(tag):
                problems.append(f"{word!r} at {pos} is outside the top {self.cap_m}")
        return problems

    def _in_top3(self, tag: str, q: str, word: str) -> bool:
        candidates = self._candidates.get(tag)
        if candidates is None:
            candidates = np.array(
                [self.index[w] for w in self.ta[tag] if w in self.index], dtype=np.int64
            )
            self._candidates[tag] = candidates
        if word not in self.index:
            return False
        query = self.unit[self.index[q]]
        prox = np.clip((self.unit[candidates] @ query + 1.0) / 2.0, 0.0, 1.0)
        third = np.sort(prox)[::-1][min(3, len(prox)) - 1]
        mine = min(1.0, max(0.0, (float(self.unit[self.index[word]] @ query) + 1.0) / 2.0))
        return mine >= third - TIE_EPS

    def _capped_words(self, tag: str) -> set[str]:
        capped = self._capped.get(tag)
        if capped is None:
            ranked = sorted(
                ((w, c) for w, c in self.ta[tag].items() if w in self.index),
                key=lambda wc: (-wc[1], wc[0]),
            )
            capped = {w for w, _ in ranked[: self.cap_m]}
            self._capped[tag] = capped
        return capped
