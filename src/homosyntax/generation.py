"""The generation driver shared by the three models, and its plumbing.

Every model draws a syntactic skeleton and fills its slots; only the
skeleton source and the slot filler differ. ``generate`` owns the rest: the
query check, the seeded RNG and the attempts. An attempt ends in a novel
sentence, in a failure that costs only that attempt, or in an error that
ends the request. This module also holds the generated-sentence record,
surface realization (detokenization), sentence normalization used for
novelty checks, the function-word dictionary and the bundle of prebuilt
resources the models consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from .embeddings import AssociativeTable, EmbeddingStore, lowercase_words
from .errors import (
    GenerationError,
    OovError,
    TableError,
    load_rows,
    read_jsonl,
    write_jsonl,
)
from .markov import DecodePolicy, TransitionMatrix
from .morphology import FormsLexicon
from .pos import PosTag, TaggedSentence, is_content
from .templates import Literal, TemplateStore

# tokens that attach to the preceding word
_NO_SPACE_BEFORE = set(".,;:!?…)]}»")
# tokens that attach to the following word
_NO_SPACE_AFTER = set("([{«¿¡")

DEFAULT_POLICY = DecodePolicy.topk(3)
DEFAULT_NEIGHBORS = 20
DEFAULT_MAX_HOPS = 5
DEFAULT_CAP_M = 200
NOVELTY_RETRIES = 20


def detokenize(tokens: list[str] | tuple[str, ...]) -> str:
    """Single spaces, no space around attached punctuation, capitalized start."""
    out = []
    for tok in tokens:
        if out and tok and tok[0] in _NO_SPACE_BEFORE:
            out[-1] += tok
        elif out and out[-1] and out[-1][-1] in _NO_SPACE_AFTER:
            out[-1] += tok
        else:
            out.append(tok)
    text = " ".join(out)
    for i, c in enumerate(text):
        if c.isalpha():
            return text[:i] + c.upper() + text[i + 1 :]
    return text


def normalize_tokens(tokens: list[str] | tuple[str, ...]) -> str:
    """Lowercased alphabetic tokens joined by single spaces (novelty key)."""
    return " ".join(lowercase_words(tokens))


@dataclass
class GeneratedSentence:
    tokens: tuple[str, ...]
    model: int
    query: str
    source: str  # skeleton provenance (template source id or "markov")
    trace: list[dict] = field(default_factory=list)

    @property
    def text(self) -> str:
        return detokenize(self.tokens)


class FunctionWordDictionary:
    """Functional truncated tag -> surface forms attested in the corpus."""

    def __init__(self, table: dict[str, list[str]]):
        self.table = table

    def forms_for(self, tag: PosTag) -> list[str]:
        forms = self.table.get(tag.truncated)
        if not forms:
            raise TableError(f"no function-word entry for tag {tag.truncated!r}")
        return forms

    def save(self, path: str | Path) -> None:
        write_jsonl(path, (
            {"tag": tag, "words": self.table[tag]} for tag in sorted(self.table)
        ))

    @classmethod
    def load(cls, path: str | Path) -> "FunctionWordDictionary":
        table: dict[str, list[str]] = {}

        def add(obj) -> None:
            tag, words = obj["tag"], obj["words"]
            if not isinstance(tag, str) or tag in table:
                raise ValueError(f"tag {tag!r} is not a string or is repeated")
            if type(words) is not list or not all(isinstance(w, str) for w in words):
                raise ValueError("words must be a list of strings")
            if len(set(words)) < len(words):
                raise ValueError(f"a word is repeated under tag {tag!r}")
            table[tag] = words

        load_rows(read_jsonl(path), path, "bad dictionary row", add)
        return cls(table)

    @classmethod
    def from_sentences(cls, corpus: list[TaggedSentence]) -> "FunctionWordDictionary":
        counts: dict[str, dict[str, int]] = {}
        for ts in corpus:
            for surface, tag in ts.tokens:
                if is_content(tag):
                    continue
                word = surface if tag.category == "F" else surface.lower()
                entry = counts.setdefault(tag.truncated, {})
                entry[word] = entry.get(word, 0) + 1
        table = {
            tag: [w for w, _ in sorted(words.items(), key=lambda wc: (-wc[1], wc[0]))]
            for tag, words in counts.items()
        }
        return cls(table)


@dataclass
class GenerationResources:
    matrix: TransitionMatrix
    templates: TemplateStore
    store: EmbeddingStore
    ta: AssociativeTable
    funcdict: FunctionWordDictionary
    forms: FormsLexicon
    corpus_norms: frozenset[str]  # normalized corpus sentences, for novelty
    policy: DecodePolicy = DEFAULT_POLICY
    neighbors_m: int = DEFAULT_NEIGHBORS
    max_hops: int = DEFAULT_MAX_HOPS
    cap_m: int = DEFAULT_CAP_M
    invert: bool = False  # model 3 scores in the prose direction

    def is_novel(self, tokens: tuple[str, ...]) -> bool:
        return normalize_tokens(tokens) not in self.corpus_norms


def generate(
    model: int,
    q: str,
    res: GenerationResources,
    seed: int,
    skeleton: Callable[[random.Random], tuple[str, Sequence[Any]]],
    fill_slot: Callable[[int, Any, random.Random], tuple[str, dict]],
) -> GeneratedSentence:
    """Fill skeletons until the sentence is novel, at most NOVELTY_RETRIES times.

    ``skeleton(rng)`` returns the provenance and the items of one skeleton.
    ``Literal`` items are copied, every other item goes to
    ``fill_slot(position, item, rng)``, which returns the word and its trace
    record. A ``GenerationError`` from either (a dead-end walk, a relaxation
    out of hops, a slot without candidates or with degenerate scores) costs
    one attempt. Any other error ends the request: a query with no vector
    (``OovError``), a resource that lacks a tag or a template (``TableError``).
    """
    if q not in res.store:
        raise OovError(q)
    rng = random.Random(seed)

    def fill(items: Sequence[Any]) -> tuple[tuple[str, ...], list[dict]]:
        tokens, trace = [], []
        for position, item in enumerate(items):
            if isinstance(item, Literal):
                tokens.append(item.surface)
            else:
                word, record = fill_slot(position, item, rng)
                tokens.append(word)
                trace.append(record)
        return tuple(tokens), trace

    last_error: Exception | None = None
    for _attempt in range(NOVELTY_RETRIES):
        try:
            source, items = skeleton(rng)
            tokens, trace = fill(items)
        except GenerationError as e:
            last_error = e
            continue
        if res.is_novel(tokens):
            return GeneratedSentence(tokens, model, q, source, trace)
        last_error = GenerationError("generated sentence exists in corpus")
    raise GenerationError(
        f"model {model} failed after {NOVELTY_RETRIES} attempts: {last_error}"
    )
