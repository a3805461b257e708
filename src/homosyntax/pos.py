"""POS tags, tag truncation/classification and a pluggable tagger.

Tags follow the EAGLES-style inventory (N/V/A/D/P/C/S/F/Z/W/R/I first
character). Only the first four positions of a full tag are load-bearing;
everything downstream works on the truncated form, and ``truncate`` is the
one place that says so.

Two tagger backends are provided: a deterministic lexicon+suffix tagger for
hermetic use, and a reader for pre-tagged TSV produced by any external tool.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, load_rows, read_lines, read_tsv, write_lines


@dataclass(frozen=True)
class PosTag:
    """A full tag; ``truncated`` and ``category`` are worked out once, when
    it is made, and kept outside the fields, which alone decide equality,
    hashing and repr."""

    full: str

    def __post_init__(self):
        if not self.full:
            raise ValueError("empty POS tag")
        if self.full.split() != [self.full]:
            raise ValueError(f"tag {self.full!r} holds whitespace")
        object.__setattr__(self, "truncated", truncate(self.full))
        object.__setattr__(self, "category", self.full[0])


# The one PosTag of each tag string. A process-wide cache is fine here: a tag
# is tiny and shared by value, and a tag inventory is small and closed.
tag_of = functools.cache(PosTag)


def truncate(full: str) -> str:
    """The load-bearing positions of a full tag: its first four."""
    return full[:4]


_CONTENT = frozenset("VNA")  # verbs, nouns and adjectives; the rest is functional


def is_content(tag: PosTag) -> bool:
    return tag.category in _CONTENT


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[tuple[str, PosTag], ...]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.tokens)


# Fallback suffix rules, tried in order (longest suffix first).
SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("mente", "RG"),
    ("ciones", "NCFP000"),
    ("ción", "NCFS000"),
    ("idades", "NCFP000"),
    ("idad", "NCFS000"),
    ("aban", "VMII3P0"),
    ("aba", "VMII3S0"),
    ("aron", "VMIS3P0"),
    ("ando", "VMG0000"),
    ("iendo", "VMG0000"),
    ("ar", "VMN0000"),
    ("er", "VMN0000"),
    ("ir", "VMN0000"),
    ("osos", "AQ0MP00"),
    ("osas", "AQ0FP00"),
    ("oso", "AQ0MS00"),
    ("osa", "AQ0FS00"),
    ("es", "NCMP000"),
    ("os", "NCMP000"),
    ("as", "NCFP000"),
    ("a", "NCFS000"),
    ("o", "NCMS000"),
    ("e", "NCMS000"),
)


class TaggerLexicon:
    """surface -> weighted full tags, with SUFFIX_RULES as fallback."""

    def __init__(self):
        self.entries: dict[str, list[tuple[str, float]]] = {}

    def add(self, surface: str, full: str, weight: float) -> None:
        """Record one weighted full tag for a surface form."""
        full = tag_of(full).full  # ValueError for an empty tag or one with whitespace
        if weight <= 0:
            raise FormatError(f"non-positive weight for {surface!r}")
        if not math.isfinite(weight):
            raise FormatError(f"non-finite weight for {surface!r}")
        self.entries.setdefault(surface, []).append((full, weight))

    @classmethod
    def load(cls, path: str | Path) -> "TaggerLexicon":
        """Read ``surface<TAB>fulltag<TAB>weight`` lines."""
        lex = cls()
        rows = read_tsv(path, 3)
        load_rows(rows, path, "bad lexicon row", lambda r: lex.add(*r[:2], float(r[2])))
        return lex

    def best_tag(self, surface: str) -> str | None:
        candidates = self.entries.get(surface) or self.entries.get(surface.lower())
        if candidates:
            # highest weight wins; ties break lexicographically by full tag
            return min(candidates, key=lambda c: (-c[1], c[0]))[0]
        low = surface.lower()
        for suffix, full in SUFFIX_RULES:
            if len(low) > len(suffix) and low.endswith(suffix):
                return full
        return None


def tag_sentence(tokens: tuple[str, ...], lex: TaggerLexicon) -> TaggedSentence:
    """Assign exactly one tag per token; total by construction."""
    tagged = []
    for surface in tokens:
        full = lex.best_tag(surface)
        if full is None:
            full = "NCMS000" if surface[:1].isupper() else "NC0000"
        tagged.append((surface, tag_of(full)))
    return TaggedSentence(tuple(tagged))


def count_words(corpus: list[TaggedSentence]) -> dict[str, dict[str, int]]:
    """Truncated tag -> word -> occurrences in a tagged corpus, tags and words
    in order of first use. Punctuation (category F) is counted as written,
    every other word lowercased."""
    counts: dict[str, dict[str, int]] = {}
    for ts in corpus:
        for surface, tag in ts.tokens:
            word = surface if tag.category == "F" else surface.lower()
            entry = counts.setdefault(tag.truncated, {})
            entry[word] = entry.get(word, 0) + 1
    return counts


def write_tagged_tsv(sentences: list[TaggedSentence], path: str | Path) -> None:
    """One ``surface<TAB>fulltag`` line per token, blank line between sentences."""
    lines: list[str] = []
    for i, ts in enumerate(sentences):
        if i:
            lines.append("")
        lines += [f"{surface}\t{tag.full}" for surface, tag in ts.tokens]
    write_lines(path, lines)


def read_tagged_tsv(path: str | Path) -> list[TaggedSentence]:
    sentences: list[TaggedSentence] = []
    current: list[tuple[str, PosTag]] = []

    def flush():
        if current:
            sentences.append(TaggedSentence(tuple(current)))
            current.clear()

    for i, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError("expected 'surface<TAB>fulltag'", i, path)
        if parts[1].split() != [parts[1]]:
            raise FormatError(f"tag {parts[1]!r} holds whitespace", i, path)
        current.append((parts[0], tag_of(parts[1])))
    flush()
    return sentences
