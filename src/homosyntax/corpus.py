"""Corpus ingestion: sentence segmentation, token filtering and statistics.

Documents are plain UTF-8 text. Segmentation is rule based: a sentence ends
at one of ``. ! ? …`` followed by whitespace and an uppercase (or inverted
punctuation) opener, unless the preceding word is a known abbreviation. The
abbreviation list ships as a data file.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

from .errors import (ConfigError, ResourceError, read_lines, read_text,
                     write_lines)


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str


@dataclass(frozen=True)
class SentenceRecord:
    doc_id: str
    index: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    word_count: int
    char_count: int
    mean_words_per_sentence: float


def _load_abbreviations() -> frozenset[str]:
    text = (
        importlib_resources.files("homosyntax")
        .joinpath("data/abbreviations.txt")
        .read_text(encoding="utf-8")
    )
    abbrevs = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            abbrevs.add(line.lower())
    return frozenset(abbrevs)


ABBREVIATIONS = _load_abbreviations()

# terminator run, whitespace, then something that opens a new sentence
_BOUNDARY = re.compile(r"[.!?…]+\s+(?=[A-ZÁÉÍÓÚÑÜ¿¡«\"“(])")
_TOKEN = re.compile(r"\w+|[^\w\s]", re.UNICODE)

# undesirable tokens: numbers, decimals, times, dates, acronyms
_FILTER_PATTERNS = [
    re.compile(r"^\d+$"),
    re.compile(r"^\d+[.,]\d+$"),
    re.compile(r"^\d{1,2}:\d{2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$"),
    re.compile(r"^[A-ZÁÉÍÓÚÑÜ]{2,}$"),
]


def _is_abbreviation(text: str, dot_pos: int) -> bool:
    """True if the word ending at text[dot_pos] is a guarded abbreviation."""
    start = dot_pos
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:dot_pos].lower().lstrip("¿¡«\"“(")
    return word in ABBREVIATIONS


def segment_sentences(doc: RawDocument) -> list[SentenceRecord]:
    """Split a document into sentence records with punctuation kept as tokens."""
    text = unicodedata.normalize("NFC", doc.text)
    if not text.strip():
        return []

    pieces: list[str] = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        term_end = m.start() + len(m.group().rstrip())
        if _is_abbreviation(text, m.start()):
            continue
        pieces.append(text[start:term_end])
        start = m.end()
    pieces.append(text[start:])

    records = []
    for piece in pieces:
        tokens = tuple(_TOKEN.findall(piece))
        if tokens:
            records.append(SentenceRecord(doc.id, len(records), tokens))
    return records


def filter_tokens(s: SentenceRecord) -> SentenceRecord:
    """Drop number/acronym/time/date tokens, keeping the remaining order."""
    kept = tuple(
        t for t in s.tokens if not any(p.match(t) for p in _FILTER_PATTERNS)
    )
    return s if kept == s.tokens else SentenceRecord(s.doc_id, s.index, kept)


def length_filter(
    sentences: list[SentenceRecord], min_w: int = 4, max_w: int = 29
) -> list[SentenceRecord]:
    """Keep sentences whose token count lies in [min_w, max_w]."""
    if min_w > max_w:
        raise ConfigError(f"min_w {min_w} > max_w {max_w}")
    return [s for s in sentences if min_w <= len(s.tokens) <= max_w]


def compute_stats(sentences: list[SentenceRecord]) -> CorpusStats:
    """Counts over the sentences; chars are those of the lines
    ``write_sentences`` writes, without their newlines."""
    sentence_count = len(sentences)
    word_count = sum(len(s.tokens) for s in sentences)
    char_count = sum(len(" ".join(s.tokens)) for s in sentences)
    mean = word_count / sentence_count if sentence_count else 0.0
    return CorpusStats(sentence_count, word_count, char_count, mean)


def read_document(path: str | Path) -> RawDocument:
    path = Path(path)
    return RawDocument(path.stem, read_text(path))


def read_documents(directory: str | Path) -> list[RawDocument]:
    """Read every ``*.txt`` file in a directory, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ResourceError(f"{directory}: not a directory")
    return [read_document(p) for p in sorted(directory.glob("*.txt"))]


def write_sentences(sentences: list[SentenceRecord], path: str | Path) -> None:
    """One sentence per line, tokens space separated."""
    write_lines(path, (" ".join(s.tokens) for s in sentences))


def read_sentences(path: str | Path) -> list[SentenceRecord]:
    """Inverse of write_sentences; one document per file."""
    path = Path(path)
    records = []
    for i, line in enumerate(read_lines(path)):
        tokens = tuple(line.split())
        if tokens:
            records.append(SentenceRecord(path.stem, i, tokens))
    return records


def format_stats(stats: CorpusStats) -> str:
    return (
        f"sentences: {stats.sentence_count}\n"
        f"words: {stats.word_count}\n"
        f"chars: {stats.char_count}\n"
        f"mean_words_per_sentence: {stats.mean_words_per_sentence:.2f}\n"
    )
