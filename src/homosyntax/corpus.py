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
from functools import cache
from pathlib import Path

from .errors import (ConfigError, ResourceError, decode_text, read_lines,
                     write_lines)


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


@cache
def _abbreviations() -> frozenset[str]:
    """The guarded abbreviations, read on first use from the package data."""
    lines = read_lines(Path(__file__).parent / "data" / "abbreviations.txt")
    return frozenset(
        ln.lower() for ln in map(str.strip, lines) if ln and not ln.startswith("#")
    )

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
    return word in _abbreviations()


def segment_sentences(doc_id: str, text: str) -> list[SentenceRecord]:
    """Split a document's text into sentence records with punctuation kept as
    tokens."""
    text = unicodedata.normalize("NFC", text)
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
            records.append(SentenceRecord(doc_id, len(records), tokens))
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


def read_documents(directory: str | Path) -> list[tuple[str, str]]:
    """(file stem, text) for every ``*.txt`` file in a directory, sorted by
    name; the text is UTF-8 (``decode_text``)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ResourceError(f"{directory}: not a directory")
    return [(p.stem, decode_text(p.read_bytes(), p))
            for p in sorted(directory.glob("*.txt"))]


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
