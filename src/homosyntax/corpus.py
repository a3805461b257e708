"""Corpus ingestion: sentence segmentation, token filtering and statistics.

Documents are plain UTF-8 text. Segmentation is rule based: a sentence ends
at one of ``. ! ? …`` followed by whitespace and an uppercase (or inverted
punctuation) opener, unless the preceding word is a known abbreviation. The
abbreviation list ships as a data file.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache
from pathlib import Path

from .errors import (ConfigError, ResourceError, decode_text, read_lines,
                     write_lines)


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


def segment_sentences(text: str) -> list[tuple[str, ...]]:
    """Split a document's text into the token tuples of its sentences, with
    punctuation kept as tokens."""
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

    return [tokens for piece in pieces if (tokens := tuple(_TOKEN.findall(piece)))]


def filter_tokens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Drop number/acronym/time/date tokens, keeping the remaining order."""
    return tuple(
        t for t in tokens if not any(p.match(t) for p in _FILTER_PATTERNS)
    )


def length_filter(
    sentences: list[tuple[str, ...]], min_w: int = 4, max_w: int = 29
) -> list[tuple[str, ...]]:
    """Keep sentences whose token count lies in [min_w, max_w]."""
    if min_w > max_w:
        raise ConfigError(f"min_w {min_w} > max_w {max_w}")
    return [s for s in sentences if min_w <= len(s) <= max_w]


def read_documents(directory: str | Path) -> list[str]:
    """The text of every ``*.txt`` file in a directory, sorted by file name;
    the text is UTF-8 (``decode_text``)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ResourceError(f"{directory}: not a directory")
    return [decode_text(p.read_bytes(), p)
            for p in sorted(directory.glob("*.txt"))]


def write_sentences(sentences: list[tuple[str, ...]], path: str | Path) -> None:
    """One sentence per line, tokens space separated."""
    write_lines(path, (" ".join(s) for s in sentences))


def read_sentences(path: str | Path) -> list[tuple[str, ...]]:
    """Inverse of write_sentences: the token tuple of each non-blank line."""
    return [tuple(line.split()) for line in read_lines(path) if line.strip()]


def format_stats(sentences: list[tuple[str, ...]]) -> str:
    """Counts over the sentences; chars are those of the lines
    ``write_sentences`` writes, without their newlines."""
    words = sum(map(len, sentences))
    mean = words / len(sentences) if sentences else 0.0
    return (
        f"sentences: {len(sentences)}\n"
        f"words: {words}\n"
        f"chars: {sum(len(' '.join(s)) for s in sentences)}\n"
        f"mean_words_per_sentence: {mean:.2f}\n"
    )
