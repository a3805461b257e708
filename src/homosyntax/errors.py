"""Exception hierarchy, and the text-file readers and writers that every
resource file goes through."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class HomosyntaxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HomosyntaxError):
    """Invalid configuration or parameter combination."""


class BuildError(HomosyntaxError):
    """Input a builder refuses: an empty tagged corpus for ``build``, too few
    sentences or too small a vocabulary for ``train_embeddings``."""


class GenerationError(HomosyntaxError):
    """An attempt or a request could not be completed (e.g. a slot without
    candidates, a relaxation out of hops, retries exhausted)."""


class FormatError(HomosyntaxError):
    """A malformed or undecodable file, resource or input alike."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = None if path is None else str(path)


def decode_text(data: bytes, path: str | Path) -> str:
    """``data`` read from ``path`` as UTF-8; a byte that is not UTF-8 is a
    FormatError at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len(data[: e.start + 1].decode("utf-8", "replace").splitlines())
        raise FormatError(f"not valid UTF-8: {e.reason}", line, path) from e


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file (``decode_text``), without line ends."""
    return decode_text(Path(path).read_bytes(), path).splitlines()


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write a UTF-8 text file, each line ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def write_jsonl(path: str | Path, objects: Iterable[Any]) -> None:
    """One JSON object per line, non-ASCII characters kept as they are."""
    write_lines(path, (json.dumps(obj, ensure_ascii=False) for obj in objects))


def _rows(path: str | Path) -> Iterator[tuple[int, str]]:
    return ((i, ln) for i, ln in enumerate(read_lines(path), start=1) if ln.strip())


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, decoded object) for each non-blank line."""
    for lineno, line in _rows(path):
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e}", lineno, path) from e


def read_tsv(path: str | Path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank line of ``fields`` columns."""
    for lineno, line in _rows(path):
        parts = line.split("\t")
        if len(parts) != fields:
            raise FormatError(
                f"expected {fields} tab-separated fields", lineno, path
            )
        yield lineno, parts


def load_rows(
    rows: Iterable[tuple[int, Any]], path: str | Path, prefix: str, add: Callable
) -> None:
    """Call ``add(row)`` for each ``(line number, row)`` of a resource file.

    An error raised while a row is parsed or added becomes a FormatError
    ``<prefix>: <error>`` at its line; one that names its line passes as is.
    """
    for lineno, row in rows:
        try:
            add(row)
        except (KeyError, TypeError, ValueError, HomosyntaxError) as e:
            if isinstance(e, FormatError) and e.line is not None:
                raise
            detail = f"missing field {e}" if isinstance(e, KeyError) else e
            raise FormatError(f"{prefix}: {detail}", lineno, path) from e


class OovError(HomosyntaxError):
    """Word not present in the embedding vocabulary."""

    def __init__(self, word):
        super().__init__(f"out-of-vocabulary word: {word!r}")


class TableError(HomosyntaxError):
    """A loaded resource lacks what a request needs: a tag missing from the
    associative table or the function-word dictionary, an empty template
    store, or a length no walk of the matrix ends a sentence at."""


class ResourceError(HomosyntaxError):
    """A required resource file is missing or unreadable."""
