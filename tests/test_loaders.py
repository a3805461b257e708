"""The resource loaders report the file and line of a bad row or header."""

import pytest

from homosyntax.embeddings import AssociativeTable, EmbeddingStore
from homosyntax.errors import FormatError, load_rows
from homosyntax.generation import FunctionWordDictionary
from homosyntax.markov import TransitionMatrix
from homosyntax.morphology import FormsLexicon
from homosyntax.pos import TaggerLexicon
from homosyntax.templates import TemplateStore

GOOD_TEMPLATE = (
    '{"id": "t0", "source_id": "d:0", "items": '
    '[{"t": "lit", "w": "el"}, {"t": "slot", "tag": "NCMS000", "orig": "sol"}]}'
)

# loader, a valid row, and named rows that each must fail after the valid
# one: rows that are valid JSON or TSV but bad, rows that cannot be split or
# decoded, and rows that parse but cannot be added
CASES = {
    "templates": (TemplateStore.load, GOOD_TEMPLATE, {
        "bad-row": '{"id": "t1"}',
        "unreadable-row": "{",
        "duplicate-id": GOOD_TEMPLATE,
        "empty-slot-tag": '{"id": "t1", "source_id": "d:1", "items": '
                          '[{"t": "slot", "tag": "", "orig": "luna"}]}',
        "unknown-item": '{"id": "t1", "source_id": "d:1", "items": '
                        '[{"t": "word", "w": "luna"}]}',
    }),
    "ta": (AssociativeTable.load, '{"tag": "NCMS", "words": [["sol", 2]]}', {
        "bad-row": '{"tag": "NCFS", "words": [["luna", "x"]]}',
        "unreadable-row": "[1,",
    }),
    "funcdict": (FunctionWordDictionary.load, '{"tag": "DA0M", "words": ["el"]}', {
        "bad-row": '{"words": ["la"]}',
        "unreadable-row": "}",
    }),
    "forms": (FormsLexicon.load, "sol\tsol\tNCMS000\t3", {
        "bad-row": "luna\tluna\tNCFS000\tmany",
        "unreadable-row": "luna\tluna\tNCFS000",
        "empty-tag": "luna\tluna\t\t3",
    }),
    "lexicon": (TaggerLexicon.load, "sol\tNCMS000\t1.0", {
        "bad-row": "luna\tNCFS000\theavy",
        "unreadable-row": "luna\tNCFS000",
        "empty-tag": "luna\t\t1.0",
        "non-positive-weight": "luna\tNCFS000\t0",
    }),
    "matrix": (TransitionMatrix.load, f"0 1 {2**62}", {
        "row-sum-above-int64": f"0 0 {2**62}",
    }),
}

# lines a loader reads before its rows
PREAMBLE = {"matrix": "states 2\nA\nB\n"}

BAD_ROWS = sorted(
    (name, bad) for name, (_, _, rows) in CASES.items() for bad in rows
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_good_rows_load_and_blank_lines_are_skipped(tmp_path, name):
    load, good, _ = CASES[name]
    p = tmp_path / name
    p.write_text(f"{PREAMBLE.get(name, '')}\n{good}\n\n", encoding="utf-8")
    load(p)


@pytest.mark.parametrize("name, bad", BAD_ROWS)
def test_bad_row_names_file_and_line(tmp_path, name, bad):
    load, good, rows = CASES[name]
    preamble = PREAMBLE.get(name, "")
    line = preamble.count("\n") + 3
    p = tmp_path / name
    p.write_text(f"{preamble}{good}\n\n{rows[bad]}\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), line)
    assert str(exc.value).startswith(f"{p}: line {line}: ")


def test_row_error_gets_prefix_path_and_line():
    with pytest.raises(FormatError) as exc:
        load_rows([(1, {"tag": "x"}), (3, {})], "f.jsonl", "bad row",
                  lambda obj: obj["tag"])
    assert str(exc.value) == "f.jsonl: line 3: bad row: missing field 'tag'"
    assert (exc.value.path, exc.value.line) == ("f.jsonl", 3)


def test_located_format_error_passes_unchanged():
    inner = FormatError("inner", 7, "other.tsv")

    def add(row):
        raise inner

    with pytest.raises(FormatError) as exc:
        load_rows([(3, "row")], "f.tsv", "bad row", add)
    assert exc.value is inner


# headers that no array can be shaped from, and a count no matrix can hold
HEADERS = {
    "vectors-negative-count": (EmbeddingStore.load, "-1 3\n"),
    "vectors-zero-dims": (EmbeddingStore.load, "1 0\nsol\n"),
    "vectors-negative-dims": (EmbeddingStore.load, "1 -2\nsol 1.0\n"),
    "matrix-negative-states": (TransitionMatrix.load, "states -1\nA\n"),
}


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_bad_header_names_file_and_line_1(tmp_path, name):
    load, text = HEADERS[name]
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 1)


@pytest.mark.parametrize("count", ["9223372036854775808", "99999999999999999999"])
def test_count_above_int64_is_a_row_error(tmp_path, count):
    p = tmp_path / "matrix.txt"
    p.write_text(f"states 2\nA\nB\n0 1 3\n1 0 {count}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"bad count row: count {count} above") as exc:
        TransitionMatrix.load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 5)


def test_largest_int64_count_loads(tmp_path):
    p = tmp_path / "matrix.txt"
    p.write_text("states 2\nA\nB\n0 1 9223372036854775807\n", encoding="utf-8")
    assert TransitionMatrix.load(p).counts[0, 1] == 2**63 - 1
