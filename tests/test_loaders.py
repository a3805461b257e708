"""The line-oriented resource loaders report the file and line of a bad row."""

import pytest

from homosyntax.embeddings import AssociativeTable
from homosyntax.errors import FormatError, load_rows
from homosyntax.generation import FunctionWordDictionary
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
}

BAD_ROWS = sorted(
    (name, bad) for name, (_, _, rows) in CASES.items() for bad in rows
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_good_rows_load_and_blank_lines_are_skipped(tmp_path, name):
    load, good, _ = CASES[name]
    p = tmp_path / name
    p.write_text(f"\n{good}\n\n", encoding="utf-8")
    load(p)


@pytest.mark.parametrize("name, bad", BAD_ROWS)
def test_bad_row_names_file_and_line(tmp_path, name, bad):
    load, good, rows = CASES[name]
    p = tmp_path / name
    p.write_text(f"{good}\n\n{rows[bad]}\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 3)
    assert str(exc.value).startswith(f"{p}: line 3: ")


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
