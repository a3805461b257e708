"""The line-oriented resource loaders report the file and line of a bad row."""

import pytest

from homosyntax.embeddings import AssociativeTable
from homosyntax.errors import FormatError
from homosyntax.generation import FunctionWordDictionary
from homosyntax.morphology import FormsLexicon
from homosyntax.pos import TaggerLexicon
from homosyntax.templates import TemplateStore

GOOD_TEMPLATE = (
    '{"id": "t0", "source_id": "d:0", "items": '
    '[{"t": "lit", "w": "el"}, {"t": "slot", "tag": "NCMS000", "orig": "sol"}]}'
)

# loader, a valid row, a row that is valid JSON or TSV but a bad row, a row
# that cannot be split or decoded
CASES = {
    "templates": (TemplateStore.load, GOOD_TEMPLATE, '{"id": "t1"}', "{"),
    "ta": (AssociativeTable.load, '{"tag": "NCMS", "words": [["sol", 2]]}',
           '{"tag": "NCFS", "words": [["luna", "x"]]}', "[1,"),
    "funcdict": (FunctionWordDictionary.load, '{"tag": "DA0M", "words": ["el"]}',
                 '{"words": ["la"]}', "}"),
    "forms": (FormsLexicon.load, "sol\tsol\tNCMS000\t3",
              "luna\tluna\tNCFS000\tmany", "luna\tluna\tNCFS000"),
    "lexicon": (TaggerLexicon.load, "sol\tNCMS000\t1.0",
                "luna\tNCFS000\theavy", "luna\tNCFS000"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_good_rows_load_and_blank_lines_are_skipped(tmp_path, name):
    load, good, _, _ = CASES[name]
    p = tmp_path / name
    p.write_text(f"\n{good}\n\n", encoding="utf-8")
    load(p)


@pytest.mark.parametrize("bad", [2, 3], ids=["bad-row", "unreadable-row"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_row_names_file_and_line(tmp_path, name, bad):
    load, good, *rows = CASES[name]
    p = tmp_path / name
    p.write_text(f"{good}\n\n{rows[bad - 2]}\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 3)
    assert str(exc.value).startswith(f"{p}: line 3: ")
