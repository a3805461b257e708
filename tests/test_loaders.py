"""The resource loaders report the file and line of a bad row or header."""

import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.corpus import read_sentences
from homosyntax.embeddings import AssociativeTable, EmbeddingStore
from homosyntax.errors import FormatError, load_rows, read_lines
from homosyntax.generation import FunctionWordDictionary
from homosyntax.markov import TransitionMatrix
from homosyntax.morphology import FormsLexicon
from homosyntax.pos import TaggerLexicon, read_tagged_tsv
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
        "non-string-slot-tag": '{"id": "t1", "source_id": "d:1", "items": '
                               '[{"t": "slot", "tag": 1.5, "orig": "luna"}]}',
        "non-string-literal": '{"id": "t1", "source_id": "d:1", "items": '
                              '[{"t": "lit", "w": null}]}',
        "no-slot": '{"id": "t1", "source_id": "d:1", "items": '
                   '[{"t": "lit", "w": "el"}, {"t": "lit", "w": "."}]}',
        "slot-tag-with-whitespace": '{"id": "t1", "source_id": "d:1", "items": '
                                    '[{"t": "slot", "tag": "NC MS000", "orig": "sol"}]}',
    }),
    "ta": (AssociativeTable.load, '{"tag": "NCMS", "words": [["sol", 2]]}', {
        "bad-row": '{"tag": "NCFS", "words": [["luna", "x"]]}',
        "unreadable-row": "[1,",
        "repeated-tag": '{"tag": "NCMS", "words": [["mar", 1]]}',
        "non-string-tag": '{"tag": 7, "words": [["luna", 1]]}',
        "fractional-count": '{"tag": "NCFS", "words": [["luna", 1.5]]}',
        "string-count": '{"tag": "NCFS", "words": [["luna", "3"]]}',
        "boolean-count": '{"tag": "NCFS", "words": [["luna", true]]}',
        "negative-count": '{"tag": "NCFS", "words": [["luna", -1]]}',
        "non-string-word": '{"tag": "NCFS", "words": [[3, 1]]}',
        "repeated-word": '{"tag": "NCFS", "words": [["luna", 2], ["luna", 1]]}',
    }),
    "funcdict": (FunctionWordDictionary.load, '{"tag": "DA0M", "words": ["el"]}', {
        "bad-row": '{"words": ["la"]}',
        "unreadable-row": "}",
        "repeated-tag": '{"tag": "DA0M", "words": ["los"]}',
        "non-string-tag": '{"tag": null, "words": ["la"]}',
        "non-string-word": '{"tag": "DA0F", "words": ["la", 1]}',
        "words-not-a-list": '{"tag": "DA0F", "words": "la"}',
        "repeated-word": '{"tag": "DA0F", "words": ["la", "una", "la"]}',
    }),
    "forms": (FormsLexicon.load, "sol\tsol\tNCMS000\t3", {
        "bad-row": "luna\tluna\tNCFS000\tmany",
        "unreadable-row": "luna\tluna\tNCFS000",
        "empty-tag": "luna\tluna\t\t3",
        "negative-freq": "luna\tluna\tNCFS000\t-7",
        "tag-with-whitespace": "sol\tsol\tNC MS000\t1",
    }),
    "lexicon": (TaggerLexicon.load, "sol\tNCMS000\t1.0", {
        "bad-row": "luna\tNCFS000\theavy",
        "unreadable-row": "luna\tNCFS000",
        "empty-tag": "luna\t\t1.0",
        "non-positive-weight": "luna\tNCFS000\t0",
        "nan-weight": "luna\tNCFS000\tnan",
        "infinite-weight": "luna\tNCFS000\tinf",
        "tag-with-whitespace": "sol\tNC MS000\t1.0",
    }),
    "matrix": (TransitionMatrix.load, f"1 2 {2**62}", {
        "row-sum-above-int64": f"1 1 {2**62}",
        "repeated-cell": "1 2 5",
        "count-into-start": "1 0 1",
        "count-out-of-end": "3 1 1",
        "state-index-out-of-range": "1 4 1",
        "negative-state-index": "-2 1 1",
    }),
    "matrix-states": (TransitionMatrix.load, "B", {
        "empty-state": "",
        "state-with-whitespace": "0 5 205",
        "repeated-state": "A",
    }),
}

# lines a loader reads before its rows, given how many rows follow: the
# header of a state list counts its lines
PREAMBLE = {
    "matrix": lambda rows: "states 4\n<s>\nA\nB\n</s>\n",
    "matrix-states": lambda rows: f"states {rows + 1}\nA\n",
}
# what stands between two rows: a blank line, which every loader skips,
# except between state lines, where it would be an empty state
GAP = {"matrix-states": ""}


def _preamble(name, rows):
    return PREAMBLE.get(name, lambda rows: "")(rows)

BAD_ROWS = sorted(
    (name, bad) for name, (_, _, rows) in CASES.items() for bad in rows
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_good_rows_load_and_blank_lines_are_skipped(tmp_path, name):
    load, good, _ = CASES[name]
    gap = GAP.get(name, "\n")
    p = tmp_path / name
    p.write_text(f"{_preamble(name, 1)}{gap}{good}\n{gap}", encoding="utf-8")
    load(p)


@pytest.mark.parametrize("name, bad", BAD_ROWS)
def test_bad_row_names_file_and_line(tmp_path, name, bad):
    load, good, rows = CASES[name]
    gap = GAP.get(name, "\n")
    before = f"{_preamble(name, 2)}{good}\n{gap}"
    line = before.count("\n") + 1
    p = tmp_path / name
    p.write_text(f"{before}{rows[bad]}\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), line)
    assert str(exc.value).startswith(f"{p}: line {line}: ")


# every text-file reader, with a valid file that it reads
READERS = {
    **{name: (load, f"{_preamble(name, 1)}{good}\n")
       for name, (load, good, _) in CASES.items()},
    "vectors": (EmbeddingStore.load, "1 2\nsol 1.0 2.0\n"),
    "sentences": (read_sentences, "El sol brilla .\nLa luna canta .\n"),
    "tagged": (read_tagged_tsv, "El\tDA0MS0\nsol\tNCMS000\n\nLa\tDA0FS0\n"),
}


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("where", ["start", "end"])
def test_byte_not_utf8_names_file_and_line(tmp_path, name, where):
    load, text = READERS[name]
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    load(p)
    # 0xff never occurs in UTF-8; put it at the start or end of the last line
    data = text.encode("utf-8")
    cut = data.rfind(b"\n", 0, -1) + 1 if where == "start" else len(data) - 1
    p.write_bytes(data[:cut] + b"\xff" + data[cut:])
    with pytest.raises(FormatError, match="not valid UTF-8") as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), text.count("\n"))


@settings(max_examples=200)
@given(text=st.text(), cut=st.integers(min_value=0))
def test_read_lines_reads_as_text_mode_and_finds_the_bad_line(
    tmp_path_factory, text, cut
):
    p = tmp_path_factory.getbasetemp() / "lines.txt"
    p.write_bytes(text.encode("utf-8"))
    assert read_lines(p) == p.read_text(encoding="utf-8").splitlines()
    # a 0xff byte between two characters: text mode, told to replace what it
    # cannot decode, shows the line that holds it
    cut %= len(text) + 1
    p.write_bytes(text[:cut].encode("utf-8") + b"\xff" + text[cut:].encode("utf-8"))
    shown = p.read_text(encoding="utf-8", errors="replace").splitlines()
    line = next(i for i, ln in enumerate(shown, 1) if "\ufffd" in ln)
    with pytest.raises(FormatError) as exc:
        read_lines(p)
    if "\ufffd" not in text[:cut]:
        assert exc.value.line == line


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


# headers a loader refuses at line 1: missing, empty, unreadable, or
# naming a shape no array can take or a count no matrix can hold
HEADERS = {
    "vectors-negative-count": (EmbeddingStore.load, "-1 3\n",
                               "bad header '-1 3': need vocab_count >= 0, dims >= 1"),
    "vectors-zero-dims": (EmbeddingStore.load, "1 0\nsol\n",
                          "bad header '1 0': need vocab_count >= 0, dims >= 1"),
    "vectors-negative-dims": (EmbeddingStore.load, "1 -2\nsol 1.0\n",
                              "bad header '1 -2': need vocab_count >= 0, dims >= 1"),
    "vectors-empty": (EmbeddingStore.load, "", "empty embedding file"),
    "vectors-non-integer-header": (EmbeddingStore.load, "1 2.0\nsol 1.0 2.0\n",
                                   "non-integer header"),
    "matrix-negative-states": (TransitionMatrix.load, "states -1\nA\n",
                               "negative state count -1"),
    "matrix-empty": (TransitionMatrix.load, "", "missing 'states <n>' header"),
    "matrix-missing-states-header": (TransitionMatrix.load, "4\n<s>\nA\nB\n</s>\n",
                                     "missing 'states <n>' header"),
    "matrix-bad-state-count": (TransitionMatrix.load, "states four\n<s>\n</s>\n",
                               "bad state count"),
    "matrix-no-state-count": (TransitionMatrix.load, "states \n<s>\n</s>\n",
                              "bad state count"),
}


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_bad_header_names_file_and_line_1(tmp_path, name):
    load, text, message = HEADERS[name]
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 1)
    assert str(exc.value) == f"{p}: line 1: {message}"


def test_too_few_state_lines_names_the_file(tmp_path):
    # the state lines run out: line 1 declared the count they fall short of
    p = tmp_path / "matrix.txt"
    p.write_text("states 4\n<s>\nA\n", encoding="utf-8")
    with pytest.raises(FormatError, match="expected 4 state lines$") as exc:
        TransitionMatrix.load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 1)
    assert str(exc.value) == f"{p}: line 1: expected 4 state lines"


def test_too_few_vector_rows_names_line_1(tmp_path):
    # as for the matrix: the header at line 1 declared three rows
    p = tmp_path / "vectors.txt"
    p.write_text("3 2\nsol 1.0 2.0\nluna 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        EmbeddingStore.load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 1)
    assert str(exc.value) == f"{p}: line 1: expected 3 vector rows"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, line", [
    ("2 100000000000000000000\nsol 1.0 2.0\nluna 3.0 4.0\n", 2),
    ("2 4611686018427387904\nsol 1.0 2.0\nluna 3.0 4.0\n", 2),
    ("0 100000000000000000000\n", 1),
    ("1 100000000\nsol 1.0\n", 2),
], ids=["dims-past-int64", "dims-past-any-array", "no-row-to-show-the-width",
        "dims-wider-than-the-row"])
def test_dims_too_wide_to_allocate_is_a_format_error(tmp_path, text, line):
    p = tmp_path / "vectors.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        EmbeddingStore.load(p)
    assert (exc.value.path, exc.value.line) == (str(p), line)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ["luna 1e200 1e200", "luna -1e155 1e155",
                                 "luna 1_0 1e200"],
                         ids=["large-components", "components-that-cancel",
                              "underscore-component"])
def test_row_whose_norm_overflows_is_an_error_at_its_line(tmp_path, row):
    p = tmp_path / "vectors.txt"
    p.write_text(f"3 2\nsol 1.0 2.0\n{row}\nmar 1e150 1e150\n", encoding="utf-8")
    with pytest.raises(FormatError, match="non-finite vector component or norm"
                       ) as exc:
        EmbeddingStore.load(p)
    assert (exc.value.path, exc.value.line) == (str(p), 3)


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
