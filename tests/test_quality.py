"""The metric functions of scripts/quality.py, on hand-built sentences and
tags. The grid itself runs outside the test suite."""

import hashlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "quality.py"
_SPEC = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)


def _sentence(tokens, trace):
    return SimpleNamespace(tokens=tuple(tokens), trace=trace, text=" ".join(tokens))


def _slot(tag, word, kind=None):
    record = {"tag": tag, "chosen": word}
    if kind is not None:
        record["kind"] = kind
    return record


@pytest.mark.parametrize("trailer", ["", "\n"])
def test_end_tags_are_the_last_tags_of_the_tagged_sentences(tmp_path, trailer):
    (tmp_path / "tagged.tsv").write_text(
        "El\tDA0MS0\nsol\tNCMS000\n.\tFp\n\n"
        "La\tDA0FS0\nluna\tNCFS000\n\n\n"
        "Arde\tVMIP3S0\n" + trailer,
        encoding="utf-8",
    )
    assert quality.end_tags(tmp_path) == {"Fp", "NCFS", "VMIP"}


def test_vocabulary_is_the_words_of_vectors_txt_in_file_order(tmp_path):
    (tmp_path / "vectors.txt").write_text("2 2\nsol 1.0 0.0\nluna 0.0 1.0\n",
                                          encoding="utf-8")
    assert quality.vocabulary(tmp_path) == ["sol", "luna"]


def test_grid_draws_queries_and_lengths_and_numbers_the_seeds():
    requests = quality.grid(["sol", "luna", "mar"])
    assert requests == quality.grid(["sol", "luna", "mar"])
    assert len(requests) == quality.REQUESTS
    assert [seed for _, _, seed in requests] == list(range(quality.REQUESTS))
    assert {q for q, _, _ in requests} == {"sol", "luna", "mar"}
    assert {n for _, n, _ in requests} == set(range(5, 13))


def test_repeats_count_content_slots_only():
    functional = [_slot("DA0M", "el", "functional"), _slot("NCMS", "sol", "content"),
                  _slot("DA0M", "el", "functional"), _slot("NCMS", "mar", "content")]
    assert not quality.repeats_content_word(functional)
    content = [_slot("NCMS", "Sol", "content"), _slot("NCMP", "sol", "content")]
    assert quality.repeats_content_word(content)
    # a template model's records carry no kind: each one is a content slot
    assert quality.repeats_content_word([_slot("NCMS", "sol"), _slot("AQ0M", "sol")])
    assert not quality.repeats_content_word([_slot("NCMS", "sol"), _slot("AQ0M", "frío")])


def test_distinct_2_is_distinct_lowercased_bigrams_over_all():
    assert quality.distinct_2([("a", "b", "a", "b")]) == pytest.approx(2 / 3)
    assert quality.distinct_2([("A", "b"), ("a", "B"), ("b", "a")]) == pytest.approx(2 / 3)
    assert quality.distinct_2([("solo",)]) == 0.0
    assert quality.distinct_2([]) == 0.0


def test_report_of_model_1():
    ends = {"Fp", "NCFS"}
    ok = _sentence(["El", "sol", "."], [_slot("DA0M", "El", "functional"),
                                        _slot("NCMS", "sol", "content"),
                                        _slot("Fp", ".", "functional")])
    open_end = _sentence(["el", "sol", "el", "sol"],
                         [_slot("DA0M", "el", "functional"), _slot("NCMS", "sol", "content"),
                          _slot("DA0M", "el", "functional"), _slot("NCMS", "sol", "content")])
    outcomes = [ok, "no fill", open_end, "no fill", "no walk"]
    got = quality.report(1, outcomes, ends)
    lines = "El sol .\nno fill\nel sol el sol\nno fill\nno walk"
    assert got == {
        "requests": 5,
        "sentences": 2,
        "failed": 3,
        "failures": {"no fill": 2, "no walk": 1},
        "repeats": 1,
        "distinct_2": round(3 / 5, 4),
        "sha256": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
        "end_tags": 1,
        "end_tag_share": 0.5,
    }


def test_report_of_a_template_model_has_no_end_tags():
    sentence = _sentence(["La", "luna", "."], [_slot("NCFS", "luna")])
    got = quality.report(2, [sentence], {"Fp"})
    assert "end_tags" not in got
    assert (got["sentences"], got["failed"], got["repeats"]) == (1, 0, 0)
