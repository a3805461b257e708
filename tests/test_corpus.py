import pytest
from hypothesis import given, strategies as st

from homosyntax.corpus import (
    RawDocument,
    SentenceRecord,
    compute_stats,
    filter_tokens,
    length_filter,
    read_document,
    segment_sentences,
)
from homosyntax.errors import ConfigError, FormatError


def _texts(records):
    return [" ".join(r.tokens) for r in records]


class TestSegmentation:
    def test_two_plain_sentences(self):
        doc = RawDocument("d", "Llueve. El sol sale.")
        got = segment_sentences(doc)
        assert _texts(got) == ["Llueve .", "El sol sale ."]

    def test_abbreviation_guard(self):
        doc = RawDocument("d", "El Sr. Ruiz habla.")
        got = segment_sentences(doc)
        assert len(got) == 1
        assert got[0].tokens == ("El", "Sr", ".", "Ruiz", "habla", ".")

    def test_empty_document(self):
        assert segment_sentences(RawDocument("d", "")) == []

    def test_question_and_exclamation(self):
        doc = RawDocument("d", "¿Quién canta? ¡La luna! El mar calla.")
        assert len(segment_sentences(doc)) == 3

    def test_indices_strictly_increasing(self):
        doc = RawDocument("d", "Uno llega. Dos esperan. Tres parten.")
        got = segment_sentences(doc)
        assert [r.index for r in got] == [0, 1, 2]

    def test_deterministic(self):
        doc = RawDocument("d", "La noche cae. El viento pasa. ¡Nadie habla!")
        assert segment_sentences(doc) == segment_sentences(doc)

    def test_abbrev_fixture_file(self, fixdir):
        # expected output inspected manually once: abbreviations never split
        doc = read_document(fixdir / "abbrev.txt")
        got = _texts(segment_sentences(doc))
        assert got == [
            "El Sr . Ruiz habla .",
            "La Sra . Gómez escucha con atención .",
            "El Dr . Soto llegó a las doce .",
            "Nadie preguntó por el Prof . Díaz .",
            "La reunión terminó tarde .",
            "Todos volvieron a casa .",
        ]


class TestFilterTokens:
    def test_bare_number_removed(self):
        s = SentenceRecord("d", 0, ("Cap", "3", "amanece"))
        assert filter_tokens(s).tokens == ("Cap", "amanece")

    def test_time_and_acronym(self):
        s = SentenceRecord("d", 0, ("Son", "las", "12:30", "hrs", "ONU"))
        assert filter_tokens(s).tokens == ("Son", "las", "hrs")

    def test_identity_when_clean(self):
        s = SentenceRecord("d", 0, ("amor", "eterno"))
        assert filter_tokens(s) is s

    def test_date_and_decimal(self):
        s = SentenceRecord("d", 0, ("el", "12/10/1492", "y", "3,14"))
        assert filter_tokens(s).tokens == ("el", "y")

    @given(
        st.lists(
            st.text(
                alphabet="abcDEF123:/.,", min_size=1, max_size=8
            ),
            max_size=12,
        )
    )
    def test_idempotent(self, tokens):
        s = SentenceRecord("d", 0, tuple(tokens))
        once = filter_tokens(s)
        assert filter_tokens(once).tokens == once.tokens


class TestLengthFilter:
    def _rec(self, n):
        return SentenceRecord("d", 0, tuple(f"w{i}" for i in range(n)))

    def test_short_dropped(self):
        assert length_filter([self._rec(3)]) == []

    def test_long_dropped(self):
        assert length_filter([self._rec(30)]) == []

    def test_mid_kept(self):
        recs = [self._rec(15)]
        assert length_filter(recs) == recs

    def test_bounds_inclusive(self):
        assert len(length_filter([self._rec(4), self._rec(29)])) == 2

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            length_filter([], min_w=10, max_w=4)

    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=20))
    def test_subset_and_order(self, lengths):
        recs = [
            SentenceRecord("d", i, tuple("w" * 1 for _ in range(n)))
            for i, n in enumerate(lengths)
        ]
        kept = length_filter(recs)
        it = iter(recs)
        assert all(r in it for r in kept)  # subsequence, order preserved


class TestStats:
    def test_empty(self):
        got = compute_stats([])
        assert (got.sentence_count, got.word_count, got.char_count) == (0, 0, 0)
        assert got.mean_words_per_sentence == 0

    def test_small_arithmetic(self):
        recs = [
            SentenceRecord("d", 0, ("a", "b", "c")),
            SentenceRecord("d", 1, ("a", "b", "c", "d", "e")),
        ]
        got = compute_stats(recs)
        assert got.sentence_count == 2
        assert got.word_count == 8
        assert got.char_count == 14
        assert got.mean_words_per_sentence == 4

    def test_against_wordcount_oracle(self, fixdir):
        # oracle: plain line/word split of the fixture file
        lines = (fixdir / "8kf-sample.txt").read_text(encoding="utf-8").splitlines()
        words = sum(len(line.split()) for line in lines)
        recs = [
            SentenceRecord("8kf", i, tuple(line.split()))
            for i, line in enumerate(lines)
        ]
        got = compute_stats(recs)
        assert got.sentence_count == len(lines)
        assert got.word_count == words

    def test_totals_equal_per_sentence_sums(self, fixdir, sentences):
        # the fixture's lines are single-spaced, as write_sentences writes them
        lines = (fixdir / "sentences.txt").read_text(encoding="utf-8").splitlines()
        got = compute_stats(sentences)
        assert got.word_count == sum(len(s.tokens) for s in sentences)
        assert got.char_count == sum(len(line) for line in lines)


def test_non_utf8_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"caf\xe9 latin-1")
    with pytest.raises(FormatError, match="bad.txt: line 1: not valid UTF-8"):
        read_document(p)
