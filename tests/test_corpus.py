import pytest
from hypothesis import given, strategies as st

from homosyntax.corpus import (
    filter_tokens,
    format_stats,
    length_filter,
    read_documents,
    read_sentences,
    segment_sentences,
    write_sentences,
)
from homosyntax.errors import ConfigError, FormatError


def _texts(sentences):
    return [" ".join(tokens) for tokens in sentences]


class TestSegmentation:
    def test_two_plain_sentences(self):
        got = segment_sentences("Llueve. El sol sale.")
        assert _texts(got) == ["Llueve .", "El sol sale ."]

    def test_abbreviation_guard(self):
        got = segment_sentences("El Sr. Ruiz habla.")
        assert len(got) == 1
        assert got[0] == ("El", "Sr", ".", "Ruiz", "habla", ".")

    def test_empty_document(self):
        assert segment_sentences("") == []

    def test_question_and_exclamation(self):
        text = "¿Quién canta? ¡La luna! El mar calla."
        assert len(segment_sentences(text)) == 3

    def test_sentences_in_document_order(self):
        got = segment_sentences("Uno llega. Dos esperan. Tres parten.")
        assert [tokens[0] for tokens in got] == ["Uno", "Dos", "Tres"]

    def test_deterministic(self):
        text = "La noche cae. El viento pasa. ¡Nadie habla!"
        assert segment_sentences(text) == segment_sentences(text)

    def test_abbrev_fixture_file(self, fixdir):
        # expected output inspected manually once: abbreviations never split
        text = (fixdir / "abbrev.txt").read_text(encoding="utf-8")
        got = _texts(segment_sentences(text))
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
        assert filter_tokens(("Cap", "3", "amanece")) == ("Cap", "amanece")

    def test_time_and_acronym(self):
        got = filter_tokens(("Son", "las", "12:30", "hrs", "ONU"))
        assert got == ("Son", "las", "hrs")

    def test_identity_when_clean(self):
        assert filter_tokens(("amor", "eterno")) == ("amor", "eterno")

    def test_date_and_decimal(self):
        assert filter_tokens(("el", "12/10/1492", "y", "3,14")) == ("el", "y")

    @given(
        st.lists(
            st.text(
                alphabet="abcDEF123:/.,", min_size=1, max_size=8
            ),
            max_size=12,
        )
    )
    def test_idempotent(self, tokens):
        once = filter_tokens(tuple(tokens))
        assert filter_tokens(once) == once


class TestLengthFilter:
    def _rec(self, n):
        return tuple(f"w{i}" for i in range(n))

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
        # each sentence starts with its own position, so no two are equal
        recs = [(f"s{i}",) + ("w",) * (n - 1) for i, n in enumerate(lengths)]
        kept = length_filter(recs)
        it = iter(recs)
        assert all(r in it for r in kept)  # subsequence, order preserved


def _stats(sentences):
    """format_stats' four lines as a dict of strings."""
    return dict(line.split(": ") for line in format_stats(sentences).splitlines())


class TestStats:
    def test_empty(self):
        assert format_stats([]) == (
            "sentences: 0\nwords: 0\nchars: 0\nmean_words_per_sentence: 0.00\n"
        )

    def test_small_arithmetic(self):
        got = _stats([("a", "b", "c"), ("a", "b", "c", "d", "e")])
        assert got == {"sentences": "2", "words": "8", "chars": "14",
                       "mean_words_per_sentence": "4.00"}

    def test_against_wordcount_oracle(self, fixdir):
        # oracle: plain line/word split of the fixture file
        lines = (fixdir / "8kf-sample.txt").read_text(encoding="utf-8").splitlines()
        words = sum(len(line.split()) for line in lines)
        got = _stats([tuple(line.split()) for line in lines])
        assert int(got["sentences"]) == len(lines)
        assert int(got["words"]) == words

    def test_totals_equal_per_sentence_sums(self, fixdir, sentences):
        # the fixture's lines are single-spaced, as write_sentences writes them
        lines = (fixdir / "sentences.txt").read_text(encoding="utf-8").splitlines()
        got = _stats(sentences)
        assert int(got["words"]) == sum(map(len, sentences))
        assert int(got["chars"]) == sum(len(line) for line in lines)


# a token holds no whitespace, which write_sentences uses to join tokens
_tokens = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda t: t.split() == [t])


@given(st.lists(st.lists(_tokens, min_size=1).map(tuple)))
def test_read_sentences_inverts_write_sentences(tmp_path_factory, sentences):
    p = tmp_path_factory.getbasetemp() / "round_trip.txt"
    write_sentences(sentences, p)
    assert read_sentences(p) == sentences


def test_non_utf8_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"caf\xe9 latin-1")
    with pytest.raises(FormatError, match="bad.txt: line 1: not valid UTF-8"):
        read_documents(tmp_path)
