import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.embeddings import AssociativeTable, EmbeddingStore
from homosyntax.errors import GenerationError, OovError, TableError
from homosyntax.model2 import fill_by_rank, generate_model2, rank_vocabulary
from homosyntax.pos import PosTag
from homosyntax.templates import Slot


def _angled_store():
    """Words at known angles so the proximity ordering is hand-checkable."""
    words = ["cerca", "lejos", "medio", "q"]
    vectors = np.array(
        [
            [1.0, 0.0],  # cos with q = 1.0 -> prox 1.0
            [-1.0, 0.0],  # cos -1.0 -> prox 0.0
            [0.0, 1.0],  # cos 0.0 -> prox 0.5
            [1.0, 0.0],
        ]
    )
    return EmbeddingStore(words, vectors)


def _ta(tag, words):
    return AssociativeTable({tag: [(w, 1) for w in sorted(words)]})


class TestRank:
    def test_hand_checked_order(self):
        store = _angled_store()
        ta = _ta("NCMS", ["cerca", "lejos", "medio"])
        ranked = rank_vocabulary(PosTag("NCMS"), "q", ta, store)
        assert [w for w, _ in ranked] == ["cerca", "medio", "lejos"]
        assert [p for _, p in ranked] == pytest.approx([1.0, 0.5, 0.0])

    def test_skips_out_of_vocabulary(self):
        store = _angled_store()
        ta = _ta("NCMS", ["cerca", "fantasma"])
        ranked = rank_vocabulary(PosTag("NCMS"), "q", ta, store)
        assert [w for w, _ in ranked] == ["cerca"]

    def test_all_out_of_vocabulary(self):
        store = _angled_store()
        ta = _ta("NCMS", ["fantasma"])
        with pytest.raises(GenerationError,
                           match="^no in-vocabulary candidate for tag 'NCMS'$"):
            rank_vocabulary(PosTag("NCMS"), "q", ta, store)

    def test_unknown_tag(self):
        with pytest.raises(TableError):
            rank_vocabulary(PosTag("XXXX"), "q", _ta("NCMS", ["cerca"]),
                            _angled_store())

    def test_oov_query(self):
        with pytest.raises(OovError):
            rank_vocabulary(PosTag("NCMS"), "zzzqx", _ta("NCMS", ["cerca"]),
                            _angled_store())

    def test_ties_break_lexicographically(self):
        words = ["bb", "aa", "q"]
        vectors = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        store = EmbeddingStore(words, vectors)
        ranked = rank_vocabulary(PosTag("NCMS"), "q", _ta("NCMS", ["aa", "bb"]),
                                 store)
        assert [w for w, _ in ranked] == ["aa", "bb"]

    def test_corpus_soundness(self, resources):
        ranked = rank_vocabulary(PosTag("NCMS"), "sol", resources.ta,
                                 resources.store)
        attested = {w for w, _ in resources.ta.table["NCMS"]}
        assert all(w in attested for w, _ in ranked)


def _reference_rank(tag, q, ta, store):
    """The ranking written out word by word: filter the tag's words by
    membership in the store, then sort (word, prox) tuples by (-prox, word)."""
    iq = store.row(q)
    if tag.truncated not in ta.table:
        raise TableError(f"no associative-table entry for tag {tag.truncated!r}")
    words = [w for w, _ in ta.table[tag.truncated] if w in store]
    if not words:
        raise GenerationError(f"no in-vocabulary candidate for tag {tag.truncated!r}")
    prox = store.proximity(iq, [store.index[w] for w in words])
    ranked = list(zip(words, prox.tolist()))
    ranked.sort(key=lambda wp: (-wp[1], wp[0]))
    return ranked


def _outcome(rank, *args):
    try:
        return rank(*args)
    except (GenerationError, OovError, TableError) as e:
        return type(e), str(e)


_WORDS = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def _tied_store(draw, pool):
    """A store over part of pool with entries in {-1, 0, 1}: many vectors
    coincide or are parallel, so proximity ties are common and exact."""
    words = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    vectors = draw(st.lists(
        st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=3, max_size=3),
        min_size=len(words), max_size=len(words),
    ))
    return EmbeddingStore(words, np.array(vectors))


@st.composite
def _shared_table_cases(draw):
    pool = draw(st.lists(_WORDS, min_size=2, max_size=12, unique=True))
    tagged = draw(st.lists(st.sampled_from(pool), unique=True))
    ta = AssociativeTable(
        {"NCMS": [(w, draw(st.integers(1, 3))) for w in tagged]}
    )
    stores = [draw(_tied_store(pool)), draw(_tied_store(pool))]
    requests = draw(st.lists(
        st.tuples(
            st.sampled_from((0, 1)),
            st.sampled_from(("NCMS", "NCMS", "VMIP")),
            st.one_of(st.sampled_from(pool), st.just("zzzz")),
        ),
        min_size=1, max_size=8,
    ))
    return ta, stores, requests


# a coarse palette of directions: many words share a proximity to any query
_PALETTE = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                     [-1.0, 1.0], [-1.0, 0.0], [0.0, -3.0], [0.0, 0.0]])


@st.composite
def _sized_cases(draw):
    """One tag of n words, n from 1 to a few hundred, over two stores that
    share the table: each store holds the words in its own shuffled row
    order, with directions from the palette, and the second store misses
    some of them. In the first store, for q, the second to fifth words of
    the ranking share one direction, so the third place is tied whenever
    n >= 4."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 17, 40, 300)))
    words = [f"w{i:03d}" for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ta = AssociativeTable({"NCMS": [(w, int(c)) for w, c in
                                    zip(words, rng.integers(1, 4, n))]})
    # q points along [1, 0]: palette rows 0 and 1 are nearest, then row 2
    picks = rng.integers(2, len(_PALETTE), n)
    top = rng.permutation(n)[:5]
    picks[top[:1]] = 0  # one nearest word ...
    picks[top[1:5]] = 2  # ... then up to four tied for second to fifth
    stores = []
    for vectors, kept in ((_PALETTE[picks], words),
                          (_PALETTE[rng.integers(0, len(_PALETTE), n)],
                           [w for w in words if rng.random() < 0.7])):
        order = rng.permutation(n).tolist()
        rows = [i for i in order if words[i] in kept]
        stores.append(EmbeddingStore(
            [words[i] for i in rows] + ["q"],
            np.vstack([vectors[rows], [[3.0, 0.0]]]),
        ))
    requests = draw(st.lists(
        st.tuples(st.sampled_from((0, 1)), st.just("NCMS"),
                  st.sampled_from(["q"] + words)),
        min_size=1, max_size=4,
    ))
    return ta, stores, requests


def _reference_top3(*args):
    return tuple(_reference_rank(*args)[:3])


class TestRankOracle:
    @settings(max_examples=350, deadline=None)
    @given(st.one_of(_shared_table_cases(), _sized_cases()))
    def test_matches_word_by_word_reference(self, case):
        # one table serves two stores with different vocabularies, in any
        # order, and each (tag, q) is asked twice of each store: a memo hit
        # must repeat the first answer, and a unit block or memo entry must
        # never be another store's
        ta, stores, requests = case
        for i, tag, q in requests:
            for store in (stores[i], stores[1 - i]) * 2:
                args = (PosTag(tag), q, ta, store)
                assert _outcome(rank_vocabulary, *args) == _outcome(
                    _reference_top3, *args
                )


def _draws(words, n, seed):
    """n slot fills of ``fill_by_rank`` for q on a tag holding the words,
    which lie at falling proximity to q in the order given."""
    angles = np.linspace(0.0, 2.5, len(words))
    vectors = np.array([[1.0, 0.0], *([np.cos(a), np.sin(a)] for a in angles)])
    res = SimpleNamespace(store=EmbeddingStore(["q", *words], vectors),
                          ta=_ta("NCMS", words))
    slot, rng = Slot(PosTag("NCMS"), "o"), random.Random(seed)
    return [fill_by_rank(0, slot, "q", res, rng)[0] for _ in range(n)]


class TestChooseTop3:
    """Model 2's slot fill draws uniformly among the tag's three words
    nearest q."""

    def test_support_is_first_three(self):
        assert set(_draws(["a", "b", "c", "d"], 200, 0)) == {"a", "b", "c"}

    def test_short_list(self):
        assert set(_draws(["a", "b"], 100, 0)) == {"a", "b"}

    def test_roughly_uniform(self):
        n = 3000
        counts = Counter(_draws(["a", "b", "c"], n, 7))
        expected = n / 3
        sigma = (n * (1 / 3) * (2 / 3)) ** 0.5
        for c in counts.values():
            assert abs(c - expected) <= 4 * sigma


class TestGenerate:
    def test_length_and_literal_preservation(self, resources):
        sent = generate_model2("amor", 8, resources, seed=2)
        assert len(sent.tokens) == 8
        template = None
        for t in resources.templates.templates.values():
            if t.source_id == sent.source:
                template = t
                break
        assert template is not None
        for item, token in zip(template.items, sent.tokens):
            if not hasattr(item, "tag"):  # Literal
                assert token == item.surface

    def test_content_words_attested(self, resources):
        for seed in range(10):
            sent = generate_model2("guerra", 7, resources, seed=seed)
            for rec in sent.trace:
                attested = {w for w, _ in resources.ta.table[rec["tag"]]}
                assert rec["chosen"] in attested

    def test_chosen_within_top3(self, resources):
        for seed in range(10):
            sent = generate_model2("sol", 9, resources, seed=seed)
            for rec in sent.trace:
                # the key order the --trace file prints
                assert list(rec) == ["position", "tag", "original", "top3",
                                     "chosen"]
                assert rec["chosen"] in rec["top3"]

    def test_determinism(self, resources):
        a = generate_model2("luna", 6, resources, seed=11)
        b = generate_model2("luna", 6, resources, seed=11)
        assert a.tokens == b.tokens

    def test_novelty(self, resources):
        for seed in range(10):
            sent = generate_model2("cielo", 8, resources, seed=seed)
            assert resources.is_novel(sent.tokens)

    def test_oov_query(self, resources):
        with pytest.raises(OovError):
            generate_model2("zzzqx", 6, resources, seed=0)

    def test_golden_output(self, resources):
        # frozen from a verified run on the fixture resources
        sent = generate_model2("guerra", 8, resources, seed=7)
        assert sent.tokens == (
            "la", "guerra", "calla", "que", "las", "palabras", "espera", "."
        )
        assert sent.text == "La guerra calla que las palabras espera."
