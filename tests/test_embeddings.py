import hashlib
import itertools
import math
import os
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homosyntax import embeddings
from homosyntax.corpus import SentenceRecord
from homosyntax.embeddings import (
    AssociativeTable,
    EmbeddingStore,
    _proximity,
    build_associative_table,
    lowercase_words,
    top_k,
    train_embeddings,
)
from homosyntax.errors import BuildError, FormatError, OovError, TableError
from homosyntax.pos import PosTag, TaggedSentence

from conftest import EMB_PARAMS


def _toy_store():
    words = ["este", "norte", "sur"]
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return EmbeddingStore(words, vectors)


def _prox(store, a, b):
    """Proximity of two words, through their store rows."""
    return store.proximity(store.row(a), store.row(b))


def _words(store, rows):
    """The words of an array of store rows, in order."""
    return tuple(store.words[i] for i in rows)


class TestProximity:
    def test_identical(self):
        s = _toy_store()
        assert _prox(s, "norte", "norte") == pytest.approx(1.0)

    def test_opposite(self):
        s = _toy_store()
        assert _prox(s, "norte", "sur") == pytest.approx(0.0)

    def test_orthogonal(self):
        s = _toy_store()
        assert _prox(s, "este", "norte") == pytest.approx(0.5)

    def test_symmetry(self, store):
        for a in range(5):
            for b in range(20):
                assert abs(store.proximity(a, b) - store.proximity(b, a)) <= 1e-12

    def test_oov(self):
        s = _toy_store()
        assert s.row("sur") == 2
        with pytest.raises(OovError):
            s.row("oeste")


def _dot_reference(store, a, b):
    """One-pair np.dot on the store's unit rows, clipped like the contract."""
    cos = float(np.dot(store._unit[a], store._unit[b]))
    return min(1.0, max(0.0, (cos + 1.0) / 2.0))


class TestBatchedProximity:
    def test_two_words_give_a_float(self, store):
        assert type(store.proximity(0, 1)) is float

    def test_word_against_array_is_exact(self, store):
        rng = random.Random(2)
        v = len(store)
        for _ in range(20):
            a = rng.randrange(v)
            rows = [rng.randrange(v) for _ in range(30)]
            got = store.proximity(a, rows)
            assert got.shape == (30,)
            assert got.tolist() == [_dot_reference(store, a, b) for b in rows]

    def test_broadcast_rows_are_exact(self, store):
        rng = random.Random(3)
        v = len(store)
        anchors = np.array([rng.randrange(v) for _ in range(8)])
        u = np.array([[rng.randrange(v) for _ in range(30)] for _ in range(8)])
        got = store.proximity(anchors[:, None], u)
        assert got.shape == (8, 30)
        expected = [
            [_dot_reference(store, a, b) for b in row] for a, row in zip(anchors, u)
        ]
        assert got.tolist() == expected

    def test_block_gives_the_one_pair_values(self, store):
        # model 2 ranks a tag's words against a unit block made once from
        # their rows: each value is the one-pair proximity, bit for bit
        rng = random.Random(4)
        v = len(store)
        for n in (1, 2, 3, 17, 150, 300):
            rows = [rng.randrange(v) for _ in range(n)]
            block = store.unit_block(rows)
            assert not block.flags.writeable
            for a in (rows[0], rng.randrange(v)):
                got = store.block_proximity(a, block).tolist()
                assert got == store.proximity(a, rows).tolist()
                assert got == [_dot_reference(store, a, b) for b in rows]

    def test_array_values_in_unit_interval(self, store):
        w = store.words
        u = np.concatenate([store.neighbors(a, 10) for a in w[:3]])
        x = store.proximity(0, u)
        assert x.shape == (30,)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        rows = np.arange(len(w))
        everything = store.proximity(rows[:, None], rows)
        assert everything.shape == (len(w), len(w))
        assert np.all(everything >= 0.0) and np.all(everything <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=20))
    def test_formula_gives_np_clips_bits(self, cosines):
        # cosines a rounding pushes past [-1, 1], and values no dot product
        # of unit rows gives, as arrays and as the scalars of one pair
        cos = np.array([*cosines, 0.0, -0.0, math.inf, -math.inf, math.nan,
                        -math.nan, 1.0 + 2**-52, -1.0 - 2**-52])
        want = np.clip((cos + 1.0) / 2.0, 0.0, 1.0)
        assert _proximity(cos).tobytes() == want.tobytes()
        for c in cos:
            got, want = _proximity(c), np.clip((c + 1.0) / 2.0, 0.0, 1.0)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()


def _brute_force_neighbors(store, q, m):
    """Independent oracle: pure-python scan with math.cos formula."""
    qv = store.vectors[store.index[q]]

    def prox(w):
        v = store.vectors[store.index[w]]
        dot = sum(x * y for x, y in zip(qv, v))
        cos = dot / (math.sqrt(sum(x * x for x in qv)) *
                     math.sqrt(sum(x * x for x in v)))
        return min(1.0, max(0.0, (cos + 1.0) / 2.0))

    others = [w for w in store.words if w != q]
    others.sort(key=lambda w: (-prox(w), w))
    return others[:m]


class TestNeighbors:
    def test_top1_equals_brute_force(self, store):
        for q in store.words[:10]:
            got = _words(store, store.neighbors(q, 1))
            assert list(got) == _brute_force_neighbors(store, q, 1)

    def test_exhaustive_case(self, store):
        q = store.words[0]
        got = _words(store, store.neighbors(q, len(store) + 5))
        assert len(got) == len(store) - 1
        assert set(got) == set(store.words) - {q}

    def test_never_contains_query(self, store):
        for q in store.words[:20]:
            assert store.row(q) not in store.neighbors(q, 10)

    def test_sorted_descending(self, store):
        rows = store.neighbors(store.words[0], 20)
        assert rows.dtype == np.intp and rows.shape == (20,)
        proxs = store.proximity(0, rows).tolist()
        assert proxs == sorted(proxs, reverse=True)

    def test_oov_query(self, store):
        with pytest.raises(OovError):
            store.neighbors("zzzqx", 5)

    def test_single_word_store_has_no_neighbors(self):
        s = EmbeddingStore(["solo"], np.array([[1.0, 2.0]]))
        for m in (1, 5):
            rows = s.neighbors("solo", m)
            assert rows.dtype == np.intp and rows.shape == (0,)

    def test_two_word_store(self):
        s = EmbeddingStore(["b", "a"], np.array([[1.0, 0.0], [1.0, 0.0]]))
        for m in (1, 2, 7):
            assert _words(s, s.neighbors("a", m)) == ("b",)
            assert _words(s, s.neighbors("b", m)) == ("a",)


class TestNeighborMemo:
    def test_warm_cold_and_brute_force_agree(self, store, tmp_path):
        path = tmp_path / "vectors.txt"
        store.save(path)
        warm, cold = EmbeddingStore.load(path), EmbeddingStore.load(path)
        ms = (1, 10, 60)
        for q in warm.words:
            for m in ms:
                warm.neighbors(q, m)
        for q in warm.words:
            expected = _brute_force_neighbors(warm, q, max(ms))
            for m in ms:
                got = warm.neighbors(q, m)
                assert got is warm.neighbors(q, m)  # served from the memo
                assert np.array_equal(got, cold.neighbors(q, m))
                assert list(_words(warm, got)) == expected[:m]

    def test_memoized_rows_are_read_only(self, store):
        rows = store.neighbors(store.words[0], 10)
        with pytest.raises(ValueError):
            rows[0] = rows[1]
        assert np.array_equal(rows, store.neighbors(store.words[0], 10))

    def test_errors_survive_a_full_memo(self, store):
        q = store.words[0]
        for m in (1, 10, 60):
            store.neighbors(q, m)
        with pytest.raises(ValueError):
            store.neighbors(q, 0)
        with pytest.raises(OovError):
            store.neighbors("zzzqx", 10)
        with pytest.raises(OovError):
            store.neighbors("zzzqx", 10)


# Rows whose unit vectors, dot products and norms are exact in binary
# floating point in any summation order: every entry +-1 (norm 2) or one
# nonzero entry, scaled by a power of two. Equal cosines are therefore equal
# bit for bit in the store and in the oracle, and duplicated rows plant exact
# ties at every rank, the k-th boundary included.
_EXACT_ROWS = [
    np.array(signs, dtype=np.float64)
    for signs in itertools.product((-1.0, 1.0), repeat=4)
] + [sign * np.eye(4)[i] for i in range(4) for sign in (-1.0, 1.0)]


@st.composite
def _tied_stores(draw):
    words = draw(
        st.lists(
            st.text(alphabet="abc", min_size=1, max_size=3),
            min_size=1,
            max_size=9,
            unique=True,
        )
    )
    bases = draw(st.lists(st.sampled_from(range(len(_EXACT_ROWS))),
                          min_size=1, max_size=3))
    rows = [
        _EXACT_ROWS[draw(st.sampled_from(bases))] * draw(st.sampled_from((1.0, 2.0, 4.0)))
        for _ in words
    ]
    return EmbeddingStore(words, np.array(rows))


class TestNeighborTies:
    @settings(max_examples=150, deadline=None)
    @given(_tied_stores())
    def test_ties_match_brute_force(self, store):
        for q in store.words:
            for m in range(1, len(store) + 6):
                expected = tuple(_brute_force_neighbors(store, q, m))
                assert _words(store, store.neighbors(q, m)) == expected


# sha256 of every fixture word's neighbor list, one "q<TAB>neighbors" line
# per word in store order, per m; m = 149 and 200 both ask for all V - 1
_NEIGHBOR_DIGESTS = {
    1: "a7482dbd7fa00c80e64dc766232f42217df0d331eb1df6af3c3f01ee4991d586",
    10: "51dbb5ac5a89b0a0c493d96ce29f9946fb2d81a51de22b74ffd5df48079159b0",
    20: "a7bd489d2c39da827c0ed73b626fc9d5c677ee7be1ac3c63b07c6ff3529148c4",
    60: "93c16574fb0abecf8c9d5389f8d1da2cafbdf16541939836a0779b9db56c32d0",
    149: "044a9b68c939a0a64f4486b2163d789bb18fdaf45bfb7c81b480f55ead4c7cf9",
    200: "044a9b68c939a0a64f4486b2163d789bb18fdaf45bfb7c81b480f55ead4c7cf9",
}


class TestNeighborDigests:
    def test_fixture_neighbor_lists_are_frozen(self, store):
        assert len(store) == 150
        got = {}
        for m in _NEIGHBOR_DIGESTS:
            text = "\n".join(q + "\t" + " ".join(_words(store, store.neighbors(q, m)))
                             for q in store.words)
            got[m] = hashlib.sha256(text.encode()).hexdigest()
        assert got == _NEIGHBOR_DIGESTS


def _proximity_scan(store, q, m):
    """Full scan: the other words by (-proximity(q, w), w), the first m."""
    iq = store.row(q)
    others = sorted((-store.proximity(iq, i), w)
                    for i, w in enumerate(store.words) if i != iq)
    return tuple(w for _, w in others[:m])


@st.composite
def _near_tie_stores(draw):
    """Rows along one direction, each moved by 1e-9 to 1e-5 of it or not at
    all, and scaled by a power of two: float32 cannot tell most of them
    apart, so many coarse values fall within the cut's bound of the k-th,
    and the unmoved rows tie exactly."""
    words = draw(st.lists(st.text(alphabet="abcd", min_size=1, max_size=3),
                          min_size=1, max_size=12, unique=True))
    dims = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal(dims)
    rows = []
    for _ in words:
        shift = draw(st.sampled_from((0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5)))
        scale = draw(st.sampled_from((0.5, 1.0, 4.0)))
        rows.append(scale * (base + shift * rng.standard_normal(dims)))
    return EmbeddingStore(words, np.array(rows))


class TestNeighborCut:
    @settings(max_examples=200, deadline=None)
    @given(_near_tie_stores())
    def test_near_ties_match_a_full_scan(self, store):
        for m in range(1, len(store) + 2):
            expected = [_proximity_scan(store, q, m) for q in store.words]
            batch = EmbeddingStore(store.words, store.vectors)
            got = batch.neighbors_many(store.words, m)
            assert [_words(store, rows) for rows in got] == expected
            for q, want in zip(store.words, expected):
                assert _words(store, store.neighbors(q, m)) == want


def _fresh(store):
    """The same words and vectors with an empty memo."""
    return EmbeddingStore(store.words, store.vectors)


class TestNeighborsMany:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_query_counts_around_the_chunk(self, store, n):
        qs = store.words[:n]
        got = _fresh(store).neighbors_many(qs, 10)
        assert len(got) == n
        assert [_words(store, rows) for rows in got] == [
            _proximity_scan(store, q, 10) for q in qs
        ]

    def test_repeated_and_memoized_words(self, store):
        s = _fresh(store)
        a, b, c = store.words[:3]
        warm = s.neighbors(b, 10)
        got = s.neighbors_many([a, b, a, c, b, a], 10)
        assert got[1] is warm and got[4] is warm
        assert got[0] is got[2] is got[5] is s.neighbors(a, 10)
        for q, rows in zip([a, b, a, c, b, a], got):
            assert _words(s, rows) == _proximity_scan(s, q, 10)
            assert not rows.flags.writeable

    def test_empty_query_list(self, store):
        s = _fresh(store)
        assert s.neighbors_many([], 10) == []
        assert s.memo == {}

    def test_m_at_or_above_v_minus_one(self, store):
        qs = store.words[::7]
        for m in (len(store) - 1, len(store), len(store) + 5):
            got = _fresh(store).neighbors_many(qs, m)
            assert [_words(store, rows) for rows in got] == [
                _proximity_scan(store, q, m) for q in qs
            ]

    def test_stores_of_one_and_two_words(self):
        solo = EmbeddingStore(["solo"], np.array([[1.0, 2.0]]))
        for m in (1, 5):
            got = solo.neighbors_many(["solo", "solo"], m)
            assert [rows.shape for rows in got] == [(0,), (0,)]
        pair = EmbeddingStore(["b", "a"], np.array([[1.0, 0.0], [-1.0, 0.0]]))
        for m in (1, 2, 7):
            got = pair.neighbors_many(["a", "b", "a"], m)
            assert [_words(pair, rows) for rows in got] == [("b",), ("a",), ("b",)]

    @pytest.mark.parametrize("at", [0, 1, 64, 70])
    def test_oov_anywhere_raises_before_any_scan(self, store, at):
        qs = list(store.words[:70])
        qs.insert(at, "zzzqx")
        qs.append("zzzqy")
        cold, warm = _fresh(store), _fresh(store)
        warm.neighbors_many(store.words[:3], 10)
        before = dict(warm.memo)
        for s in (cold, warm):
            with pytest.raises(OovError) as e:
                s.neighbors_many(qs, 10)
            assert str(e.value) == "out-of-vocabulary word: 'zzzqx'"
        assert cold.memo == {}
        assert warm.memo == before

    def test_bad_m_raises_before_any_scan(self, store):
        s = _fresh(store)
        for m in (0, -3):
            with pytest.raises(ValueError):
                s.neighbors_many(store.words[:2], m)
        assert s.memo == {}

    def test_a_batch_fills_the_memo_single_calls_fill(self, store):
        batch, single = _fresh(store), _fresh(store)
        for m in (1, 10, 60):
            batch.neighbors_many(store.words, m)
            for q in store.words:
                single.neighbors(q, m)
        assert batch.memo.keys() == single.memo.keys()
        for key, value in batch.memo.items():
            assert np.array_equal(value, single.memo[key])


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_sort(self, data):
        words = data.draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                                   max_size=12, unique=True))
        n = len(words)
        rank = EmbeddingStore(words, np.ones((n, 2))).word_rank
        # values from a pool of at most three: ties at every rank
        pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        prox = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        k = data.draw(st.integers(0, n))
        if 0 < k < n:  # plant an exact tie with the k-th largest value
            prox[data.draw(st.integers(0, n - 1))] = sorted(prox)[-k]
        expected = sorted(range(n), key=lambda i: (-prox[i], words[i]))[:k]
        got = top_k(np.array(prox), k, rank)
        assert got.dtype == np.intp
        assert got.tolist() == expected
        assert top_k(np.array(prox), -1, rank).size == 0


class TestWordRank:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=4) | st.sampled_from(
        ["Sol", "sol", "sól", "año", "Año", "ano", "\U0001d11e", "\uffff", "z"]),
        max_size=16, unique=True))
    def test_ranks_rows_in_code_point_order(self, words):
        store = EmbeddingStore(words, np.ones((len(words), 2)))
        assert [store.words[i] for i in np.argsort(store.word_rank)] == sorted(words)
        assert not store.word_rank.flags.writeable


def _reference_train(corpus, dims, window, epochs, negatives, seed, min_count=2):
    """The skip-gram trainer written one pair at a time, one draw per pair.

    Oracle for train_embeddings: a separate copy of the straightforward loop,
    returning (words, vectors, per-epoch losses).
    """
    sentences = [
        [t.lower() for t in s.tokens if any(c.isalpha() for c in t)] for s in corpus
    ]
    freq = {}
    for sent in sentences:
        for t in sent:
            freq[t] = freq.get(t, 0) + 1
    vocab = sorted(
        (w for w, c in freq.items() if c >= min_count), key=lambda w: (-freq[w], w)
    )
    index = {w: i for i, w in enumerate(vocab)}
    encoded = [[index[t] for t in sent if t in index] for sent in sentences]
    encoded = [s for s in encoded if len(s) >= 2]

    rng = np.random.default_rng(seed)
    v = len(vocab)
    w_in = (rng.random((v, dims)) - 0.5) / dims
    w_out = np.zeros((v, dims))
    counts = np.array([freq[w] for w in vocab], dtype=np.float64)
    neg_probs = counts**0.75
    neg_probs /= neg_probs.sum()

    total_steps = max(1, epochs * sum(len(s) for s in encoded))
    step = 0
    losses = []
    for _epoch in range(epochs):
        epoch_loss = 0.0
        pairs = 0
        for sent in encoded:
            for ci, center in enumerate(sent):
                alpha = 0.025 * max(1.0 - step / total_steps, 1e-4)
                step += 1
                lo = max(0, ci - window)
                hi = min(len(sent), ci + window + 1)
                for xi in range(lo, hi):
                    if xi == ci:
                        continue
                    context = sent[xi]
                    negs = rng.choice(v, size=negatives, p=neg_probs)
                    targets = np.concatenate(([context], negs))
                    labels = np.zeros(negatives + 1)
                    labels[0] = 1.0
                    h = w_in[center]
                    z = w_out[targets] @ h
                    p = 1.0 / (1.0 + np.exp(-z))
                    g = (p - labels) * alpha
                    grad_h = g @ w_out[targets]
                    np.subtract.at(w_out, targets, np.outer(g, h))
                    w_in[center] -= grad_h
                    eps = 1e-10
                    epoch_loss -= float(
                        np.log(p[0] + eps) + np.log(1.0 - p[1:] + eps).sum()
                    )
                    pairs += 1
        losses.append(epoch_loss / max(1, pairs))
    return vocab, w_in, losses


@st.composite
def _training_runs(draw):
    """A corpus of >= 100 short sentences over V words, and trainer settings.

    The first two sentences hold the first two words, so at least two words
    pass min_count. V <= 3 with three or more negatives forces a repeated
    target in every pair; larger V mixes pairs with and without one. About
    half the corpora have 100-110 sentences, the others 300-360, so that
    the pairs span several of the trainer's blocks (embeddings.BLOCK
    sentences prepared at once).
    """
    v = draw(st.integers(min_value=2, max_value=40))
    words = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(v)]
    count = draw(st.one_of(st.integers(98, 108), st.integers(298, 358)))
    lengths = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    picks = iter(draw(st.lists(
        st.integers(0, v - 1), min_size=sum(lengths), max_size=sum(lengths)
    )))
    sentences = [words[:2], words[:2]] + [
        [words[next(picks)] for _ in range(n)] for n in lengths
    ]
    corpus = [
        SentenceRecord("h", i, tuple(s)) for i, s in enumerate(sentences)
    ]
    params = dict(
        dims=draw(st.sampled_from((8, 9, 64))),
        window=draw(st.sampled_from((0, 1, 2, 5))),  # 0: no pairs at all
        negatives=draw(st.sampled_from((1, 3, 5))),
        epochs=draw(st.sampled_from((1, 2))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return corpus, params


class TestLowercaseWords:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(
        st.text(),
        st.sampled_from(["", ",", "...", "1990", "3ª", "¿qué?", "niño",
                         "Ωμέγα", "東京", "٣", "a-b", "l'eau", "\u0301"]),
    )))
    def test_keeps_the_tokens_with_a_letter(self, tokens):
        # the words the trainer and the novelty key see, as first defined
        expected = [t.lower() for t in tokens if any(c.isalpha() for c in t)]
        assert lowercase_words(tokens) == expected
        assert lowercase_words(tuple(tokens)) == expected


class TestTrainingOracle:
    @settings(max_examples=20, deadline=None)
    @given(_training_runs())
    def test_matches_per_pair_reference_exactly(self, run):
        corpus, params = run
        words, vectors, losses = _reference_train(corpus, **params)
        store = train_embeddings(corpus, **params)
        assert store.words == words
        assert store.vectors.tobytes() == vectors.tobytes()  # zeros' signs too
        assert store.training_losses == losses

    @pytest.mark.parametrize("block", [1, 7, 601])
    def test_block_size_leaves_every_bit(self, sentences, store, monkeypatch, block):
        # the fixture's 600 sentences one at a time, 7 at a time (the last
        # block short) and all in one block, against the default BLOCK
        assert embeddings.BLOCK < len(sentences) < 601
        monkeypatch.setattr(embeddings, "BLOCK", block)
        blocked = train_embeddings(sentences, **EMB_PARAMS)
        assert blocked.words == store.words
        assert blocked.vectors.tobytes() == store.vectors.tobytes()
        assert blocked.training_losses == store.training_losses


class TestTraining:
    def test_below_floor(self):
        recs = [SentenceRecord("d", i, ("a", "b")) for i in range(50)]
        with pytest.raises(BuildError, match="need >= 100 sentences, got 50"):
            train_embeddings(recs)

    def test_vocabulary_too_small_after_min_count(self):
        # 100 sentences, but only "a" occurs often enough to keep
        recs = [SentenceRecord("d", i, ("a", f"w{i}")) for i in range(100)]
        with pytest.raises(BuildError,
                           match="^vocabulary too small after min_count filtering$"):
            train_embeddings(recs, dims=8, min_count=2)

    def test_small_dims(self, sentences):
        with pytest.raises(BuildError, match="need dims >= 8, got 4"):
            train_embeddings(sentences, dims=4)

    def test_loss_decreases(self, store):
        assert store.training_losses[-1] < store.training_losses[0]

    def test_deterministic(self, sentences, store):
        params = dict(EMB_PARAMS, epochs=1)
        a = train_embeddings(sentences, **params)
        b = train_embeddings(sentences, **params)
        assert a.words == b.words
        assert np.array_equal(a.vectors, b.vectors)

    def test_fixture_vectors_and_losses_are_frozen(self, store, tmp_path):
        # the fixture build at EMB_PARAMS, pinned to the last bit: any change
        # to the trainer's arithmetic or to its draws from the seeded stream
        # moves the digest or a loss
        path = tmp_path / "vectors.txt"
        store.save(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == (
            "0ee0a22e23a3c849afbfa98f5a7e79870c84f424982674c6e271efeebd259cf1"
        )
        assert [repr(x) for x in store.training_losses] == [
            "3.267687393181743",
            "2.6596670898023036",
            "2.6367582212062595",
            "2.6245677955668256",
            "2.615015385373184",
        ]

    def test_semantic_regression(self, store):
        # verified once on the fixture corpus, frozen: nouns sharing
        # determiner gender and verbs cluster apart
        assert _prox(store, "sol", "cielo") > _prox(store, "sol", "brillan")

    def test_min_count_respected(self, store, sentences):
        freq = {}
        for s in sentences:
            for t in s.tokens:
                t = t.lower()
                if any(c.isalpha() for c in t):
                    freq[t] = freq.get(t, 0) + 1
        assert all(freq[w] >= 2 for w in store.words)


class TestSerialization:
    def test_header_and_round_trip(self, store, tmp_path):
        path = tmp_path / "vecs.txt"
        store.save(path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"{len(store)} {store.dims}"
        back = EmbeddingStore.load(path)
        assert back.words == store.words
        assert np.max(np.abs(back.vectors - store.vectors)) <= 1e-6

    def test_round_trip_preserves_rankings(self, store, tmp_path):
        path = tmp_path / "vecs.txt"
        store.save(path)
        back = EmbeddingStore.load(path)
        for q in store.words[:10]:
            assert np.array_equal(back.neighbors(q, 10), store.neighbors(q, 10))

    def test_tiny_file(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1.0 0.0 0.0\nb 0.0 1.0 0.0\n")
        s = EmbeddingStore.load(p)
        assert (len(s), s.dims) == (2, 3)

    def test_arity_error_reports_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1.0 0.0 0.0\nb 0.0 1.0\n")
        with pytest.raises(FormatError) as exc:
            EmbeddingStore.load(p)
        assert exc.value.line == 3

    def test_duplicate_word_rejected_at_second_row(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1.0 0.0\nb 0.0 1.0\na 0.5 0.5\n")
        with pytest.raises(FormatError, match="duplicate word 'a', first at line 2"
                           ) as exc:
            EmbeddingStore.load(p)
        assert (exc.value.line, exc.value.path) == (4, str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_component_rejected_at_its_line(self, tmp_path, value):
        p = tmp_path / "v.txt"
        p.write_text(f"3 2\na 1.0 0.0\nb 0.0 1.0\nc 0.5 {value}\n")
        with pytest.raises(FormatError, match="non-finite") as exc:
            EmbeddingStore.load(p)
        assert (exc.value.line, exc.value.path) == (4, str(p))

    def test_words_and_vectors_of_other_lengths_rejected_by_constructor(self):
        with pytest.raises(FormatError,
                           match="^vocab size does not match vector count$"):
            EmbeddingStore(["a", "b"], np.array([[1.0, 0.0]]))

    def test_non_finite_vectors_rejected_by_constructor(self):
        with pytest.raises(FormatError, match="non-finite"):
            EmbeddingStore(["a"], np.array([[np.nan, 1.0]]))

    def test_rows_beyond_header_count_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1.0 0.0\nb 0.0 1.0\n\nc 0.5 0.5\n")
        with pytest.raises(FormatError, match="more than 2 vector rows") as exc:
            EmbeddingStore.load(p)
        assert exc.value.line == 5

    def test_trailing_blank_lines_allowed(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1.0 0.0\nb 0.0 1.0\n\n")
        assert len(EmbeddingStore.load(p)) == 2


def _fail_to_parse(*args, **kwargs):
    raise AssertionError("the text was parsed")


def _copy_arrays(copy):
    with open(copy, "rb") as f:
        return [np.load(f) for _ in range(3)]


class TestBinaryCopy:
    """The copy ``EmbeddingStore.load`` keeps beside the text it parsed."""

    @pytest.fixture
    def path(self, store, tmp_path):
        path = tmp_path / "vectors.txt"
        store.save(path)
        return path

    def test_second_load_reads_the_copy_bit_for_bit(self, path, monkeypatch):
        parsed = EmbeddingStore.load(path)
        assert sorted(p.name for p in path.parent.iterdir()) == [
            ".vectors.txt.npy", "vectors.txt"]
        monkeypatch.setattr("homosyntax.embeddings.load_rows", _fail_to_parse)
        copied = EmbeddingStore.load(path)
        assert copied.words == parsed.words
        assert copied.index == parsed.index
        for name in ("vectors", "_unit", "word_rank"):
            a, b = getattr(copied, name), getattr(parsed, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_edit_of_the_same_length_is_parsed_and_replaces_the_copy(self, path):
        EmbeddingStore.load(path)
        copy = path.with_name(".vectors.txt.npy")
        before = copy.read_bytes()
        lines = path.read_text(encoding="utf-8").splitlines()
        word, first, *rest = lines[1].split(" ")
        first = first[:-1] + ("2" if first.endswith("1") else "1")  # same length
        lines[1] = " ".join([word, first, *rest])
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        store = EmbeddingStore.load(path)
        assert store.vectors[0, 0] == float(first)
        assert copy.read_bytes() != before
        assert sorted(p.name for p in path.parent.iterdir()) == [
            ".vectors.txt.npy", "vectors.txt"]
        assert EmbeddingStore.load(path).vectors.tobytes() == store.vectors.tobytes()

    @pytest.mark.parametrize("damage", [
        lambda data, arrays: b"",
        lambda data, arrays: b"not a numpy file" * 64,
        lambda data, arrays: data[: len(data) // 2],
        lambda data, arrays: data[:-1],
        lambda data, arrays: data[:-9] + bytes([data[-9] ^ 1]) + data[-8:],
        # the same bytes as other arrays: only the dtype or shape checks see it
        lambda data, arrays: (arrays[0], arrays[1], arrays[2].view(np.int64)),
        lambda data, arrays: (arrays[0], arrays[1].view(f"S{arrays[1].itemsize}"),
                              arrays[2]),
        lambda data, arrays: (arrays[0], arrays[1],
                              arrays[2].reshape(len(arrays[1]), 2, -1)),
        lambda data, arrays: (arrays[0], arrays[1], arrays[2].reshape(-1, 32)),
        lambda data, arrays: (arrays[0], arrays[1], np.asfortranarray(arrays[2])),
    ], ids=["empty", "garbage", "half", "last-byte-cut", "bit-flipped",
            "int64-vectors", "bytes-words", "rows-folded", "rows-halved",
            "fortran-order"])
    def test_damaged_copy_is_ignored_and_rewritten(self, path, monkeypatch, damage):
        parsed = EmbeddingStore.load(path)
        copy = path.with_name(".vectors.txt.npy")
        good = copy.read_bytes()
        damaged = damage(good, _copy_arrays(copy))
        if isinstance(damaged, bytes):
            copy.write_bytes(damaged)
        else:
            with open(copy, "wb") as f:
                for array in damaged:
                    np.save(f, array)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = EmbeddingStore.load(path)
        assert store.words == parsed.words
        assert store.vectors.tobytes() == parsed.vectors.tobytes()
        assert copy.read_bytes() == good
        monkeypatch.setattr("homosyntax.embeddings.load_rows", _fail_to_parse)
        assert EmbeddingStore.load(path).words == parsed.words

    def test_malformed_text_beside_a_copy_of_its_old_content_fails_as_before(
            self, path, tmp_path):
        EmbeddingStore.load(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0]  # one component short
        bad = "".join(line + "\n" for line in lines)
        path.write_text(bad, encoding="utf-8")
        alone = tmp_path / "alone" / "vectors.txt"
        alone.parent.mkdir()
        alone.write_text(bad, encoding="utf-8")
        errors = []
        for p in (path, alone):
            with pytest.raises(FormatError) as exc:
                EmbeddingStore.load(p)
            errors.append((str(exc.value).replace(str(p), "P"), exc.value.line))
        assert errors[0] == errors[1] == (f"P: line 4: bad vector row: expected word + "
                                          f"{len(lines[1].split()) - 1} floats", 4)

    @pytest.mark.parametrize("owner, name", [(np, "save"), (os, "replace")],
                             ids=["write", "rename"])
    def test_failed_write_loads_and_leaves_no_file(self, path, monkeypatch, owner, name):
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(owner, name, fail)
        store = EmbeddingStore.load(path)
        assert len(store) == len(path.read_text(encoding="utf-8").splitlines()) - 1
        assert [p.name for p in path.parent.iterdir()] == ["vectors.txt"]

    def test_text_mended_after_a_bad_read_is_loaded_again(self, path, monkeypatch):
        good = path.read_bytes()
        path.write_bytes(b"\xff" + good)
        with pytest.raises(FormatError, match="not valid UTF-8") as exc:
            EmbeddingStore.load(path)
        assert exc.value.line == 1
        assert [p.name for p in path.parent.iterdir()] == ["vectors.txt"]
        path.write_bytes(good)
        assert len(EmbeddingStore.load(path)) == len(good.splitlines()) - 1
        monkeypatch.setattr("homosyntax.embeddings.load_rows", _fail_to_parse)
        assert len(EmbeddingStore.load(path)) == len(good.splitlines()) - 1

    def test_word_with_a_trailing_nul_loads_every_time(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 2\nab\x00 1.0 2.0\ncd 3.0 4.0\n", encoding="utf-8")
        for _ in range(3):
            assert EmbeddingStore.load(path).words == ["ab\x00", "cd"]


def _reference_vectors(text):
    """Words and vectors of a word2vec text file read by ``str.split`` and
    ``float()``, one token at a time."""
    lines = text.splitlines()
    count, dims = (int(x) for x in lines[0].split())
    rows = [line.split() for line in lines[1 : 1 + count]]
    if any(len(r) != dims + 1 for r in rows):
        raise ValueError("a row without a word and dims floats")
    vectors = np.array([[float(p) for p in r[1:]] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], vectors.reshape(count, dims)


class TestVectorParsing:
    """``EmbeddingStore.load`` reads what an independent reader reads, both
    when it parses the text and when it reads the copy that parse left."""

    @pytest.mark.parametrize("text", [
        "0 3\n",
        "1 2\nsol 0.25 -1e-3\n",
        "2 2\n#sol 1.0 2.0\n# 3.0 4.0\n",
        "2 3\nsol\t1.0\t2.0\t3.0\nluna  4.0   5.5  -6.0\n",
        "2 2\nsol　1.0　2.0\nluna\xa03.0 4.0\n",
        "2 2\n  sol 1 2  \nluna .5 5.\n",
        "2 2\nsol 1_0 2.0\nluna 3.0 4.0\n",
        "2 2\nsol 1.0 2.0\nluna ٣.5 4.0\n",
    ], ids=["count-0", "count-1", "hash-word", "tab-and-spaces",
            "ideographic-and-nbsp", "outer-space-short-floats", "underscore",
            "arabic-indic-digit"])
    def test_loads_as_the_reference_reads(self, tmp_path, monkeypatch, text):
        p = tmp_path / "v.txt"
        p.write_text(text, encoding="utf-8")
        words, vectors = _reference_vectors(text)
        for _ in range(2):  # the parse, then the copy it wrote
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                store = EmbeddingStore.load(p)
            assert store.words == words
            assert store.vectors.tobytes() == vectors.tobytes()
            assert store.vectors.shape == vectors.shape
            monkeypatch.setattr("homosyntax.embeddings.load_rows", _fail_to_parse)

    def test_blank_row_within_the_count_rejected_at_its_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1.0 0.0\n\nb 0.0 1.0\n")
        with pytest.raises(FormatError, match="expected word \\+ 2 floats") as exc:
            EmbeddingStore.load(p)
        assert exc.value.line == 3

    @settings(max_examples=300)
    @given(data=st.data())
    def test_random_rows_load_as_the_reference_reads(self, tmp_path_factory, data):
        dims = data.draw(st.integers(1, 3))
        words = data.draw(st.lists(st.sampled_from(["sol", "luna", "#mar", "río"]),
                                   max_size=4))
        # magnitudes whose squares sum without overflow in the row norms
        token = st.one_of(
            st.floats(min_value=-1e150, max_value=1e150).map(repr),
            st.sampled_from(["1_0", "٣", ".5", "5.", "-0", "1e-320", "x"]))
        sep = st.text(alphabet=" \t\xa0　\x1f", min_size=1, max_size=2)
        rows = []
        for word in words:
            fields = [word] + [data.draw(token) for _ in range(dims)]
            rows.append("".join(f + data.draw(sep) for f in fields).rstrip())
        text = f"{len(rows)} {dims}\n" + "".join(r + "\n" for r in rows)
        p = tmp_path_factory.getbasetemp() / "random_vectors.txt"
        p.write_text(text, encoding="utf-8")
        try:
            expected = _reference_vectors(text)
        except ValueError:
            expected = None  # a row the reference cannot read
        if expected is None or len(set(expected[0])) < len(expected[0]):
            with pytest.raises(FormatError):
                EmbeddingStore.load(p)
            return
        store = EmbeddingStore.load(p)
        assert store.words == expected[0]
        assert store.vectors.tobytes() == expected[1].tobytes()

def _ts(pairs):
    tokens = tuple((w, PosTag(t)) for w, t in pairs)
    src = SentenceRecord("d", 0, tuple(w for w, _ in tokens))
    return TaggedSentence(tokens=tokens, source=src)


class TestAssociativeTable:
    def test_dedup_with_frequency(self):
        ta = build_associative_table(
            [_ts([("sol", "NCMS000"), ("sol", "NCMS000")])]
        )
        assert ta.table["NCMS"] == (("sol", 2),)

    def test_word_under_two_tags(self):
        ta = build_associative_table(
            [_ts([("mar", "NCMS000"), ("mar", "NCFS000")])]
        )
        assert ("mar", 1) in ta.table["NCMS"]
        assert ("mar", 1) in ta.table["NCFS"]

    def test_missing_tag(self, ta, store):
        with pytest.raises(TableError, match="no associative-table entry"):
            ta.words("XXXX", store)

    def test_against_groupby_oracle(self, ta, tagged):
        # independent group-by of the same corpus
        expected = {}
        for ts in tagged:
            for surface, tag in ts.tokens:
                if tag.category not in "NVA":
                    continue
                expected.setdefault(tag.truncated, {})
                w = surface.lower()
                expected[tag.truncated][w] = expected[tag.truncated].get(w, 0) + 1
        assert set(ta.table) == set(expected)
        for tag, words in ta.table.items():
            assert dict(words) == expected[tag]

    def test_soundness(self, ta, tagged):
        attested = {
            (tag.truncated, surface.lower())
            for ts in tagged
            for surface, tag in ts.tokens
        }
        for tag, words in ta.table.items():
            for w, _ in words:
                assert (tag, w) in attested

    def test_jsonl_round_trip(self, ta, tmp_path):
        path = tmp_path / "ta.jsonl"
        ta.save(path)
        back = AssociativeTable.load(path)
        assert back.table == ta.table

    def test_words_most_frequent_first_ties_by_word(self):
        ta = AssociativeTable({"NCMS": [("mar", 1), ("sol", 5), ("cielo", 1)]})
        # a tuple: the memos take the table as fixed
        assert ta.table["NCMS"] == (("sol", 5), ("cielo", 1), ("mar", 1))

    def test_candidates_have_vectors_in_table_order(self):
        store = _toy_store()
        ta = AssociativeTable({"NCMS": [("sur", 1), ("oeste", 9), ("norte", 2)]})
        assert ta.words("NCMS", store) == ("norte", "sur")

    def test_words_in_table_order_per_store(self):
        ta = AssociativeTable(
            {"NCMS": [("sur", 5), ("oeste", 9), ("norte", 2), ("este", 3)]}
        )
        toy = _toy_store()  # este, norte, sur
        other = EmbeddingStore(["sur", "oeste"], np.eye(2))
        for _ in range(2):
            assert ta.words("NCMS", toy) == ("sur", "este", "norte")
            assert ta.words("NCMS", other) == ("oeste", "sur")
        with pytest.raises(TableError):
            ta.words("XXXX", toy)
