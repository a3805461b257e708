import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.embeddings import AssociativeTable, EmbeddingStore
from homosyntax.errors import GenerationError, HomosyntaxError, OovError
from homosyntax.model2 import generate_model2, rank_vocabulary
from homosyntax.model3 import (SEGMENT, CandidateBlock, generate_model3,
                               score_candidates)
from homosyntax.pos import PosTag
from homosyntax.templates import TemplateStore


def _raw_prox(store, a, b):
    va = store.vectors[store.index[a]]
    vb = store.vectors[store.index[b]]
    dot = sum(x * y for x, y in zip(va, vb))
    cos = dot / (math.sqrt(sum(x * x for x in va)) *
                 math.sqrt(sum(x * x for x in vb)))
    return min(1.0, max(0.0, (cos + 1.0) / 2.0))


def _raw_neighbors(store, q, m):
    others = sorted((w for w in store.words if w != q),
                    key=lambda w: (-_raw_prox(store, q, w), w))
    return tuple(others[:m])


def _raw_cos(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (math.sqrt(sum(x * x for x in a)) *
                  math.sqrt(sum(x * x for x in b)))


def _oracle_scores(o, q, vk, store, invert=False):
    """Straight-line pure-python recomputation of the scoring pipeline."""
    thetas, betas = [], []
    for w in vk:
        u = (_raw_neighbors(store, o, SEGMENT)
             + _raw_neighbors(store, q, SEGMENT)
             + _raw_neighbors(store, w, SEGMENT))
        x = [_raw_prox(store, o, uj) for uj in u]
        qv = [_raw_prox(store, q, uj) for uj in u]
        wv = [_raw_prox(store, w, uj) for uj in u]
        thetas.append(_raw_cos(qv, wv))
        betas.append(_raw_cos(x, wv))
    mt = sum(thetas) / len(thetas)
    mb = sum(betas) / len(betas)
    out = {}
    for w, t, b in zip(vk, thetas, betas):
        if invert:
            out[w] = ((t / mt) * (mb / b), t, b)
        else:
            out[w] = ((mt / t) * (b / mb), t, b)
    return out


def _score(o, q, vk, store, invert=False):
    return score_candidates(o, q, CandidateBlock.of(vk, store), store, invert)


_E1, _E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def _axis_store(**vectors):
    """A store of the words given, each at its 2-d vector."""
    return EmbeddingStore(list(vectors), np.array(list(vectors.values())))


class TestScoring:
    def test_against_oracle(self, resources):
        store = resources.store
        cases = [
            ("sol", "luna", ["mar", "cielo", "viento", "fuego"]),
            ("guerra", "paz", ["amor", "muerte", "noche"]),
        ]
        for o, q, vk in cases:
            vk = [w for w in vk if w in store]
            assert len(vk) >= 2
            scored = _score(o, q, vk, store)
            oracle = _oracle_scores(o, q, vk, store)
            for c in scored:
                s, theta, beta = oracle[c["w"]]
                assert abs(c["s"] - s) <= 1e-9
                assert abs(c["theta"] - theta) <= 1e-9
                assert abs(c["beta"] - beta) <= 1e-9

    @pytest.mark.parametrize("invert", [False, True])
    @pytest.mark.parametrize("v", [4, 10])
    def test_small_vocabulary_against_oracle(self, v, invert):
        # with V <= 10 every neighbor list holds all V - 1 other words, so U
        # has 3 * (V - 1) words
        rng = np.random.default_rng(v)
        store = EmbeddingStore([f"w{i}" for i in range(v)],
                               rng.standard_normal((v, 8)))
        o, q, vk = "w0", "w1", store.words[1:]
        scored = _score(o, q, vk, store, invert=invert)
        oracle = _oracle_scores(o, q, vk, store, invert=invert)
        assert sorted(c["w"] for c in scored) == sorted(vk)
        for c in scored:
            s, theta, beta = oracle[c["w"]]
            assert abs(c["s"] - s) <= 1e-9
            assert abs(c["theta"] - theta) <= 1e-9
            assert abs(c["beta"] - beta) <= 1e-9

    def test_sorted_descending(self, resources):
        scored = _score("sol", "luna", ["mar", "cielo", "noche", "amor"],
                        resources.store)
        ss = [c["s"] for c in scored]
        assert ss == sorted(ss, reverse=True)

    def test_scale_invariance(self, resources):
        # scaling every embedding leaves cosines, hence scores, unchanged
        store = resources.store
        vk = ["mar", "cielo", "noche"]
        base = _score("sol", "luna", vk, store)
        for c in (0.5, 3.0):
            scaled = EmbeddingStore(store.words, store.vectors * c)
            got = _score("sol", "luna", vk, scaled)
            for x, y in zip(base, got):
                assert x["w"] == y["w"]
                assert abs(x["s"] - y["s"]) <= 1e-9

    def test_invert_is_reciprocal(self, resources):
        vk = ["mar", "cielo", "noche"]
        plain = {c["w"]: c["s"] for c in
                 _score("sol", "luna", vk, resources.store)}
        inv = {c["w"]: c["s"] for c in
               _score("sol", "luna", vk, resources.store, invert=True)}
        for w in vk:
            assert abs(plain[w] * inv[w] - 1.0) <= 1e-9

    def test_mean_point_normalization(self, resources):
        # a candidate sitting exactly at both means would score 1; verify
        # the algebraic identity on the actual values instead
        scored = _score("sol", "luna", ["mar", "cielo", "noche", "amor"],
                        resources.store)
        mt = sum(c["theta"] for c in scored) / len(scored)
        mb = sum(c["beta"] for c in scored) / len(scored)
        for c in scored:
            assert abs(c["s"] - (mt / c["theta"]) * (c["beta"] / mb)) <= 1e-12

    def test_monotone_in_beta(self, resources):
        # with theta fixed, larger beta means larger score
        scored = _score("sol", "luna", ["mar", "cielo", "noche", "amor"],
                        resources.store)
        mt = sum(c["theta"] for c in scored) / len(scored)
        mb = sum(c["beta"] for c in scored) / len(scored)
        betas = sorted(c["beta"] for c in scored)
        ss = [(mt / scored[0]["theta"]) * (b / mb) for b in betas]
        assert ss == sorted(ss)

    def test_too_few_candidates(self, resources):
        # every tag keeps one in-vocabulary word: a slot whose original has
        # a vector has one candidate, which costs the attempt in fill_slot
        store = resources.store
        ta = AssociativeTable({tag: [wc for wc in words if wc[0] in store][:1]
                               for tag, words in resources.ta.table.items()})
        assert all(len(ta.words(tag, store)) == 1 for tag in ta.table)
        with pytest.raises(GenerationError) as exc:
            generate_model3("sol", 8, replace(resources, ta=ta), 0)
        prefix = ("model 3 failed after 20 attempts: fewer than 2 in-vocabulary "
                  "candidates for ")
        assert str(exc.value).startswith(prefix)
        assert str(exc.value)[len(prefix):].strip("'") in ta.table

    @pytest.mark.parametrize("invert", [False, True])
    def test_zero_norm_distance_vector(self, invert):
        # w is opposite every other word: its profile against U, which holds
        # only the others, is all zeros
        store = _axis_store(w=_E1, **{f"b{i:02d}": -_E1 for i in range(12)})
        with pytest.raises(GenerationError, match="^zero-norm distance vector$"):
            _score("b00", "b01", ["w", "b02"], store, invert)

    @pytest.mark.parametrize("invert", [False, True])
    def test_zero_similarity(self, invert):
        # q and the candidates lie on opposite ends of one axis, and every
        # word of U on that axis: each theta is 0
        store = _axis_store(a=_E1, b=-_E1, c=_E1, d=-_E1)
        with pytest.raises(GenerationError, match="^zero similarity in scoring$"):
            _score("c", "a", ["b", "d"], store, invert)

    def test_zero_similarity_in_inverted_scoring(self):
        # o is opposite the candidate x, and U lies on their axis: x's beta
        # is 0, which only the inverted score divides by
        store = _axis_store(v=_E2, **{f"n{i:02d}": -_E1 for i in range(12)},
                            **{f"p{i:02d}": _E1 for i in range(12)})
        scored = _score("n00", "p00", ["p01", "v"], store)
        assert [c["beta"] for c in scored if c["w"] == "p01"] == [0.0]
        with pytest.raises(GenerationError,
                           match="^zero similarity in inverted scoring$"):
            _score("n00", "p00", ["p01", "v"], store, invert=True)

    def test_oov_candidate(self, resources):
        with pytest.raises(OovError):
            _score("sol", "luna", ["mar", "zzzqx"], resources.store)

    @pytest.mark.parametrize("o, q, vk, named", [
        ("zz1", "zz2", ["cielo", "mar"], "zz1"),
        ("sol", "zz2", ["cielo", "mar"], "zz2"),
        ("zz1", "luna", ["mar", "cielo"], "zz1"),
        ("sol", "luna", ["mar", "zz3", "zz4"], "zz3"),
        ("zz1", "zz2", ["mar", "zz3"], "zz3"),
    ])
    def test_oov_error_names_o_then_q_then_the_first_candidate(
        self, resources, o, q, vk, named
    ):
        # score_candidates names o before q; a candidate with no vector is
        # named when its block is built, before o and q are looked at
        with pytest.raises(OovError) as exc:
            _score(o, q, vk, resources.store)
        assert str(exc.value) == f"out-of-vocabulary word: {named!r}"


def _reference_records(o, q, vk, store, invert=False):
    """Model 3's records built straight from the definition: each
    candidate's own U from ``neighbors``, each proximity one pair at a time,
    each cosine one np.vecdot over that candidate's three profiles.

    The profiles are the rows of one (3, n, |U|) array, as in the scoring:
    some BLAS kernels (OpenBLAS's SSE2 ``ddot``) sum a row in an order that
    depends on its 16-byte alignment, which an odd |U| changes row by row.
    """
    profiles = np.empty((3, len(vk), 3 * len(store.neighbors(o, SEGMENT))))
    thetas, betas = [], []
    for i, w in enumerate(vk):
        u = [int(r) for a in (o, q, w) for r in store.neighbors(a, SEGMENT)]
        for profile, a in zip(profiles, (o, q, w)):
            profile[i] = [store.proximity(store.index[a], r) for r in u]
        x, qv, wv = profiles[:, i]
        nx, nq, nw = (np.sqrt(np.vecdot(a, a)) for a in (x, qv, wv))
        thetas.append(float(np.vecdot(qv, wv) / (nq * nw)))
        betas.append(float(np.vecdot(x, wv) / (nx * nw)))
    mt, mb = sum(thetas) / len(thetas), sum(betas) / len(betas)
    records = [
        {"w": w, "theta": t, "beta": b,
         "s": (t / mt) * (mb / b) if invert else (mt / t) * (b / mb)}
        for w, t, b in zip(vk, thetas, betas)
    ]
    return sorted(records, key=lambda c: (-c["s"], c["w"]))


def _tied_store_and_words(v, data):
    """A drawn v-word store of 8 dims where copies of one row tie exactly,
    so neighbor ties break by word, and 2..40 of its words in drawn order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((v, 8))
    vectors[rng.integers(v, size=v // 4)] = vectors[0]
    store = EmbeddingStore([f"w{i:02d}" for i in range(v)], vectors)
    n = data.draw(st.integers(2, min(40, v)))
    return store, data.draw(st.permutations(store.words))[:n]


class _CountedProximity:
    """Wraps a store's ``proximity`` and counts its calls."""

    def __init__(self, store):
        self.calls, self._proximity = 0, store.proximity
        store.proximity = self

    def __call__(self, a, b):
        self.calls += 1
        return self._proximity(a, b)


class TestCandidateBlock:
    @settings(max_examples=80, deadline=None)
    @given(v=st.sampled_from([4, 10, 60]), invert=st.booleans(), data=st.data())
    def test_scores_equal_the_reference_bit_for_bit(self, v, invert, data):
        store, vk = _tied_store_and_words(v, data)
        n = len(vk)
        o, q = data.draw(st.lists(st.sampled_from(store.words), min_size=2,
                                  max_size=2))
        expected = _reference_records(o, q, vk, store, invert)
        # one block twice: a miss and a hit of a memoized block
        block = CandidateBlock.of(vk, store)
        for _ in ("miss", "hit"):
            assert score_candidates(o, q, block, store, invert) == expected
        assert block.neighbors.shape == (n, min(SEGMENT, v - 1))

    @settings(max_examples=60, deadline=None)
    @given(v=st.sampled_from([4, 10, 60]), data=st.data())
    def test_warm_profiles_give_the_reference_bit_for_bit(self, v, data):
        # a few anchors, so most profiles a call reads were made by calls
        # with other partners, or with the word as the other anchor
        store, vk = _tied_store_and_words(v, data)
        anchors = data.draw(st.lists(st.sampled_from(store.words), min_size=1,
                                     max_size=3, unique=True))
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(anchors), st.sampled_from(anchors),
                      st.booleans()), min_size=1, max_size=8))
        block = CandidateBlock.of(vk, store)
        for o, q, invert in [*pairs, (anchors[0], anchors[0], False)]:
            assert score_candidates(o, q, block, store, invert) == (
                _reference_records(o, q, vk, store, invert))
        used = {a for o, q, _ in pairs for a in (o, q)} | {anchors[0]}
        assert set(block.profiles) == used
        halves = [half for profile in block.profiles.values() for half in profile]
        assert len(halves) == 2 * len(used)
        for half in halves:
            assert half.shape == block.neighbors.shape
            assert not half.flags.writeable
        # the arrays the profiles keep alive hold the profiles and no more
        kept = {id(a): a for a in (h if h.base is None else h.base for h in halves)}
        assert sum(a.size for a in kept.values()) == len(halves) * halves[0].size

    def test_each_profile_is_made_once_at_two_proximity_calls(self, resources):
        store = EmbeddingStore(resources.store.words, resources.store.vectors)
        block = CandidateBlock.of(["mar", "cielo", "noche", "amor"], store)
        # the neighbor scans call proximity too: make them first
        store.neighbors_many(["sol", "luna", "paz", "guerra"], SEGMENT)
        counted = _CountedProximity(store)
        made = {}
        # one call for o and q against N(o) and N(q), two per new anchor
        for o, q, calls in [("sol", "luna", 5), ("sol", "luna", 1),
                            ("luna", "sol", 1), ("sol", "paz", 3),
                            ("paz", "paz", 1), ("guerra", "guerra", 3)]:
            before = counted.calls
            score_candidates(o, q, block, store)
            assert counted.calls - before == calls, (o, q)
            for a in (o, q):
                made.setdefault(a, block.profiles[a])
        assert block.profiles.keys() == made.keys()
        assert all(block.profiles[a] is made[a] for a in made)

    def test_profiles_stay_out_of_the_store_memo(self, resources):
        # a block made outside model 3 keeps its profiles itself: once the
        # neighbor lists are memoized, scoring on a new block adds no key
        store = EmbeddingStore(resources.store.words, resources.store.vectors)
        vk = ["mar", "cielo", "noche", "amor"]
        first = score_candidates("sol", "luna", CandidateBlock.of(vk, store), store)
        keys = set(store.memo)
        block = CandidateBlock.of(vk, store)
        assert score_candidates("sol", "luna", block, store) == first
        assert set(store.memo) == keys
        assert set(block.profiles) == {"sol", "luna"}
        assert "profiles" not in repr(block)

    def test_memo_miss_and_hit_give_the_same_records(self, resources):
        # a fresh table: the first pass builds each (tag, cap) block, the
        # second reads it from the store's memo under the table
        ta = AssociativeTable(resources.ta.table)
        runs = []
        for _ in ("miss", "hit"):
            runs.append([])
            for cap_m in (2, 5, 200):
                for seed in range(3):
                    res = replace(resources, ta=ta, cap_m=cap_m, invert=seed == 1)
                    s = generate_model3("luna", 8, res, seed)
                    runs[-1].append((s.tokens, s.trace))
        assert runs[0] == runs[1]
        blocks = {k: b for k, b in resources.store.memo.items()
                  if isinstance(b, CandidateBlock) and k[1] is ta}
        assert blocks and all(k[0] == "model3" for k in blocks)
        assert {k[3] for k in blocks} == {2, 5, 200}
        index = resources.store.index
        for (_, _, tag, cap_m), block in blocks.items():
            # the cap keeps the tag's first words in table order
            assert block.words == ta.words(tag, resources.store)[:cap_m]
            assert block.rows.tolist() == [index[w] for w in block.words]
            assert not block.proximity.flags.writeable

    def test_one_table_serves_two_stores_as_two_fresh_tables(self, resources):
        # the fixture store and a copy with other vectors: a table shared by
        # both must give each what a fresh table gives it
        store = resources.store
        rng = np.random.default_rng(3)
        other = EmbeddingStore(store.words, store.vectors[rng.permutation(len(store))])
        shared = AssociativeTable(resources.ta.table)

        def run(s, ta, cap_m):
            res = replace(resources, store=s, ta=ta, cap_m=cap_m)
            out = []
            for model in (generate_model2, generate_model3):
                for seed in range(4):
                    try:
                        sent = model("sol", 7, res, seed)
                        out.append((sent.tokens, sent.trace))
                    except HomosyntaxError as e:
                        out.append((type(e).__name__, str(e)))
                        continue
                    for rec in sent.trace:
                        if "candidates" in rec:  # as scored from the words
                            vk = ta.words(rec["tag"], s)[:cap_m]
                            assert rec["candidates"] == score_candidates(
                                rec["o"], "sol", CandidateBlock.of(vk, s), s)
            return out

        for cap_m in (5, 200):
            fresh = {id(s): run(s, AssociativeTable(resources.ta.table), cap_m)
                     for s in (store, other)}
            assert fresh[id(store)] != fresh[id(other)]
            for s in (store, other, store, other):
                assert run(s, shared, cap_m) == fresh[id(s)]


class TestGenerate:
    def test_length_and_determinism(self, resources):
        a = generate_model3("sol", 6, resources, seed=3)
        b = generate_model3("sol", 6, resources, seed=3)
        assert len(a.tokens) == 6
        assert a.tokens == b.tokens

    def test_chosen_in_top3_scores(self, resources):
        for seed in range(6):
            sent = generate_model3("luna", 8, resources, seed=seed)
            for rec in sent.trace:
                if "candidates" in rec:
                    top3 = [c["w"] for c in rec["candidates"][:3]]
                    assert rec["chosen"] in top3
                else:
                    assert rec["fallback"] == "model2"
                    assert rec["chosen"] in rec["top3"]

    def test_trace_scores_match_oracle(self, resources):
        sent = generate_model3("guerra", 7, resources, seed=1)
        checked = 0
        for rec in sent.trace:
            if "candidates" not in rec or checked >= 2:
                continue
            vk = [c["w"] for c in rec["candidates"]]
            if len(vk) > 8:
                continue  # keep the pure-python oracle affordable
            oracle = _oracle_scores(rec["o"], "guerra", vk, resources.store)
            for c in rec["candidates"]:
                assert abs(c["s"] - oracle[c["w"]][0]) <= 1e-9
            checked += 1

    def test_content_words_attested(self, resources):
        for seed in range(6):
            sent = generate_model3("cielo", 9, resources, seed=seed)
            for rec in sent.trace:
                attested = {w for w, _ in resources.ta.table[rec["tag"]]}
                assert rec["chosen"] in attested

    def test_novelty(self, resources):
        for seed in range(6):
            sent = generate_model3("mar", 8, resources, seed=seed)
            assert resources.is_novel(sent.tokens)

    def test_invert_flag_changes_only_ranking(self, resources):
        a = generate_model3("sol", 6, resources, seed=3)
        b = generate_model3("sol", 6, replace(resources, invert=True), seed=3)
        assert len(a.tokens) == len(b.tokens) == 6

    def test_oov_query(self, resources):
        with pytest.raises(OovError):
            generate_model3("zzzqx", 6, resources, seed=0)

    def test_golden_output(self, resources):
        # frozen from a verified run on the fixture resources
        sent = generate_model3("sol", 6, resources, seed=3)
        assert sent.tokens == ("el", "bosque", "cantan", "un", "destino", ".")
        assert sent.text == "El bosque cantan un destino."

    def test_cap_m_restricts_candidates(self, resources):
        from dataclasses import replace

        small = replace(resources, cap_m=2)
        sent = generate_model3("sol", 6, small, seed=4)
        for rec in sent.trace:
            if "candidates" in rec:
                assert len(rec["candidates"]) <= 2


class TestUnsortedTable:
    def test_loads_and_generates_as_the_sorted_file(self, resources, tmp_path):
        # the table orders each tag's words itself, so a hand-edited
        # ta.jsonl in any order ranks and caps exactly like the built one
        rng = random.Random(0)
        path = tmp_path / "ta.jsonl"
        moved = 0
        with open(path, "w", encoding="utf-8") as f:
            for tag in sorted(resources.ta.table):
                words = list(resources.ta.table[tag])
                rng.shuffle(words)
                moved += words != list(resources.ta.table[tag])
                f.write(json.dumps({"tag": tag, "words": words}) + "\n")
        assert moved  # some tag's words are out of order in the file
        shuffled = AssociativeTable.load(path)
        assert shuffled.table == resources.ta.table
        store = resources.store
        for tag in sorted(resources.ta.table):
            for q in ("sol", "guerra", "luna"):
                assert rank_vocabulary(PosTag(tag), q, shuffled, store) == (
                    rank_vocabulary(PosTag(tag), q, resources.ta, store)
                )
        built = replace(resources, cap_m=2)
        edited = replace(built, ta=shuffled)
        for seed in range(4):
            a = generate_model3("sol", 7, built, seed=seed)
            b = generate_model3("sol", 7, edited, seed=seed)
            assert (a.tokens, a.trace) == (b.tokens, b.trace)


def _reference_top3(tag, q, store, ta):
    """Model 2's first three, word by word: one-pair proximities, sorted."""
    words = [w for w, _ in ta.table[tag] if w in store]
    ranked = sorted(
        words, key=lambda w: (-store.proximity(store.index[q], store.index[w]), w)
    )
    return tuple(ranked[:3])


class TestOovFallback:
    def test_top3_matches_reference_on_cold_and_warm_table(self, resources):
        # every length-7 template's first slot gets an original with no
        # vector, so that slot always falls back to model 2's ranking
        templates = {}
        for tid in resources.templates.by_length[7]:
            t = resources.templates.templates[tid]
            first = t.slots[0]
            items = tuple(replace(it, original="zzzqx") if it is first else it
                          for it in t.items)
            templates[tid] = replace(t, items=items)
        # a fresh table: the first pass ranks cold, the second from its memo
        ta = AssociativeTable(resources.ta.table)
        res = replace(resources, templates=TemplateStore(templates), ta=ta)
        for _ in ("cold", "warm"):
            fallbacks = 0
            for seed in range(4):
                for rec in generate_model3("sol", 7, res, seed=seed).trace:
                    if "fallback" not in rec:
                        continue
                    fallbacks += 1
                    # the key order of model 2's record, o and fallback
                    # after the tag in place of model 2's original
                    assert list(rec) == ["position", "tag", "o", "fallback",
                                         "top3", "chosen"]
                    assert rec["o"] == "zzzqx"
                    assert rec["top3"] == _reference_top3(
                        rec["tag"], "sol", res.store, ta
                    )
            assert fallbacks == 4  # one per sentence
