import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.embeddings import EmbeddingStore
from homosyntax.errors import GenerationError, OovError, TableError
from homosyntax.generation import (
    DEFAULT_MAX_HOPS,
    DEFAULT_NEIGHBORS,
    FunctionWordDictionary,
)
from homosyntax.model1 import fill_content_with_relaxation, generate_model1
from homosyntax.morphology import FormsLexicon, inflect, matches_tag
from homosyntax.pos import PosTag, is_content

from conftest import FIXTURE_NEIGHBORS_M


class TestFillFunctional:
    """Model 1 fills a functional slot with rng.choice(fdict.forms_for(tag))."""

    def test_two_element_support(self):
        fdict = FunctionWordDictionary({"DA0M": ["el", "los"]})
        rng = random.Random(0)
        seen = {rng.choice(fdict.forms_for(PosTag("DA0M"))) for _ in range(50)}
        assert seen == {"el", "los"}

    def test_singleton(self):
        fdict = FunctionWordDictionary({"CC": ["y"]})
        assert fdict.forms_for(PosTag("CC")) == ["y"]

    def test_missing_tag(self):
        with pytest.raises(TableError,
                           match="no function-word entry for tag 'XX'"):
            FunctionWordDictionary({}).forms_for(PosTag("XX"))

    def test_seeded_draw_frozen(self):
        fdict = FunctionWordDictionary({"DA0M": ["el", "los", "un"]})
        got = random.Random(42).choice(fdict.forms_for(PosTag("DA0M")))
        assert got == "un"  # golden: random.Random(42).choice over 3 items


def _line_store(words):
    """Embedding store with distinct proximities: words on a line."""
    vecs = np.array([[1.0, 0.01 * i] for i in range(len(words))])
    return EmbeddingStore(words, vecs)


def _forms(rows):
    return FormsLexicon([(lemma, surf, tag, freq) for lemma, surf, tag, freq in rows])


class TestRelaxation:
    def test_immediate_hit(self):
        store = _line_store(["q", "luna", "sol"])
        forms = _forms([("luna", "luna", "NCFS000", 5)])
        word, hops, visited = fill_content_with_relaxation(
            PosTag("NCFS"), "q", store, forms, DEFAULT_NEIGHBORS, DEFAULT_MAX_HOPS
        )
        assert (word, hops) == ("luna", 0)
        assert visited == ["q"]

    def test_match_via_inflection(self):
        # only masculine surface near q; lexicon knows its feminine form
        store = _line_store(["q", "profesor", "sol"])
        forms = _forms(
            [
                ("profesor", "profesor", "NCMS000", 5),
                ("profesor", "profesora", "NCFS000", 4),
            ]
        )
        word, hops, _ = fill_content_with_relaxation(
            PosTag("NCFS"), "q", store, forms, DEFAULT_NEIGHBORS, DEFAULT_MAX_HOPS
        )
        assert (word, hops) == ("profesora", 0)

    def test_direct_match_preferred_over_inflection(self):
        store = _line_store(["q", "profesor", "luna"])
        forms = _forms(
            [
                ("profesor", "profesor", "NCMS000", 5),
                ("profesor", "profesora", "NCFS000", 4),
                ("luna", "luna", "NCFS000", 5),
            ]
        )
        word, _, _ = fill_content_with_relaxation(
            PosTag("NCFS"), "q", store, forms, DEFAULT_NEIGHBORS, DEFAULT_MAX_HOPS
        )
        assert word == "luna"

    def test_exhaustion(self):
        store = _line_store(["q", "a", "b"])
        forms = _forms([("a", "a", "NCMS000", 1)])  # tag VMIP never attested
        with pytest.raises(GenerationError, match="^no word fitting") as exc:
            fill_content_with_relaxation(
                PosTag("VMIP"), "q", store, forms, m=2, max_hops=3
            )
        assert str(exc.value) == (
            "no word fitting tag 'VMIP' within 3 relaxations of query 'q'"
        )

    def test_visited_grows_strictly(self, resources):
        word, hops, visited = fill_content_with_relaxation(
            PosTag("NCFS"),
            "amor",
            resources.store,
            resources.forms,
            m=resources.neighbors_m,
            max_hops=resources.max_hops,
        )
        assert len(visited) == len(set(visited))

    def test_oov_query(self, resources):
        with pytest.raises(OovError):
            fill_content_with_relaxation(
                PosTag("NCFS"),
                "zzzqx",
                resources.store,
                resources.forms,
                resources.neighbors_m,
                resources.max_hops,
            )


def _reference_fill(tag, q, store, forms, m, max_hops):
    """The relaxation loop as it was before its outcomes were kept."""
    visited = [q]
    current = q
    for hops in range(max_hops + 1):
        lexicon = [store.words[i] for i in store.neighbors(current, m).tolist()]
        for word in lexicon:
            if matches_tag(word, tag, forms):
                return word, hops, visited
        for word in lexicon:
            inflected = inflect(word, tag, forms)
            if inflected is not None:
                return inflected, hops, visited
        next_q = next((w for w in lexicon if w not in visited), None)
        if next_q is None:
            break
        visited.append(next_q)
        current = next_q
    raise GenerationError(
        f"no word fitting tag {tag.truncated!r} within {max_hops} relaxations "
        f"of query {q!r}"
    )


def _outcome(fill, *args):
    try:
        return fill(*args)
    except (GenerationError, OovError) as e:
        return type(e).__name__, str(e)


WORDS = ("sol", "luna", "mar", "profesor", "profesora", "canta", "cantan", "Rojo")
TAGS = ("NCMS000", "NCFS000", "NCMP000", "VMIP3S0", "VMIP3P0", "AQ0MS00")


class TestKeptFills:
    @settings(max_examples=60, deadline=None)
    @given(
        words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=8, unique=True),
        coords=st.lists(st.integers(min_value=-3, max_value=3), min_size=16,
                        max_size=16),
        rows=st.lists(
            st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS),
                      st.sampled_from(TAGS), st.integers(min_value=1, max_value=3)),
            max_size=12,
        ),
        slots=st.lists(
            st.tuples(st.sampled_from(TAGS), st.integers(min_value=0, max_value=8)),
            min_size=1, max_size=4,
        ),
    )
    def test_repeated_fills_equal_the_reference(self, words, coords, rows, slots):
        vectors = np.array(coords[: 2 * len(words)], dtype=float).reshape(-1, 2)
        store = EmbeddingStore(words, vectors)
        forms = _forms(rows)
        # each slot under several settings; one query index in len(words) + 1
        # stands for an unknown word
        calls = [
            (tag, (*words, "zzzqx")[i % (len(words) + 1)], m, max_hops)
            for tag, i in slots for m in (1, 2, 4) for max_hops in (0, 1, 3)
        ]
        for _ in range(2):
            for tag, q, m, max_hops in calls:
                args = (PosTag(tag), q, store, forms, m, max_hops)
                got = _outcome(fill_content_with_relaxation, *args)
                assert got == _outcome(_reference_fill, *args)
                if isinstance(got[-1], list):
                    got[-1].append("mutated")  # must not reach the next call
        # a second store of the same words keeps its own fills
        other = EmbeddingStore(words, vectors[::-1].copy())
        for tag, q, m, max_hops in calls:
            args = (PosTag(tag), q, other, forms, m, max_hops)
            assert _outcome(fill_content_with_relaxation, *args) == _outcome(
                _reference_fill, *args
            )

    def test_kept_error_is_raised_afresh(self):
        store = _line_store(["q", "a", "b"])
        forms = _forms([("a", "a", "NCMS000", 1)])
        errors = []
        for _ in range(2):
            with pytest.raises(GenerationError, match="^no word fitting") as exc:
                fill_content_with_relaxation(PosTag("VMIP"), "q", store, forms, 2, 3)
            errors.append(exc.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_every_fixture_fill_equals_the_reference(self, resources):
        # at the benchmark's setting, every store word as the query under
        # every content tag the skeletons draw, on a fresh store in each of
        # two query orders: each cold fill, and its warm repeat, must equal
        # the word-by-word loop's outcome
        words, forms = resources.store.words, resources.forms
        tags = sorted({PosTag(s).truncated for s in resources.matrix.states
                       if is_content(PosTag(s))})
        calls = [(PosTag(tag), q) for tag in tags for q in words]

        def fresh():
            return EmbeddingStore(words, resources.store.vectors)

        reference = fresh()
        expected = {
            (tag.truncated, q): _outcome(_reference_fill, tag, q, reference, forms,
                                         FIXTURE_NEIGHBORS_M, 5)
            for tag, q in calls
        }
        # the fixture reaches every way out of the walk: a direct word, an
        # inflected form missing from the store, a relaxation and an error
        fills = [o for o in expected.values() if o[0] != "GenerationError"]
        assert any(word in reference for word, _, _ in fills)
        assert any(word not in reference for word, _, _ in fills)
        assert any(hops > 0 for _, hops, _ in fills)
        assert len(fills) < len(expected)
        for order in (calls, calls[::-1]):
            store = fresh()
            for _ in ("cold", "warm"):
                for tag, q in order:
                    got = _outcome(fill_content_with_relaxation, tag, q, store,
                                   forms, FIXTURE_NEIGHBORS_M, 5)
                    assert got == expected[tag.truncated, q], (tag.truncated, q)


class TestGenerate:
    def test_length_contract(self, resources):
        for n in (4, 7, 12):
            sent = generate_model1("amor", n, resources, seed=1)
            assert len(sent.tokens) == n

    def test_determinism(self, resources):
        a = generate_model1("amor", 6, resources, seed=42)
        b = generate_model1("amor", 6, resources, seed=42)
        assert a.tokens == b.tokens
        assert a.text == b.text

    def test_novelty(self, resources):
        for seed in range(10):
            sent = generate_model1("guerra", 8, resources, seed=seed)
            assert resources.is_novel(sent.tokens)

    def test_trace_covers_all_slots(self, resources):
        sent = generate_model1("sol", 9, resources, seed=5)
        assert [r["position"] for r in sent.trace] == list(range(9))
        assert all(r["chosen"] for r in sent.trace)

    def test_content_words_trace_to_queries(self, resources):
        # every content token came from a visited neighborhood or inflection
        sent = generate_model1("luna", 8, resources, seed=3)
        for rec in sent.trace:
            if rec["kind"] != "content":
                continue
            candidates = set()
            for q in rec["queries"]:
                rows = resources.store.neighbors(q, resources.neighbors_m)
                candidates.update(resources.store.words[i] for i in rows)
            chosen = rec["chosen"]
            direct = chosen in candidates
            via_inflection = any(
                chosen
                in {
                    s
                    for lemma in resources.forms.lemmas_of.get(w, ())
                    for s, _, _ in resources.forms.forms[lemma]
                }
                for w in candidates
            )
            assert direct or via_inflection

    def test_oov_query_rejected(self, resources):
        with pytest.raises(OovError):
            generate_model1("zzzqx", 5, resources, seed=0)

    def test_golden_output(self, resources):
        # frozen from a verified run on the fixture resources
        sent = generate_model1("amor", 5, resources, seed=42)
        assert sent.tokens == ("el", "destino", "y", "la", "nieve")
        assert sent.text == "El destino y la nieve"
