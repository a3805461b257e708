import hashlib
import random
from collections import Counter

import pytest

from homosyntax.corpus import SentenceRecord
from homosyntax.errors import TableError
from homosyntax.pos import PosTag, TaggedSentence, is_content
from homosyntax.templates import (
    Literal,
    Slot,
    TemplateStore,
    extract_template,
    select_template,
)


# sha256 of the fixture store's templates.jsonl: the bytes that `save` must
# keep writing, whatever the store's in-memory shape
FIXTURE_TEMPLATES_SHA256 = (
    "46ee46633510cec755e660d356d0d0d900f6e68468e2b55dda78e9c4e0aa6e8e"
)


def _ts(pairs, doc_id="d", index=0):
    tokens = tuple((w, PosTag(t)) for w, t in pairs)
    src = SentenceRecord(doc_id, index, tuple(w for w, _ in tokens))
    return TaggedSentence(tokens=tokens, source=src)


def _store(*sentences):
    return TemplateStore.from_sentences([_ts(pairs, index=i)
                                         for i, pairs in enumerate(sentences)])


class TestExtract:
    def test_basic_hollowing(self):
        ts = _ts([("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0")])
        t = extract_template(ts)
        assert t.items == (Literal("el"), Slot(PosTag("NCMS"), "sol"),
                           Slot(PosTag("VMIP"), "brilla"))

    def test_all_functional_fails(self):
        ts = _ts([("de", "SPS00"), ("la", "DA0FS0"), ("a", "SPS00")])
        with pytest.raises(ValueError, match="sentence d:0 has no content words"):
            extract_template(ts)

    def test_identity_fill_round_trip(self, tagged):
        for ts in tagged[:100]:
            t = extract_template(ts)
            assert t.identity_fill() == ts.surfaces

    def test_slot_count_matches_classifier(self, tagged):
        for ts in tagged[:100]:
            t = extract_template(ts)
            content = sum(is_content(tag) for _, tag in ts.tokens)
            assert len(t.slots) == content

    def test_punctuation_is_literal(self):
        ts = _ts([("sol", "NCMS000"), (",", "Fc"), ("arde", "VMIP3S0"),
                  (".", "Fp")])
        t = extract_template(ts)
        assert t.items[1] == Literal(",")
        assert t.items[3] == Literal(".")


class TestStore:
    def test_select_singleton(self):
        store = _store([("el", "DA0MS0"), ("sol", "NCMS000"),
                        ("brilla", "VMIP3S0"), ("hoy", "RG"), (".", "Fp")])
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 5

    def test_nearest_length_fallback(self):
        four = [("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0"),
                (".", "Fp")]
        eight = [("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0"),
                 ("sobre", "SPS00"), ("el", "DA0MS0"), ("mar", "NCMS000"),
                 ("frío", "AQ0MS00"), (".", "Fp")]
        store = _store(four, eight)
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 4  # distance 1 beats distance 3

    def test_nearest_tie_prefers_smaller(self):
        head = [("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0")]
        store = _store(head + [(".", "Fp")],  # length 4
                       head + [("hoy", "RG")] * 2 + [(".", "Fp")])  # length 6
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 4

    def test_empty_store(self):
        with pytest.raises(TableError, match="template store is empty"):
            select_template(TemplateStore({}), 5, random.Random(0))

    def test_ids_in_build_order_by_length(self):
        short = [("sol", "NCMS000"), (".", "Fp")]
        longer = [("el", "DA0MS0"), ("sol", "NCMS000"), (".", "Fp")]
        untemplatable = [("de", "SPS00"), (".", "Fp")]
        store = _store(short, untemplatable, longer, short)
        assert list(store.templates) == ["t000000", "t000001", "t000002"]
        assert store.by_length == {2: ["t000000", "t000002"], 3: ["t000001"]}

    def test_selection_deterministic(self, template_store):
        a = select_template(template_store, 8, random.Random(7))
        b = select_template(template_store, 8, random.Random(7))
        assert a == b

    def test_selection_roughly_uniform(self, template_store):
        # all templates of one length should be drawn comparably often
        length = min(template_store.by_length)
        ids = template_store.by_length[length]
        if len(ids) < 2:
            pytest.skip("need several templates of one length")
        rng = random.Random(123)
        draws = 300 * len(ids)
        counts = Counter(
            select_template(template_store, length, rng).source_id
            for _ in range(draws)
        )
        expected = draws / len(ids)
        sigma = (draws * (1 / len(ids)) * (1 - 1 / len(ids))) ** 0.5
        for c in counts.values():
            assert abs(c - expected) <= 4 * sigma


class TestSerialization:
    def test_jsonl_round_trip(self, template_store, tmp_path):
        path = tmp_path / "templates.jsonl"
        template_store.save(path)
        back = TemplateStore.load(path)
        assert len(back) == len(template_store)
        assert back.templates == template_store.templates
        assert back.by_length == template_store.by_length

    def test_fixture_store_bytes_are_pinned(self, template_store, tmp_path):
        path = tmp_path / "templates.jsonl"
        template_store.save(path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIXTURE_TEMPLATES_SHA256
        TemplateStore.load(path).save(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == data
