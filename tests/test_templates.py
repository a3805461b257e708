import random
from collections import Counter

import pytest

from homosyntax.corpus import SentenceRecord
from homosyntax.errors import StoreError, TemplateError
from homosyntax.pos import PosTag, TaggedSentence, is_content
from homosyntax.templates import (
    Literal,
    Slot,
    TemplateStore,
    extract_template,
    select_template,
)


def _ts(pairs, doc_id="d", index=0):
    tokens = tuple((w, PosTag(t)) for w, t in pairs)
    src = SentenceRecord(doc_id, index, tuple(w for w, _ in tokens), 0)
    return TaggedSentence(tokens=tokens, source=src)


class TestExtract:
    def test_basic_hollowing(self):
        ts = _ts([("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0")])
        t = extract_template(ts)
        assert t.items[0] == Literal(0, "el")
        assert t.items[1] == Slot(1, PosTag("NCMS"), "sol")
        assert t.items[2] == Slot(2, PosTag("VMIP"), "brilla")

    def test_all_functional_fails(self):
        ts = _ts([("de", "SPS00"), ("la", "DA0FS0"), ("a", "SPS00")])
        with pytest.raises(TemplateError):
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
        assert t.items[1] == Literal(1, ",")
        assert t.items[3] == Literal(3, ".")


class TestStore:
    def test_select_singleton(self):
        store = TemplateStore()
        ts = _ts([("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0"),
                  ("hoy", "RG"), (".", "Fp")])
        store.add(extract_template(ts))
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 5

    def test_nearest_length_fallback(self):
        store = TemplateStore()
        four = _ts([("el", "DA0MS0"), ("sol", "NCMS000"),
                    ("brilla", "VMIP3S0"), (".", "Fp")])
        eight = _ts(
            [("el", "DA0MS0"), ("sol", "NCMS000"), ("brilla", "VMIP3S0"),
             ("sobre", "SPS00"), ("el", "DA0MS0"), ("mar", "NCMS000"),
             ("frío", "AQ0MS00"), (".", "Fp")],
            index=1,
        )
        store.add(extract_template(four))
        store.add(extract_template(eight))
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 4  # distance 1 beats distance 3

    def test_nearest_tie_prefers_smaller(self):
        store = TemplateStore()
        for i, n_extra in enumerate((0, 2)):  # lengths 4 and 6
            pairs = [("el", "DA0MS0"), ("sol", "NCMS000"),
                     ("brilla", "VMIP3S0")]
            pairs += [("hoy", "RG")] * n_extra
            pairs += [(".", "Fp")]
            store.add(extract_template(_ts(pairs, index=i)))
        got = select_template(store, 5, random.Random(0))
        assert len(got) == 4

    def test_empty_store(self):
        with pytest.raises(StoreError):
            select_template(TemplateStore(), 5, random.Random(0))

    def test_selection_deterministic(self, template_store):
        a = select_template(template_store, 8, random.Random(7))
        b = select_template(template_store, 8, random.Random(7))
        assert a == b

    def test_selection_roughly_uniform(self, template_store):
        # all templates of one length should be drawn comparably often
        length = template_store.lengths()[0]
        ids = template_store._by_length[length]
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
        for tid in template_store.ids()[:50]:
            assert back.get(tid) == template_store.get(tid)
