import pytest
from hypothesis import given, strategies as st

from homosyntax.corpus import SentenceRecord
from homosyntax import pos
from homosyntax.pos import (
    PosTag,
    is_content,
    read_tagged_tsv,
    tag_sentence,
    truncate,
    write_tagged_tsv,
)

tags = st.text(
    alphabet="NVARDPCSFZWIM0123", min_size=1, max_size=7
)


class TestTruncate:
    def test_noun_example(self):
        assert PosTag("NCMS000").truncated == "NCMS"

    def test_short_tag(self):
        assert PosTag("CC").truncated == "CC"

    def test_verb_tag(self):
        assert PosTag("VMIP3S0").truncated == "VMIP"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^empty POS tag$"):
            PosTag("")

    @given(tags)
    def test_idempotent(self, full):
        once = PosTag(full)
        again = PosTag(once.truncated)
        assert again.truncated == once.truncated

    @given(tags)
    def test_prefix_and_category(self, full):
        t = PosTag(full)
        assert t.truncated == full[:4]
        assert t.category == full[0]

    @given(tags)
    def test_derived_fields_leave_equality_hash_and_repr_alone(self, full):
        t = PosTag(full)
        assert (t.truncated, t.category) == (truncate(full), full[0])
        assert t == PosTag(full)
        assert hash(t) == hash((full,))
        assert repr(t) == f"PosTag(full={full!r})"

    def test_each_derived_field_is_worked_out_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pos, "truncate", lambda t: calls.append(t) or t[:4])
        tag = PosTag("NCMS000")
        assert [tag.truncated, tag.truncated, tag.truncated] == ["NCMS"] * 3
        assert [tag.category, tag.category] == ["N", "N"]
        assert calls == ["NCMS000"]
        assert vars(tag) == {"full": "NCMS000", "truncated": "NCMS", "category": "N"}


class TestClassify:
    def test_noun(self):
        assert is_content(PosTag("NCMS"))

    def test_verb(self):
        assert is_content(PosTag("VMIP"))

    def test_article_functional(self):
        assert not is_content(PosTag("DA0M"))

    def test_preposition_functional(self):
        assert not is_content(PosTag("SPS00"))

    @given(tags)
    def test_depends_only_on_first_char(self, full):
        assert is_content(PosTag(full)) == (full[0] in ("N", "V", "A"))


class TestTagger:
    def test_profesor(self, tagger_lexicon):
        s = SentenceRecord("d", 0, ("Profesor",))
        ts = tag_sentence(s, tagger_lexicon)
        assert ts.tokens[0][1].full == "NCMS000"

    def test_preposition_classified_functional(self, tagger_lexicon):
        s = SentenceRecord("d", 0, ("de",))
        ts = tag_sentence(s, tagger_lexicon)
        tag = ts.tokens[0][1]
        assert tag.category == "S"
        assert not is_content(tag)

    def test_unknown_token_total(self, tagger_lexicon):
        s = SentenceRecord("d", 0, ("zzzqx", "Zzzqx", "el"))
        ts = tag_sentence(s, tagger_lexicon)
        assert len(ts.tokens) == 3
        assert all(tag.full for _, tag in ts.tokens)
        assert ts.tokens[1][1].full == "NCMS000"  # capitalized fallback

    def test_never_reorders(self, sentences, tagger_lexicon):
        for s in sentences[:50]:
            ts = tag_sentence(s, tagger_lexicon)
            assert ts.surfaces == s.tokens

    def test_deterministic(self, sentences, tagger_lexicon):
        s = sentences[0]
        assert tag_sentence(s, tagger_lexicon) == tag_sentence(s, tagger_lexicon)


class TestTsvRoundTrip:
    def test_one_tag_object_per_tag_string(self, sentences, tagger_lexicon, tmp_path):
        tagged = [tag_sentence(s, tagger_lexicon) for s in sentences[:50]]
        write_tagged_tsv(tagged, tmp_path / "tagged.tsv")
        for corpus in (tagged, read_tagged_tsv(tmp_path / "tagged.tsv")):
            seen: dict[str, PosTag] = {}
            tags = [tag for ts in corpus for _, tag in ts.tokens]
            assert all(seen.setdefault(tag.full, tag) is tag for tag in tags)
            assert len(seen) < len(tags) / 5

    def test_round_trip(self, tagged, tmp_path):
        path = tmp_path / "tagged.tsv"
        write_tagged_tsv(tagged[:20], path)
        back = read_tagged_tsv(path)
        assert len(back) == 20
        for a, b in zip(tagged[:20], back):
            assert a.tokens == b.tokens

    def test_format_is_bit_exact(self, tagged, tmp_path):
        path = tmp_path / "tagged.tsv"
        write_tagged_tsv(tagged[:1], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        first = raw.decode("utf-8").splitlines()[0]
        surface, tag = first.split("\t")
        assert (surface, tag) == (
            tagged[0].tokens[0][0],
            tagged[0].tokens[0][1].full,
        )
