import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.errors import FormatError
from homosyntax.morphology import FormsLexicon, inflect, matches_tag
from homosyntax.pos import PosTag, tag_of


class TestInflect:
    def test_gender_conversion(self, forms_lexicon):
        assert inflect("profesor", PosTag("NCFS"), forms_lexicon) == "profesora"

    def test_identity_when_tag_satisfied(self, forms_lexicon):
        assert inflect("sol", PosTag("NCMS"), forms_lexicon) == "sol"

    def test_oov(self, forms_lexicon):
        assert inflect("zzzqx", PosTag("NCMS"), forms_lexicon) is None

    def test_number_conversion(self, forms_lexicon):
        assert inflect("luna", PosTag("NCFP"), forms_lexicon) == "lunas"

    def test_verb_number(self, forms_lexicon):
        assert inflect("brilla", PosTag("VMIP"), forms_lexicon) == "brilla"
        # brilla and brillan share the VMIP truncation, so both satisfy it
        assert matches_tag("brillan", PosTag("VMIP"), forms_lexicon)

    def test_adjective_gender(self, forms_lexicon):
        assert inflect("eterno", PosTag("AQ0F"), forms_lexicon) == "eterna"

    def test_output_always_matches(self, forms_lexicon):
        targets = [PosTag(t) for t in ("NCMS", "NCFS", "NCMP", "NCFP",
                                       "AQ0M", "AQ0F", "VMIP", "VMN0")]
        for word in list(forms_lexicon.lemmas_of)[:80]:
            for target in targets:
                got = inflect(word, target, forms_lexicon)
                if got is not None:
                    assert matches_tag(got, target, forms_lexicon)


class TestMatchesTag:
    def test_attested(self, forms_lexicon):
        assert matches_tag("luna", PosTag("NCFS"), forms_lexicon)

    def test_wrong_tag(self, forms_lexicon):
        assert not matches_tag("luna", PosTag("VMIP"), forms_lexicon)

    def test_consistency_law(self, forms_lexicon):
        targets = [PosTag(t) for t in ("NCMS", "NCFS", "AQ0M", "VMIP")]
        for word in list(forms_lexicon.lemmas_of)[:80]:
            for t in targets:
                if matches_tag(word, t, forms_lexicon):
                    assert inflect(word, t, forms_lexicon) == word.lower()

    def test_case_insensitive(self, forms_lexicon):
        assert matches_tag("Luna", PosTag("NCFS"), forms_lexicon)


class TestLoad:
    def test_bad_arity(self, tmp_path):
        p = tmp_path / "forms.tsv"
        p.write_text("luna\tluna\tNCFS000\n")
        with pytest.raises(FormatError):
            FormsLexicon.load(p)

    def test_frequency_tiebreak(self, tmp_path):
        p = tmp_path / "forms.tsv"
        p.write_text(
            "x\txa\tNCFS000\t1\n"
            "x\txb\tNCFS000\t5\n"
            "x\txc\tNCFS000\t5\n"
        )
        lex = FormsLexicon.load(p)
        # highest frequency wins, then lexicographic
        assert inflect("x", PosTag("NCFS"), lex) == "xb"


# "ir" and "mar" head entries without being listed as a surface of any lemma;
# NCMS000 and NCMS001 share a truncation
LEMMAS = ("sol", "luna", "ir", "mar")
SURFACES = ("sol", "soles", "luna", "lunas", "va", "van")
FULLTAGS = ("NCMS000", "NCMS001", "NCFS000", "NCMP000", "VMIP3S0", "AQ0MS00")


@st.composite
def form_entries(draw):
    """Forms rows, some (lemma, surface, fulltag) repeated with another
    frequency, before or after the row they repeat."""
    rows = draw(st.lists(st.tuples(st.sampled_from(LEMMAS), st.sampled_from(SURFACES),
                                   st.sampled_from(FULLTAGS), st.integers(0, 5)),
                         max_size=20))
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        lemma, surface, fulltag, _ = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))),
                    (lemma, surface, fulltag, draw(st.integers(0, 5))))
    return rows


class SetLexicon:
    """Reference: the lexicon in sets, a repeated (lemma, surface, fulltag)
    dropped through a seen-set, so that its first frequency stays."""

    def __init__(self, entries):
        self.forms, self.lemmas_of, self.attested, seen = {}, {}, {}, set()
        for lemma, surface, fulltag, freq in entries:
            if (lemma, surface, fulltag) not in seen:
                seen.add((lemma, surface, fulltag))
                self.forms.setdefault(lemma, []).append((surface, fulltag, freq))
                self.lemmas_of.setdefault(surface, set()).add(lemma)
                self.attested.setdefault(surface, set()).add(fulltag[:4])

    def matches_tag(self, word, truncated):
        return truncated in self.attested.get(word.lower(), set())

    def inflect(self, word, truncated):
        low = word.lower()
        if self.matches_tag(low, truncated):
            return low
        lemmas = self.lemmas_of.get(low) or ({low} if low in self.forms else set())
        candidates = {(s, f) for lemma in lemmas for s, t, f in self.forms[lemma]
                      if t[:4] == truncated}
        if not candidates:
            return None
        return min(candidates, key=lambda sf: (-sf[1], sf[0]))[0]


class TestAgainstSetReference:
    @settings(max_examples=300, deadline=None)
    @given(form_entries())
    def test_answers_and_rows_match_the_reference(self, entries):
        lex, ref = FormsLexicon(entries), SetLexicon(entries)
        # each (lemma, surface, fulltag) once, at its first row and frequency
        assert lex.forms == {lemma: tuple(rows) for lemma, rows in ref.forms.items()}
        for table, want in ((lex.lemmas_of, ref.lemmas_of), (lex.attested, ref.attested)):
            assert {k: set(v) for k, v in table.items()} == want
            assert all(len(set(v)) == len(v) for v in table.values())
        words = LEMMAS + SURFACES + ("Sol", "LUNAS", "zzz")
        for word in words:
            for target in map(tag_of, FULLTAGS + ("NCFP000", "AQ0FS00")):
                assert matches_tag(word, target, lex) == ref.matches_tag(
                    word, target.truncated)
                assert inflect(word, target, lex) == ref.inflect(word, target.truncated)

    def test_repeated_form_keeps_its_first_frequency(self):
        lex = FormsLexicon([("x", "xa", "NCFS000", 1), ("x", "xb", "NCFS000", 3),
                            ("x", "xa", "NCFS000", 9)])
        assert lex.forms == {"x": (("xa", "NCFS000", 1), ("xb", "NCFS000", 3))}
        assert inflect("x", PosTag("NCFS"), lex) == "xb"

    def test_rows_share_tag_strings(self, forms_lexicon):
        rows = [row for forms in forms_lexicon.forms.values() for row in forms]
        assert all(fulltag is tag_of(fulltag).full for _, fulltag, _ in rows)

    def test_surface_equal_to_its_lemma_is_the_lemma_string(self):
        lemma, surface = "sol", "".join(["s", "ol"])  # equal, not one object
        lex = FormsLexicon([("sol", "soles", "NCMP000", 1), (lemma, surface, "NCMS000", 3)])
        assert lex.forms["sol"][1][0] is lemma
        assert next(k for k in lex.lemmas_of if k == "sol") is lemma
