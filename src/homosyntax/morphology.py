"""Lexicon-backed inflection: map a word to a surface form matching a tag.

There are no generative conjugation rules here. A forms lexicon (data file,
``lemma<TAB>surface<TAB>fulltag<TAB>freq``) declares which surface forms
exist for each lemma; inflection is an exact lookup over it.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FormatError, load_rows, read_tsv
from .pos import PosTag, tag_of, truncate


class FormsLexicon:
    """A forms lexicon, each value kept once, in tuples: ``forms`` maps a
    lemma to its (surface, fulltag, freq) rows in file order, ``lemmas_of`` a
    surface to its lemmas and ``attested`` a surface to its truncated tags.
    Tags are ``tag_of``'s strings and a surface equal to its lemma is the
    lemma's string. A repeated (lemma, surface, fulltag) keeps its first frequency."""

    def __init__(self, entries: list[tuple[str, str, str, int]]):
        self.forms: dict[str, tuple[tuple[str, str, int], ...]] = {}
        self.lemmas_of: dict[str, tuple[str, ...]] = {}
        self.attested: dict[str, tuple[str, ...]] = {}
        for entry in entries:
            self._add(*entry)

    def _add(self, lemma: str, surface: str, fulltag: str, freq: int) -> None:
        """Record one form while the lexicon is built; a repeated (lemma,
        surface, fulltag) is ignored."""
        tag = tag_of(fulltag)  # ValueError for an empty tag or one with whitespace
        if freq < 0:
            raise FormatError(f"negative frequency for form {surface!r}")
        rows = self.forms.get(lemma, ())
        if rows and any(s == surface and t == tag.full for s, t, _ in rows):
            return
        surface = lemma if surface == lemma else surface
        self.forms[lemma] = (*rows, (surface, tag.full, freq))
        for table, value in ((self.lemmas_of, lemma), (self.attested, tag.truncated)):
            held = table.get(surface, ())
            if value not in held:
                table[surface] = (*held, value)

    @classmethod
    def load(cls, path: str | Path) -> "FormsLexicon":
        lex = cls([])
        rows = read_tsv(path, 4)
        load_rows(rows, path, "bad forms row", lambda r: lex._add(*r[:3], int(r[3])))
        return lex


def matches_tag(word: str, target: PosTag, lex: FormsLexicon) -> bool:
    """True iff the lexicon attests this surface under the target truncation."""
    return target.truncated in lex.attested.get(word.lower(), ())


def inflect(word: str, target: PosTag, lex: FormsLexicon) -> str | None:
    """Surface form of word's lemma matching the target tag, or None.

    A word that already satisfies the tag is returned unchanged. Among
    multiple candidate forms the highest-frequency one wins, ties broken
    lexicographically.
    """
    low = word.lower()
    if matches_tag(low, target, lex):
        return low
    candidates = []
    # the lemma itself may also head an entry without appearing as a surface
    for lemma in lex.lemmas_of.get(low) or ((low,) if low in lex.forms else ()):
        for surface, fulltag, freq in lex.forms[lemma]:
            if truncate(fulltag) == target.truncated:
                candidates.append((surface, freq))
    if not candidates:
        return None
    return min(candidates, key=lambda sf: (-sf[1], sf[0]))[0]
