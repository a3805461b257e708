"""Lexicon-backed inflection: map a word to a surface form matching a tag.

There are no generative conjugation rules here. A forms lexicon (data file,
``lemma<TAB>surface<TAB>fulltag<TAB>freq``) declares which surface forms
exist for each lemma; inflection is an exact lookup over it.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FormatError, load_rows, read_tsv
from .pos import PosTag, truncate


class FormsLexicon:
    def __init__(self, entries: list[tuple[str, str, str, int]]):
        # lemma -> [(surface, fulltag, freq)]
        self.forms: dict[str, list[tuple[str, str, int]]] = {}
        # surface -> lemmas it belongs to
        self.lemmas_of: dict[str, set[str]] = {}
        # surface -> truncated tags it is attested under
        self.attested: dict[str, set[str]] = {}
        self._seen: set[tuple[str, str, str]] = set()
        for entry in entries:
            self._add(*entry)

    def _add(self, lemma: str, surface: str, fulltag: str, freq: int) -> None:
        """Record one form while the lexicon is built; a repeated (lemma,
        surface, fulltag) is ignored."""
        if not fulltag:
            raise ValueError(f"empty tag for form {surface!r}")
        if freq < 0:
            raise FormatError(f"negative frequency for form {surface!r}")
        key = (lemma, surface, fulltag)
        if key in self._seen:
            return
        self._seen.add(key)
        self.forms.setdefault(lemma, []).append((surface, fulltag, freq))
        self.lemmas_of.setdefault(surface, set()).add(lemma)
        self.attested.setdefault(surface, set()).add(truncate(fulltag))

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
