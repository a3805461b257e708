"""Model 1: Markov-generated skeleton filled from embedding neighborhoods.

The skeleton is a tag sequence decoded from the POS transition matrix: one
walk, conditioned on the sentence ending after its last tag. A length that
no such walk has ends the request. Functional slots draw uniformly from the
function-word dictionary, and a skeleton-final punctuation slot is a period.
Content slots take the first neighbor of the query that fits the slot's
tag, trying inflection before relaxing the query to its nearest unvisited
neighbor; a slot that no relaxation fills costs one attempt of
``generation.generate``, and the next attempt draws a fresh skeleton.
"""

from __future__ import annotations

import random

from .embeddings import EmbeddingStore
from .errors import GenerationError
from .generation import (
    GeneratedSentence,
    GenerationResources,
    generate,
)
from .markov import generate_egv
from .morphology import FormsLexicon, inflect, matches_tag
from .pos import PosTag, is_content


def fill_content_with_relaxation(
    tag: PosTag,
    q: str,
    store: EmbeddingStore,
    forms: FormsLexicon,
    m: int,
    max_hops: int,
) -> tuple[str, int, tuple[str, ...]]:
    """Find a tag-fitting word in L(Q), relaxing Q to Q* when needed.

    Returns (word, hops, visited queries). A word fits either directly
    (attested under the tag) or through inflection. An out-of-vocabulary q
    raises OovError from the first neighbor query; a spent hop budget raises
    GenerationError, which costs the request one attempt of the driver.

    The outcome depends only on (q, tag.truncated, m, max_hops), the store
    and the lexicon, and neither changes once loaded, so it is kept in
    ``store.memo`` under a key holding the lexicon, which the store keeps
    alive: the word (None when the budget ran out), the hops and the visited
    queries. Each call gets the kept tuple of them, or an error of its own.
    A cold fill reads each neighbor's fit under the tag from the entry
    ``("fit", forms, tag.truncated)``: per store row, whether it is attested
    under the tag and its inflected form or None, each worked out when a pass
    first reaches the row.
    """
    key = ("fill", forms, q, tag.truncated, m, max_hops)
    outcome = store.memo.get(key)
    if outcome is None:
        outcome = store.memo[key] = _relax(tag, q, store, forms, m, max_hops)
    word, hops, visited = outcome
    if word is None:
        raise GenerationError(
            f"no word fitting tag {tag.truncated!r} within {max_hops} "
            f"relaxations of query {q!r}"
        )
    return word, hops, visited


def _relax(
    tag: PosTag,
    q: str,
    store: EmbeddingStore,
    forms: FormsLexicon,
    m: int,
    max_hops: int,
) -> tuple[str | None, int, tuple[str, ...]]:
    attested, inflected = store.memo.setdefault(("fit", forms, tag.truncated), ({}, {}))
    words = store.words
    visited = [q]
    current = q
    for hops in range(max_hops + 1):
        rows = store.neighbors(current, m).tolist()
        for i in rows:
            if i not in attested:
                attested[i] = matches_tag(words[i], tag, forms)
            if attested[i]:
                return words[i], hops, tuple(visited)
        for i in rows:
            if i not in inflected:
                inflected[i] = inflect(words[i], tag, forms)
            if inflected[i] is not None:
                return inflected[i], hops, tuple(visited)
        # relax: nearest neighbor of the current query not yet visited
        next_q = next((words[i] for i in rows if words[i] not in visited), None)
        if next_q is None:
            break
        visited.append(next_q)
        current = next_q
    return None, max_hops, tuple(visited)


def generate_model1(
    q: str, n: int, res: GenerationResources, seed: int
) -> GeneratedSentence:
    def fill_slot(pos: int, tag: PosTag, rng: random.Random) -> tuple[str, dict]:
        relaxation = {}
        if is_content(tag):
            word, hops, visited = fill_content_with_relaxation(
                tag, q, res.store, res.forms, res.neighbors_m, res.max_hops
            )
            relaxation = {"hops": hops, "queries": visited}
        elif pos == n - 1 and tag.category == "F":
            # a skeleton-final punctuation slot always realizes as a period
            word = "."
        else:
            word = rng.choice(res.funcdict.forms_for(tag))
        kind = "content" if relaxation else "functional"
        record = {"position": pos, "tag": tag.truncated, "kind": kind, "chosen": word}
        return word, {**record, **relaxation}

    def skeleton(rng: random.Random) -> tuple[str, tuple[PosTag, ...]]:
        return "markov", generate_egv(res.matrix, n, res.policy, rng)

    return generate(1, q, res, seed, skeleton, fill_slot)
