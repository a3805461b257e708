"""Model 2: template filling by query-proximity ranking of attested words.

The skeleton is a corpus template of the requested length, drawn by
``template_skeleton`` (shared with model 3). Each content slot's candidate
vocabulary comes from the associative table for the slot's tag; candidates
are ranked by proximity to the query and the replacement is drawn uniformly
from the top three.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from .embeddings import AssociativeTable, EmbeddingStore
from .errors import EmptyRankError
from .generation import GeneratedSentence, GenerationResources, generate
from .pos import PosTag
from .templates import Literal, Slot, select_template


def rank_vocabulary(
    tag: PosTag,
    q: str,
    ta: AssociativeTable,
    store: EmbeddingStore,
) -> tuple[tuple[str, float], ...]:
    """The first min(3, n) of the tag's n attested, in-vocabulary words by
    descending proximity to q, ties by word, as (word, proximity) pairs.

    Only the top three are ever drawn from, so only the words at or above
    the k-th largest proximity, k = min(3, n), found in linear time, are
    sorted. The tag's unit vectors are kept per store as one block in word
    order, made on the tag's first rank, so a new q reads them without a
    gather. The table and the store never change after load, so each result
    is memoized per (tag, q) for each store on first success, and shared.
    """
    memo, key = ta.memo(store), (tag.truncated, q)
    if key in memo:
        return memo[key]
    iq = store.row(q)
    rows, _ = ta.rows(tag.truncated, store)  # TableError if the tag is absent
    if not rows.size:
        raise EmptyRankError(f"no in-vocabulary candidate for tag {key[0]!r}")
    block = memo.get(key[:1])
    if block is None:
        block = memo[key[:1]] = store.unit_block(rows)
    prox = store.block_proximity(iq, block)
    k = min(3, prox.size)
    top = (prox >= np.partition(prox, -k)[-k]).nonzero()[0]
    # top is in word order, and sorted is stable: ties stay in word order
    ranked = sorted(zip(prox[top].tolist(), rows[top].tolist()), key=lambda pr: -pr[0])
    memo[key] = tuple((store.words[r], p) for p, r in ranked[:3])
    return memo[key]


def choose_top3(ranked: Sequence[tuple[str, float]], rng: random.Random) -> str:
    """Word of a uniform choice among the first min(3, len) (word, score)s."""
    if not ranked:
        raise EmptyRankError("cannot choose from an empty ranking")
    return ranked[rng.randrange(min(3, len(ranked)))][0]


def template_skeleton(res: GenerationResources, n: int):
    """Skeleton source of the template models: one length-n template."""

    def draw(rng: random.Random) -> tuple[str, tuple[Slot | Literal, ...]]:
        template = select_template(res.templates, n, rng)
        return template.source_id, template.items

    return draw


def generate_model2(
    q: str, n: int, res: GenerationResources, seed: int
) -> GeneratedSentence:
    def fill_slot(pos: int, slot: Slot, rng: random.Random) -> tuple[str, dict]:
        ranked = rank_vocabulary(slot.tag, q, res.ta, res.store)
        word = choose_top3(ranked, rng)
        return word, {
            "position": pos,
            "tag": slot.tag.truncated,
            "original": slot.original,
            "top3": [w for w, _ in ranked],
            "chosen": word,
        }

    return generate(2, q, res, seed, template_skeleton(res, n), fill_slot)
