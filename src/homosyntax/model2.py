"""Model 2: template filling by query-proximity ranking of attested words.

The skeleton is a corpus template of the requested length, drawn by
``template_skeleton`` (shared with model 3). Each content slot's candidate
vocabulary comes from the associative table for the slot's tag; candidates
are ranked by proximity to the query and the replacement is drawn uniformly
from the top three.
"""

from __future__ import annotations

import random

from .embeddings import AssociativeTable, EmbeddingStore, top_k
from .errors import GenerationError
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

    Only the top three are ever drawn from, so ``top_k`` sorts only the words
    at or above the third. The tag's ``ta.words``, their unit vectors and
    ``store.word_rank`` form one block, made on the tag's first rank, so a new
    q reads them without a gather; model 3 cuts its candidates from the same
    ``ta.words``. The table and the store never change after load, so the
    block and each (tag, q) result are kept in ``store.memo`` on first
    success, under keys holding the table, which the store keeps alive.
    """
    memo, key = store.memo, ("top3", ta, tag.truncated, q)
    if key in memo:
        return memo[key]
    iq = store.row(q)
    unit_key = "unit", ta, tag.truncated
    if unit_key not in memo:
        words = ta.words(tag.truncated, store)  # TableError if the tag is absent
        if not words:
            raise GenerationError(f"no in-vocabulary candidate for tag {tag.truncated!r}")
        rows = [store.index[w] for w in words]
        memo[unit_key] = words, store.unit_block(rows), store.word_rank[rows]
    words, block, rank = memo[unit_key]
    prox = store.block_proximity(iq, block)
    top = top_k(prox, 3, rank)
    memo[key] = tuple(zip([words[i] for i in top.tolist()], prox[top].tolist()))
    return memo[key]


def template_skeleton(res: GenerationResources, n: int):
    """Skeleton source of the template models: one length-n template."""

    def draw(rng: random.Random) -> tuple[str, tuple[Slot | Literal, ...]]:
        template = select_template(res.templates, n, rng)
        return template.source_id, template.items

    return draw


def fill_by_rank(pos: int, slot: Slot, q: str, res: GenerationResources,
                 rng: random.Random, **fields) -> tuple[str, dict]:
    """Model 2's slot fill: a uniform draw among the three words of the
    slot's tag nearest q, and its trace record, with fields after the tag."""
    top3 = [w for w, _ in rank_vocabulary(slot.tag, q, res.ta, res.store)]
    word = rng.choice(top3)
    return word, {"position": pos, "tag": slot.tag.truncated, **fields,
                  "top3": top3, "chosen": word}


def generate_model2(
    q: str, n: int, res: GenerationResources, seed: int
) -> GeneratedSentence:
    def fill_slot(pos: int, slot: Slot, rng: random.Random) -> tuple[str, dict]:
        return fill_by_rank(pos, slot, q, res, rng, original=slot.original)

    return generate(2, q, res, seed, template_skeleton(res, n), fill_slot)
