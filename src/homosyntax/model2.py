"""Model 2: template filling by query-proximity ranking of attested words.

Each content slot's candidate vocabulary comes from the associative table
for the slot's tag; candidates are ranked by proximity to the query and the
replacement is drawn uniformly from the top three.
"""

from __future__ import annotations

import random

from .embeddings import AssociativeTable, EmbeddingStore
from .errors import EmptyRankError, GenerationError, OovError
from .generation import GeneratedSentence, GenerationResources, NOVELTY_RETRIES
from .pos import PosTag
from .templates import EgpSkeleton, Literal, select_template


def rank_vocabulary(
    tag: PosTag,
    q: str,
    ta: AssociativeTable,
    store: EmbeddingStore,
) -> list[tuple[str, float]]:
    """Attested words for the tag, in-vocabulary, by descending proximity."""
    if q not in store:
        raise OovError(q)
    vocab = ta.words_for(tag.truncated)  # TableError if the tag is absent
    in_vocab = [w for w, _ in vocab if w in store]
    if not in_vocab:
        raise EmptyRankError(
            f"no in-vocabulary candidate for tag {tag.truncated!r}"
        )
    ranked = list(zip(in_vocab, store.proximity(q, in_vocab).tolist()))
    ranked.sort(key=lambda wp: (-wp[1], wp[0]))
    return ranked


def choose_top3(ranked: list, rng: random.Random):
    """Uniform choice among the first min(3, len) entries."""
    if not ranked:
        raise EmptyRankError("cannot choose from an empty ranking")
    pick = ranked[rng.randrange(min(3, len(ranked)))]
    return pick[0] if isinstance(pick, tuple) else pick


def fill_template(
    template: EgpSkeleton,
    q: str,
    res: GenerationResources,
    rng: random.Random,
    trace: list[dict],
) -> tuple[str, ...]:
    tokens: list[str] = []
    for item in template.items:
        if isinstance(item, Literal):
            tokens.append(item.surface)
            continue
        ranked = rank_vocabulary(item.tag, q, res.ta, res.store)
        word = choose_top3(ranked, rng)
        tokens.append(word)
        trace.append(
            {
                "position": item.position,
                "tag": item.tag.truncated,
                "original": item.original,
                "top3": [w for w, _ in ranked[:3]],
                "chosen": word,
            }
        )
    return tuple(tokens)


def generate_model2(
    q: str, n: int, res: GenerationResources, seed: int
) -> GeneratedSentence:
    if q not in res.store:
        raise OovError(q)
    rng = random.Random(seed)
    last_error: Exception | None = None
    for _attempt in range(NOVELTY_RETRIES):
        template = select_template(res.templates, n, rng)
        trace: list[dict] = []
        try:
            tokens = fill_template(template, q, res, rng, trace)
        except EmptyRankError as e:
            # one reselection per attempt keeps sparse stores usable
            template = select_template(res.templates, n, rng)
            trace = []
            try:
                tokens = fill_template(template, q, res, rng, trace)
            except EmptyRankError as e2:
                raise EmptyRankError(
                    f"{e2} (after template reselection; first failure: {e})"
                ) from e2
        if res.is_novel(tokens):
            return GeneratedSentence(
                tokens=tokens,
                model=2,
                query=q,
                source=template.source_id,
                trace=trace,
            )
        last_error = GenerationError("generated sentence exists in corpus")
    raise GenerationError(
        f"model 2 failed after {NOVELTY_RETRIES} attempts: {last_error}"
    )
