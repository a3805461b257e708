"""Model 3: template filling by geometric min-max scoring.

For each candidate w replacing an original word o under query q, a 30-word
symbolic vector U concatenates the 10 nearest neighbors of o, q and w (all
V - 1 other words each when the vocabulary has V <= 10 words). The
proximity profiles of o, q and w against U give three 30-dim vectors; the
cosines theta = cos(Qv, Wv) and beta = cos(X, Wv) are combined into

    s_i = (mean(theta) / theta_i) * (beta_i / mean(beta))

as printed in the source formulation. Because the printed formula appears
inverted relative to its stated intent (reward closeness to q, distance
from o), the resources' ``invert`` setting computes (theta_i / mean(theta))
* (mean(beta) / beta_i) instead. The replacement is drawn uniformly from the
top three scores. Templates are drawn as in model 2, and a slot whose
original word is out of vocabulary falls back to model 2's ranking.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingStore
from .errors import GenerationError
from .generation import GeneratedSentence, GenerationResources, generate
from .model2 import fill_by_rank, template_skeleton
from .templates import Literal, Slot

SEGMENT = 10  # neighbors per anchor word; |U| = 3 * SEGMENT


@dataclass(frozen=True)
class CandidateBlock:
    """What model 3 reuses in every slot with the same candidates: their
    words and store rows, and each one's first-k neighbor rows and its
    proximities to those, both (n, k), all read-only.
    ``profiles`` maps each anchor word a (a slot's o or q) to its
    ``profile``, made on a's first use."""

    words: tuple[str, ...]
    rows: np.ndarray
    neighbors: np.ndarray
    proximity: np.ndarray
    profiles: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, vk: Sequence[str], store: EmbeddingStore) -> CandidateBlock:
        """The block of vk; OovError names the first word with no vector."""
        nbrs = np.array(store.neighbors_many(vk, SEGMENT), dtype=np.intp)
        rows = np.array([store.index[w] for w in vk], dtype=np.intp)
        prox = store.proximity(rows[:, None], nbrs)
        for a in (rows, nbrs, prox):
            a.flags.writeable = False
        return cls(tuple(vk), rows, nbrs, prox)

    def __len__(self) -> int:
        return len(self.words)

    def profile(self, a: str, n_a: np.ndarray,
                store: EmbeddingStore) -> tuple[np.ndarray, np.ndarray]:
        """prox(w, N(a)) and prox(a, N(w)) for every candidate w, two
        read-only (n, k), where n_a holds N(a): made on a's first use, then
        kept in ``profiles``."""
        if a not in self.profiles:
            halves = (store.proximity(self.rows[:, None], n_a),
                      store.proximity(store.index[a], self.neighbors))
            for half in halves:
                half.flags.writeable = False
            self.profiles[a] = halves
        return self.profiles[a]


def score_candidates(
    o: str, q: str, block: CandidateBlock, store: EmbeddingStore,
    invert: bool = False,
) -> list[dict]:
    """Score every candidate of the block: a ``{"w", "theta", "beta", "s"}``
    record each, the form model 3's trace prints, sorted by descending s,
    ties by ``store.word_rank``: by w.

    U's row for w is [N(o) N(q) N(w)]: one call gives o and q against the 2k
    shared columns, and the block gives the rest: w against N(w), and each
    anchor's ``profile`` (w against N(a), a against N(w)).
    Each value is the one-pair proximity, and each cosine runs over the same
    contiguous 3k-float rows as when U is built row by row."""
    if len(block) < 2:
        raise GenerationError(f"need >= 2 candidates, got {len(block)}")
    # OovError for o, then q; the block holds no OOV candidate
    oq = np.concatenate(store.neighbors_many([o, q], SEGMENT))
    n, k = block.neighbors.shape
    shared = store.proximity(np.array([store.index[o], store.index[q]])[:, None], oq)
    # the o, q and candidate profiles against U: x, qv, wv
    p = np.empty((3, n, 3 * k))
    p[:2, :, : 2 * k] = shared[:, None]
    p[2, :, :k], p[0, :, 2 * k :] = block.profile(o, oq[:k], store)
    p[2, :, k : 2 * k], p[1, :, 2 * k :] = block.profile(q, oq[k:], store)
    p[2, :, 2 * k :] = block.proximity
    norms = np.sqrt(np.vecdot(p, p))
    if not norms.all():
        raise GenerationError("zero-norm distance vector")
    beta, theta = np.vecdot(p[:2], p[2]) / (norms[:2] * norms[2])
    betas, thetas = beta.tolist(), theta.tolist()

    mean_theta, mean_beta = sum(thetas) / n, sum(betas) / n
    if 0.0 in thetas or mean_beta == 0.0:
        raise GenerationError("zero similarity in scoring")
    if invert and (0.0 in betas or mean_theta == 0.0):
        raise GenerationError("zero similarity in inverted scoring")

    if invert:
        s = (theta / mean_theta) * (mean_beta / beta)
    else:
        s = (mean_theta / theta) * (beta / mean_beta)
    scores, words = s.tolist(), block.words
    return [{"w": words[i], "theta": thetas[i], "beta": betas[i], "s": scores[i]}
            for i in np.lexsort((store.word_rank[block.rows], -s)).tolist()]


def generate_model3(
    q: str, n: int, res: GenerationResources, seed: int
) -> GeneratedSentence:
    def fill_slot(pos: int, slot: Slot, rng: random.Random) -> tuple[str, dict]:
        o = slot.original.lower()
        if o not in res.store:
            # graceful degradation: rank by query proximity alone
            return fill_by_rank(pos, slot, q, res, rng, o=o, fallback="model2")
        memo, key = res.store.memo, ("model3", res.ta, slot.tag.truncated, res.cap_m)
        if key not in memo:
            # the cap keeps the most frequent: the table lists them first
            vk = res.ta.words(key[2], res.store)[: res.cap_m]
            if len(vk) < 2:
                raise GenerationError(
                    f"fewer than 2 in-vocabulary candidates for {key[2]!r}"
                )
            memo[key] = CandidateBlock.of(vk, res.store)
        scored = score_candidates(o, q, memo[key], res.store, res.invert)
        word = rng.choice([c["w"] for c in scored[:3]])
        return word, {
            "position": pos,
            "tag": slot.tag.truncated,
            "o": o,
            "candidates": scored,
            "chosen": word,
        }

    draw = template_skeleton(res, n)

    def skeleton(rng: random.Random) -> tuple[str, tuple[Slot | Literal, ...]]:
        # every slot scores against N(q) and its own N(o): fetch them in one scan
        source, items = draw(rng)
        originals = (i.original.lower() for i in items if isinstance(i, Slot))
        res.store.neighbors_many([q, *(o for o in originals if o in res.store)], SEGMENT)
        return source, items

    return generate(3, q, res, seed, skeleton, fill_slot)
