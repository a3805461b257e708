"""Model 3: template filling by geometric min-max scoring.

For each candidate w replacing an original word o under query q, a 30-word
symbolic vector U concatenates the 10 nearest neighbors of o, q and w (all
V - 1 other words each when the vocabulary has V <= 10 words). The
proximity profiles of o, q and w against U give three 30-dim vectors; the
cosines theta = cos(Qv, Wv) and beta = cos(X, Wv) are combined into

    s_i = (mean(theta) / theta_i) * (beta_i / mean(beta))

as printed in the source formulation. Because the printed formula appears
inverted relative to its stated intent (reward closeness to q, distance
from o), an `invert` switch computes (theta_i / mean(theta)) * (mean(beta)
/ beta_i) instead. The replacement is drawn uniformly from the top three
scores. Templates are drawn as in model 2, and a slot whose original word is
out of vocabulary falls back to model 2's ranking.
"""

from __future__ import annotations

import random

import numpy as np

from .embeddings import EmbeddingStore
from .errors import DegenerateScoreError, EmptyRankError
from .generation import GeneratedSentence, GenerationResources, generate
from .model2 import choose_top3, rank_vocabulary, template_skeleton
from .templates import Slot

SEGMENT = 10  # neighbors per anchor word; |U| = 3 * SEGMENT


def _cos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines along the last axis, each equal to the one-pair np.dot form."""
    na, nb = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DegenerateScoreError("zero-norm distance vector")
    return np.vecdot(a, b) / (na * nb)


def score_candidates(
    o: str,
    q: str,
    vk: list[str],
    store: EmbeddingStore,
    invert: bool = False,
) -> list[dict]:
    """Score every candidate: a ``{"w", "theta", "beta", "s"}`` record each,
    the form model 3's trace prints, sorted by descending s, ties by w."""
    if len(vk) < 2:
        raise EmptyRankError(f"need >= 2 candidates, got {len(vk)}")
    # one row of U per candidate, as store rows, sharing the o and q segments;
    # neighbors raises OovError for o, then q, then the first OOV w
    oq = [store.neighbors(o, SEGMENT), store.neighbors(q, SEGMENT)]
    u = np.array([np.concatenate(oq + [store.neighbors(w, SEGMENT)]) for w in vk])
    # the o, q and candidate profiles against U in one gather
    anchors = [[store.index[o]] * len(vk), [store.index[q]] * len(vk),
               [store.index[w] for w in vk]]
    x, qv, wv = store.proximity(np.array(anchors)[:, :, None], u)
    thetas = _cos(qv, wv).tolist()
    betas = _cos(x, wv).tolist()

    mean_theta = sum(thetas) / len(thetas)
    mean_beta = sum(betas) / len(betas)
    if any(t == 0.0 for t in thetas) or mean_beta == 0.0:
        raise DegenerateScoreError("zero similarity in scoring")
    if invert and (any(b == 0.0 for b in betas) or mean_theta == 0.0):
        raise DegenerateScoreError("zero similarity in inverted scoring")

    scored = []
    for w, theta, beta in zip(vk, thetas, betas):
        if invert:
            s = (theta / mean_theta) * (mean_beta / beta)
        else:
            s = (mean_theta / theta) * (beta / mean_beta)
        scored.append({"w": w, "theta": theta, "beta": beta, "s": s})
    scored.sort(key=lambda c: (-c["s"], c["w"]))
    return scored


def generate_model3(
    q: str,
    n: int,
    res: GenerationResources,
    seed: int,
    invert: bool = False,
) -> GeneratedSentence:
    def fill_slot(pos: int, slot: Slot, rng: random.Random) -> tuple[str, dict]:
        o = slot.original.lower()
        if o not in res.store:
            # graceful degradation: rank by query proximity alone
            ranked = rank_vocabulary(slot.tag, q, res.ta, res.store)
            word = choose_top3(ranked, rng)
            return word, {
                "position": pos,
                "tag": slot.tag.truncated,
                "o": o,
                "fallback": "model2",
                "top3": [w for w, _ in ranked],
                "chosen": word,
            }
        # the cap keeps the most frequent: the table lists them first
        _, by_count = res.ta.rows(slot.tag.truncated, res.store)
        vk = [res.store.words[i] for i in by_count[: res.cap_m].tolist()]
        if len(vk) < 2:
            raise EmptyRankError(
                f"fewer than 2 in-vocabulary candidates for {slot.tag.truncated!r}"
            )
        scored = score_candidates(o, q, vk, res.store, invert=invert)
        word = choose_top3([(c["w"], c["s"]) for c in scored], rng)
        return word, {
            "position": pos,
            "tag": slot.tag.truncated,
            "o": o,
            "candidates": scored,
            "chosen": word,
        }

    return generate(3, q, res, seed, template_skeleton(res, n), fill_slot)
