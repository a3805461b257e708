"""Invariant-check harness over a prebuilt resource directory.

Runs structural checks (row-stochasticity, associative-table soundness,
resources that fit one another, template round-trips, a straight-line
recomputation of the geometric score, novelty of freshly generated
sentences) and reports pass/fail per check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model1, model2, model3
from .errors import HomosyntaxError, ResourceError
from .generation import GenerationResources
from .markov import END, START
from .pos import TaggedSentence, is_content, read_tagged_tsv, tag_of
from .resources import TAGGED, load_resources

TOL = 1e-9  # largest |delta| a row sum or an oracle score may show
ORACLE_SLOTS = 5  # template slots the score oracle recomputes


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_row_stochastic(res: GenerationResources) -> CheckResult:
    probs = res.matrix.probs[res.matrix.counts.sum(axis=1) > 0]
    off = (np.abs(probs.sum(axis=1) - 1.0) > TOL) | np.any(probs < 0, axis=1)
    bad = int(np.count_nonzero(off))
    return CheckResult(
        "row-stochastic",
        bad == 0,
        f"{bad} rows with nonzero counts are not stochastic",
    )


def check_ta_soundness(
    res: GenerationResources, corpus: list[TaggedSentence]
) -> CheckResult:
    attested: set[tuple[str, str]] = set()
    for ts in corpus:
        for surface, tag in ts.tokens:
            attested.add((tag.truncated, surface.lower()))
    violations = [
        (tag, w)
        for tag, words in res.ta.table.items()
        for w, _ in words
        if (tag, w) not in attested
    ]
    return CheckResult(
        "ta-soundness",
        not violations,
        f"{len(violations)} unattested entries" if violations else "all attested",
    )


def check_resource_fit(res: GenerationResources) -> CheckResult:
    """Every functional matrix state has function words and every template
    slot tag has a table entry; count the out-of-vocabulary originals."""
    offenders = [
        f"functional state {state!r} has no funcdict entry"
        for state in res.matrix.states
        if state not in (START, END)
        and not is_content(tag_of(state))
        and not res.funcdict.table.get(state)
    ]
    slots = [
        (tid, slot)
        for tid, template in res.templates.templates.items()
        for slot in template.slots
    ]
    offenders += [
        f"template {tid} slot tag {slot.tag.truncated!r} has no table entry"
        for tid, slot in slots
        if slot.tag.truncated not in res.ta.table
    ]
    oov = sum(slot.original.lower() not in res.store for _, slot in slots)
    found = f"{offenders[0]} (1 of {len(offenders)})" if offenders else "all fit"
    return CheckResult(
        "resource-fit",
        not offenders,
        f"{found}; {oov}/{len(slots)} template originals out of vocabulary",
    )


def check_template_roundtrip(
    res: GenerationResources, corpus: list[TaggedSentence]
) -> CheckResult:
    """Each loaded template's identity fill is some corpus sentence."""
    sentences = {ts.surfaces for ts in corpus}
    templates = res.templates.templates.values()
    bad = sum(t.identity_fill() not in sentences for t in templates)
    return CheckResult(
        "template-roundtrip",
        bad == 0 and len(templates) > 0,
        f"{bad}/{len(templates)} round-trip failures",
    )


def _oracle_scores(o, q, vk, store):
    """Straight-line recomputation of the min-max score, raw vectors only."""

    def prox(a, b):
        va, vb = store.vectors[store.index[a]], store.vectors[store.index[b]]
        cos = float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        return min(1.0, max(0.0, (cos + 1.0) / 2.0))

    def top10(word):
        others = [w for w in store.words if w != word]
        others.sort(key=lambda w: (-prox(word, w), w))
        return others[:10]

    thetas, betas = [], []
    for w in vk:
        u = top10(o) + top10(q) + top10(w)
        x = np.array([prox(o, uj) for uj in u])
        qv = np.array([prox(q, uj) for uj in u])
        wv = np.array([prox(w, uj) for uj in u])
        thetas.append(
            float(np.dot(qv, wv) / (np.linalg.norm(qv) * np.linalg.norm(wv)))
        )
        betas.append(
            float(np.dot(x, wv) / (np.linalg.norm(x) * np.linalg.norm(wv)))
        )
    mt, mb = sum(thetas) / len(thetas), sum(betas) / len(betas)
    return [(mt / t) * (b / mb) for t, b in zip(thetas, betas)]


def check_score_oracle(res: GenerationResources) -> CheckResult:
    rng = random.Random(12345)
    checked = 0
    worst = 0.0
    for slot in (s for t in res.templates.templates.values() for s in t.slots):
        if checked >= ORACLE_SLOTS:
            break
        o = slot.original.lower()
        # a tag without a table entry fails resource-fit instead
        if o not in res.store or slot.tag.truncated not in res.ta.table:
            continue
        vocab = res.ta.words(slot.tag.truncated, res.store)[:10]
        if len(vocab) < 2:
            continue
        q = rng.choice(res.store.words)
        block = model3.CandidateBlock.of(vocab, res.store)
        scored = model3.score_candidates(o, q, block, res.store)
        expected = dict(zip(vocab, _oracle_scores(o, q, vocab, res.store)))
        for c in scored:
            worst = max(worst, abs(c["s"] - expected[c["w"]]))
        checked += 1
    return CheckResult(
        "score-oracle",
        checked > 0 and worst <= TOL,
        f"{checked} slots checked, max |delta| = {worst:.3g}",
    )


def check_novelty(res: GenerationResources) -> CheckResult:
    if not len(res.store):
        return CheckResult("novelty", False, "no query word: the vocabulary is empty")
    query = res.store.words[0]
    failures = 0
    generated = 0
    for model_fn in (model1.generate_model1, model2.generate_model2,
                     model3.generate_model3):
        for seed in range(3):
            try:
                sent = model_fn(query, 6, res, seed)
            except HomosyntaxError:
                continue
            generated += 1
            if not res.is_novel(sent.tokens):
                failures += 1
    return CheckResult(
        "novelty",
        generated > 0 and failures == 0,
        f"{generated} sentences generated, {failures} corpus collisions",
    )


def run_check(directory: str | Path) -> list[CheckResult]:
    directory = Path(directory)
    if not (directory / TAGGED).is_file():
        raise ResourceError(f"missing resource files in {directory}: {TAGGED}")
    res = load_resources(directory)
    corpus = read_tagged_tsv(directory / TAGGED)
    results = [
        check_row_stochastic(res),
        check_template_roundtrip(res, corpus),
        check_ta_soundness(res, corpus),
        check_resource_fit(res),
        check_score_oracle(res),
        check_novelty(res),
    ]
    return results
