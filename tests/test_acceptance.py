"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single pass/fail line so the run doubles as a report:

    pytest tests/test_acceptance.py -s
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from homosyntax import model1, model2, model3
from homosyntax.cli import main as cli_main
from homosyntax.errors import GenerationError
from homosyntax.markov import DecodePolicy, build_transition_matrix, generate_egv
from homosyntax.model3 import SEGMENT, CandidateBlock, score_candidates
from homosyntax.templates import extract_template

from conftest import FIXTURE_NEIGHBORS_M


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


class TestCriterion01RowStochastic:
    def test_rows_sum_to_one_quickly(self, tagged):
        assert len(tagged) >= 500
        t0 = time.perf_counter()
        matrix = build_transition_matrix(tagged)
        elapsed = time.perf_counter() - t0
        bad = 0
        for i in range(len(matrix.states)):
            row = matrix.probs[i]
            if matrix.counts[i].sum() > 0 and abs(row.sum() - 1.0) > 1e-9:
                bad += 1
        _report(
            "criterion-1 row-stochastic",
            bad == 0 and elapsed < 1.0,
            f"{len(tagged)} sentences, {bad} bad rows, {elapsed:.3f}s",
        )


class TestCriterion02SupportSoundness:
    def test_1000_egvs_use_observed_bigrams(self, matrix):
        rng = random.Random(0)
        violations = 0
        collected = 0
        attempts = 0
        while collected < 1000 and attempts < 20000:
            attempts += 1
            n = rng.randint(3, 15)
            try:
                egv = generate_egv(matrix, n, DecodePolicy.topk(3), rng)
            except GenerationError:
                continue
            collected += 1
            slots = [matrix.index[t.truncated] for t in egv]
            for a, b in zip(slots, slots[1:]):
                if matrix.probs[a, b] <= 0:
                    violations += 1
        _report(
            "criterion-2 markov-support",
            collected == 1000 and violations == 0,
            f"{collected} skeletons, {violations} unobserved bigrams",
        )


class TestCriterion03TemplateRoundTrip:
    def test_identity_fill_reproduces_source(self, tagged):
        total = 0
        bad = 0
        for ts in tagged:
            try:
                template = extract_template(ts)
            except ValueError:  # no content word
                continue
            total += 1
            if template.identity_fill() != ts.surfaces:
                bad += 1
        _report(
            "criterion-3 template-roundtrip",
            total > 0 and bad == 0,
            f"{bad}/{total} mismatches",
        )


class TestCriterion04NeighborOracle:
    def test_100_queries_match_brute_force(self, store):
        def brute(q, m):
            qv = store.vectors[store.index[q]]
            nq = math.sqrt(float(np.dot(qv, qv)))

            def prox(w):
                v = store.vectors[store.index[w]]
                cos = float(np.dot(qv, v)) / (
                    nq * math.sqrt(float(np.dot(v, v)))
                )
                return min(1.0, max(0.0, (cos + 1.0) / 2.0))

            others = sorted(
                (w for w in store.words if w != q),
                key=lambda w: (-prox(w), w),
            )
            return others[:m]

        assert len(store) <= 5000
        rng = random.Random(4)
        queries = [rng.choice(store.words) for _ in range(100)]
        t0 = time.perf_counter()
        mismatches = sum(
            [store.words[i] for i in store.neighbors(q, 10)] != brute(q, 10)
            for q in queries
        )
        elapsed = time.perf_counter() - t0
        _report(
            "criterion-4 neighbor-oracle",
            mismatches == 0 and elapsed < 10.0,
            f"100 queries, {mismatches} mismatches, {elapsed:.3f}s",
        )


class TestCriterion05ScoreEquivalence:
    def _oracle(self, o, q, vk, store):
        """Straight-line recomputation from raw vectors only."""

        def prox(a, b):
            va = store.vectors[store.index[a]]
            vb = store.vectors[store.index[b]]
            cos = float(np.dot(va, vb)) / (
                float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
            )
            return min(1.0, max(0.0, (cos + 1.0) / 2.0))

        def topn(word):
            others = sorted(
                (w for w in store.words if w != word),
                key=lambda w: (-prox(word, w), w),
            )
            return others[:SEGMENT]

        thetas, betas = [], []
        for w in vk:
            u = topn(o) + topn(q) + topn(w)
            x = np.array([prox(o, uj) for uj in u])
            qv = np.array([prox(q, uj) for uj in u])
            wv = np.array([prox(w, uj) for uj in u])
            thetas.append(
                float(np.dot(qv, wv))
                / (float(np.linalg.norm(qv)) * float(np.linalg.norm(wv)))
            )
            betas.append(
                float(np.dot(x, wv))
                / (float(np.linalg.norm(x)) * float(np.linalg.norm(wv)))
            )
        mt = sum(thetas) / len(thetas)
        mb = sum(betas) / len(betas)
        scores = [(mt / t) * (b / mb) for t, b in zip(thetas, betas)]
        return thetas, betas, scores

    def _slot_cases(self, resources, limit):
        rng = random.Random(5)
        cases = []
        for template in resources.templates.templates.values():
            if len(cases) >= limit:
                break
            for slot in template.slots:
                if len(cases) >= limit:
                    break
                o = slot.original.lower()
                if o not in resources.store:
                    continue
                vk = [
                    w
                    for w, _ in resources.ta.table[slot.tag.truncated]
                    if w in resources.store
                ][:50]
                if len(vk) < 2:
                    continue
                q = rng.choice(resources.store.words)
                cases.append((o, q, vk))
        return cases

    def test_50_slots_match_oracle(self, resources):
        cases = self._slot_cases(resources, 50)
        assert len(cases) == 50
        worst = 0.0
        for o, q, vk in cases:
            scored = score_candidates(
                o, q, CandidateBlock.of(vk, resources.store), resources.store
            )
            ot, ob, os_ = self._oracle(o, q, vk, resources.store)
            oracle = {
                w: (t, b, s) for w, t, b, s in zip(vk, ot, ob, os_)
            }
            for c in scored:
                t, b, s = oracle[c["w"]]
                worst = max(
                    worst, abs(c["theta"] - t), abs(c["beta"] - b), abs(c["s"] - s)
                )
        _report(
            "criterion-5a score-dual-implementation",
            worst <= 1e-9,
            f"50 slots, max |delta| = {worst:.3g}",
        )

    def test_mean_point_scores_one(self, resources):
        worst = 0.0
        for o, q, vk in self._slot_cases(resources, 10):
            scored = score_candidates(
                o, q, CandidateBlock.of(vk, resources.store), resources.store
            )
            mt = sum(c["theta"] for c in scored) / len(scored)
            mb = sum(c["beta"] for c in scored) / len(scored)
            s_mean = (mt / mt) * (mb / mb)
            worst = max(worst, abs(s_mean - 1.0))
        _report(
            "criterion-5b mean-point-unit-score",
            worst <= 1e-12,
            f"max |s(mean) - 1| = {worst:.3g}",
        )

    def test_ranking_invariant_under_scaling(self, resources):
        rng = random.Random(6)
        stable = True
        for o, q, vk in self._slot_cases(resources, 10):
            scored = score_candidates(
                o, q, CandidateBlock.of(vk, resources.store), resources.store
            )
            thetas = [c["theta"] for c in scored]
            betas = [c["beta"] for c in scored]
            words = [c["w"] for c in scored]

            def rank(ts, bs):
                mt = sum(ts) / len(ts)
                mb = sum(bs) / len(bs)
                ss = [(mt / t) * (b / mb) for t, b in zip(ts, bs)]
                return sorted(
                    range(len(ss)), key=lambda i: (-ss[i], words[i])
                )

            base = rank(thetas, betas)
            for _ in range(3):
                c = rng.uniform(1e-6, 10.0)
                if rank([t * c for t in thetas], betas) != base:
                    stable = False
                if rank(thetas, [b * c for b in betas]) != base:
                    stable = False
        _report(
            "criterion-5c scaling-invariance",
            stable,
            "rankings stable under uniform theta/beta scaling",
        )


@pytest.fixture(scope="module")
def generated_300(resources):
    sentences = []
    for i in range(150):
        sentences.append(
            model2.generate_model2("sol", 5 + (i % 6), resources, seed=i)
        )
    for i in range(150):
        sentences.append(
            model3.generate_model3("luna", 5 + (i % 6), resources, seed=i)
        )
    return sentences


class TestCriterion06Attestation:
    def test_slots_attested_and_literals_verbatim(self, resources,
                                                  generated_300):
        by_source = {
            t.source_id: t for t in resources.templates.templates.values()
        }
        violations = 0
        for sent in generated_300:
            template = by_source[sent.source]
            slot_positions = {rec["position"] for rec in sent.trace}
            for rec in sent.trace:
                attested = {w for w, _ in resources.ta.table[rec["tag"]]}
                if rec["chosen"] not in attested:
                    violations += 1
            for position, (item, token) in enumerate(
                zip(template.items, sent.tokens)
            ):
                if position not in slot_positions:
                    if token != item.surface:
                        violations += 1
        _report(
            "criterion-6 attestation",
            violations == 0,
            f"300 sentences, {violations} violations",
        )


class TestCriterion07Novelty:
    def test_no_corpus_collisions(self, resources, generated_300):
        collisions = sum(
            not resources.is_novel(sent.tokens) for sent in generated_300
        )
        _report(
            "criterion-7 novelty",
            collisions == 0,
            f"300 sentences, {collisions} corpus collisions",
        )


class TestCriterion08Top3Distribution:
    def _positions(self, resources, generator, query):
        positions = []
        seed = 0
        while len(positions) < 3000 and seed < 20000:
            sent = generator(query, 5 + (seed % 6), resources, seed)
            for rec in sent.trace:
                if "candidates" in rec:
                    ranked = [c["w"] for c in rec["candidates"]]
                else:
                    ranked = rec["top3"]
                if len(ranked) < 3:
                    continue
                positions.append(ranked[:3].index(rec["chosen"]))
            seed += 1
        return positions[:3000]

    @pytest.mark.parametrize(
        "name,generator,query",
        [
            ("model2", model2.generate_model2, "mar"),
            ("model3", model3.generate_model3, "cielo"),
        ],
    )
    def test_uniform_over_top3(self, resources, name, generator, query):
        positions = self._positions(resources, generator, query)
        counts = Counter(positions)
        obs = [counts.get(i, 0) for i in range(3)]
        n = sum(obs)
        _, p = stats.chisquare(obs)
        expected = n / 3
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        within = all(abs(c - expected) <= 3 * sigma for c in obs)
        _report(
            f"criterion-8 top3-distribution ({name})",
            n == 3000 and p > 0.01 and within,
            f"counts {obs}, chi-square p = {p:.4f}",
        )


class TestCriterion09Determinism:
    def test_byte_identical_stdout(self, resources_dir, capsys):
        argv = [
            "generate",
            "--resources", str(resources_dir),
            "--neighbors", str(FIXTURE_NEIGHBORS_M),
            "--model", "3",
            "--query", "sol",
            "--len", "6",
            "--seed", "3",
            "--count", "3",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        _report(
            "criterion-9 determinism",
            first == second and first.count("\n") == 3,
            f"{len(first.encode())} bytes, identical across runs",
        )


class TestCriterion10Latency:
    def test_model3_single_sentence_under_2s(self, resources):
        assert resources.store.dims == 64
        assert resources.cap_m == 200
        model3.generate_model3("sol", 10, resources, seed=0)  # warm caches
        t0 = time.perf_counter()
        sent = model3.generate_model3("sol", 10, resources, seed=1)
        elapsed = time.perf_counter() - t0
        _report(
            "criterion-10 latency",
            len(sent.tokens) == 10 and elapsed < 2.0,
            f"N=10 sentence in {elapsed:.3f}s",
        )
