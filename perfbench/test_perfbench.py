"""Tests of the benchmark's own parts: the vocab5k generator, the output
checks, failure accounting and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import vocab5k  # noqa: E402
from homosyntax import resources  # noqa: E402
from homosyntax.generation import GeneratedSentence  # noqa: E402

FILES = ("sentences.txt", "tagged.tsv", "matrix.txt", "templates.jsonl",
         "funcdict.jsonl", "vectors.txt", "ta.jsonl", "forms.tsv")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fixture") / "res"
    bench.build_fixture(out)
    return out


@pytest.fixture(scope="module")
def synth(base, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("vocab5k") / "res"
    vocab5k.generate(base, out, seed=7)
    return out


def test_fixture_build_matches_recorded_digests(base):
    assert checks.check_digests(base, bench.DIGESTS) == []


def test_vocab5k_same_seed_gives_identical_files(base, synth, tmp_path):
    vocab5k.generate(base, tmp_path / "again", seed=7)
    vocab5k.generate(base, tmp_path / "other", seed=8)
    for name in FILES:
        assert (tmp_path / "again" / name).read_bytes() == (synth / name).read_bytes(), name
    assert (tmp_path / "other" / "vectors.txt").read_bytes() != (synth / "vectors.txt").read_bytes()


def test_vocab5k_cap_50_binds_for_every_content_tag(base, synth):
    words, _ = checks.read_vectors(synth / "vectors.txt")
    assert len(words) == len(set(words)) == vocab5k.SIZE
    vocab = set(words)
    base_ta = checks.Oracle(base, 50).ta
    ta = checks.Oracle(synth, 50).ta
    assert set(ta) == set(base_ta) and len(ta) == 8
    added = [len(ta[tag]) - len(base_ta[tag]) for tag in ta]
    assert max(added) - min(added) <= 1  # split evenly over the content tags
    for tag, entries in ta.items():
        assert sum(w in vocab for w in entries) > 50, tag
    # the library's loader accepts the set as a resource directory
    assert len(resources.load_resources(synth).store) == vocab5k.SIZE


def test_model1_failures_are_counted_not_hidden(synth):
    res = resources.load_resources(synth)
    res.neighbors_m, res.max_hops = 1, 0  # starve the relaxation walk
    oracle = checks.Oracle(synth, bench.WORKLOADS["vocab5k"].cap_m)
    requests = [r for r in bench.make_requests(5, 12, oracle.words) if r.model == 1]
    tally = bench.Tally()
    bench.run_requests(requests, res, oracle, tally)
    assert tally.attempted == len(requests)
    assert 0 < tally.failed == tally.failed_by_model[1]
    assert len(tally.latencies[1]) == len(requests) - tally.failed
    assert tally.violated == 0 and tally.errors


def test_oracle_rejects_broken_outputs(base):
    oracle = checks.Oracle(base, 200)
    template = json.loads((base / "templates.jsonl").read_text(encoding="utf-8").splitlines()[0])
    identity = tuple(it["w"] if it["t"] == "lit" else it["orig"] for it in template["items"])
    source = template["source_id"]
    copied = GeneratedSentence(identity, 2, oracle.words[0], source)
    assert "reproduces a corpus sentence" in oracle.check(2, len(identity), copied)
    slot = next(i for i, it in enumerate(template["items"]) if it["t"] == "slot")
    tokens = list(identity)
    tokens[slot] = "zzz"
    assert oracle.check(2, len(tokens), GeneratedSentence(tuple(tokens), 2, oracle.words[0], source))
    shorter = GeneratedSentence(identity[:-1], 3, oracle.words[0], source)
    assert oracle.check(3, len(identity), shorter)


def _traced_counts(base: Path) -> dict:
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    oracle = checks.Oracle(base, 200)
    instrumentation.enable()
    try:
        res = resources.load_resources(base)
        res.neighbors_m = 60
        tally = bench.Tally()
        bench.run_traced_requests(
            bench.make_requests(3, 4, oracle.words), 7, res, oracle, tally,
            tracer, instrumentation,
        )
    finally:
        instrumentation.disable()
    assert tally.paired[2] == 7 and tally.violated == 0
    return {name: t[0] for name, t in tracer.totals.items()} | tracer.counts


def test_traced_counts_repeat_exactly(base):
    first = _traced_counts(base)
    assert first["model3.generate_model3"] == 4
    assert first["embeddings.EmbeddingStore.proximity"] > 0
    assert _traced_counts(base) == first


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    per_layer = [f"{s}.{kind}" for s in tracing.SPANS for kind in ("calls", "ms", "self_ms")]
    per_layer += [count for count, _ in tracing.COUNTERS.values()]
    per_layer += ["trace.overhead_ms_per_request", "trace.overhead_pct"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer


def test_non_library_exception_is_a_violation(base, monkeypatch):
    res = resources.load_resources(base)
    oracle = checks.Oracle(base, 200)
    requests = [r for r in bench.make_requests(5, 2, oracle.words) if r.model == 2]

    def broken(*args):
        raise KeyError("defect")

    monkeypatch.setattr(bench.model2, "generate_model2", broken)
    tally = bench.Tally()
    bench.run_requests(requests, res, oracle, tally)
    assert tally.failed == tally.violated == len(requests)
    assert "raised KeyError" in tally.violations[0]
