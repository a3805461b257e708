"""Workloads, the closed request loop and the metrics of the benchmark.

Importing this module needs ``src`` on ``sys.path``; ``run.py`` puts it
there after pinning BLAS and OpenMP to one thread.

Every run builds the fixture resource directory from the committed corpus
and lexicons, with the steps and parameters of the test suite's fixtures, and
checks each built file against the sha256 digests in ``digests.json``. The
vocab5k workload then derives its synthetic resource set from the first
build, outside the timed region. The requests run in CHUNKS chunks, each
preceded by a setup probe; the further builds are spread between the chunks,
so that the build and setup samples each spread over the run. A single
client sends one request at a time (a closed loop), the way
``homosyntax generate --count K`` does: request i uses sentence seed
``seed + i``. The number of requests is fixed by ``--seconds`` through
per-workload rates measured on the baseline, so one seed always runs the
same requests and a traced run repeats its call counts exactly.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import vocab5k
from homosyntax import (
    corpus,
    embeddings,
    generation,
    markov,
    model1,
    model2,
    model3,
    pos,
    resources,
    templates,
)
from homosyntax.errors import HomosyntaxError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

EMB_PARAMS = {"dims": 64, "seed": 1}  # the fixture parameters of the test suite
MIX = (1,) * 6 + (2,) * 6 + (3,)  # models of one request cycle, shuffled per cycle
LENGTHS = tuple(range(5, 13))
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie above the reported tail
CHUNKS = 8  # request chunks per run; a fresh-interpreter setup probe precedes each
BUILDS = 2  # full builds per run: one before the first chunk, the rest spread between
TRACE_PAIRED_SHARE = 4  # 1/4 of a traced run's requests also run untraced


@dataclass(frozen=True)
class Workload:
    cycles_per_s: float  # request cycles per second of --seconds
    neighbors_m: int
    cap_m: int
    synthetic: bool


# The rates make a run take about --seconds on the baseline (2 cores,
# OPENBLAS_NUM_THREADS=1); they only size the work, nothing is time-bounded.
WORKLOADS = {
    "fixture": Workload(11.5, 60, 200, False),
    "vocab5k": Workload(1.0, 20, 5, True),
}


@dataclass(frozen=True)
class Request:
    index: int
    model: int
    query: str
    length: int
    seed: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # operations that raised or broke an output check
    violated: int = 0  # operations that broke an output check
    violations: list = field(default_factory=list)  # the first few, as text
    errors: list = field(default_factory=list)
    latencies: dict = field(default_factory=lambda: {1: [], 2: [], 3: []})
    failed_by_model: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})
    # traced runs: seconds of the paired requests untraced and traced, pairs
    paired: list = field(default_factory=lambda: [0.0, 0.0, 0])

    def fail(self, what: str, problems: list[str], model: int | None = None) -> None:
        self.failed += 1
        if model is not None:
            self.failed_by_model[model] += 1
        if problems:
            self.violated += 1
            self.violations += [f"{what}: {p}" for p in problems][: 50 - len(self.violations)]


def build_fixture(out: Path) -> None:
    """The full resource build on the committed fixture corpus."""
    out.mkdir(parents=True)
    shutil.copyfile(FIXTURES / "sentences.txt", out / "sentences.txt")
    shutil.copyfile(FIXTURES / "forms.tsv", out / "forms.tsv")
    sentences = corpus.read_sentences(out / "sentences.txt")
    lexicon = pos.TaggerLexicon.load(FIXTURES / "lexicon.tsv")
    tagged = [pos.tag_sentence(s, lexicon) for s in sentences]
    matrix = markov.build_transition_matrix(tagged)
    store = templates.TemplateStore.from_sentences(tagged)
    vectors = embeddings.train_embeddings(sentences, **EMB_PARAMS)
    ta = embeddings.build_associative_table(tagged)
    funcdict = generation.FunctionWordDictionary.from_sentences(tagged)
    pos.write_tagged_tsv(tagged, out / "tagged.tsv")
    matrix.save(out / "matrix.txt")
    store.save(out / "templates.jsonl")
    vectors.save(out / "vectors.txt")
    ta.save(out / "ta.jsonl")
    funcdict.save(out / "funcdict.jsonl")


def build(out: Path, tally: Tally) -> float:
    """Build the fixture resource directory into out, check it against
    digests.json and return the seconds the build took."""
    tally.attempted += 1
    start = perf_counter()
    build_fixture(out)
    seconds = perf_counter() - start
    problems = checks.check_digests(out, DIGESTS)
    if problems:
        tally.fail("build", problems)
    return seconds


def measure_setup(resdir: Path) -> float:
    """Seconds a fresh interpreter takes to import homosyntax and load resdir."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(resdir)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def make_requests(seed: int, cycles: int, vocab: list[str]) -> list[Request]:
    """Queries uniform over the vocabulary; each model draws its lengths from
    a shuffled deck of LENGTHS, so every run holds them in equal shares."""
    rng = random.Random(seed)
    decks: dict[int, list[int]] = {1: [], 2: [], 3: []}
    requests: list[Request] = []
    for _ in range(cycles):
        order = list(MIX)
        rng.shuffle(order)
        for model in order:
            if not decks[model]:
                decks[model] = list(LENGTHS)
                rng.shuffle(decks[model])
            i = len(requests)
            query = rng.choice(vocab)
            requests.append(Request(i, model, query, decks[model].pop(), seed + i))
    return requests


def generate(req: Request, res):
    # looked up per call, so a traced run reaches the wrapped functions
    if req.model == 1:
        return model1.generate_model1(req.query, req.length, res, req.seed)
    if req.model == 2:
        return model2.generate_model2(req.query, req.length, res, req.seed)
    return model3.generate_model3(req.query, req.length, res, req.seed)


def attempt(req: Request, res):
    """(sentence or None, seconds, exception or None) for one request."""
    start = perf_counter()
    try:
        sentence = generate(req, res)
    except Exception as error:  # the loop must go on; record() judges the error
        return None, perf_counter() - start, error
    return sentence, perf_counter() - start, None


def record(req: Request, outcome, oracle: checks.Oracle, tally: Tally, problems=()) -> None:
    """Count one request. A HomosyntaxError (relaxation or generation budget
    spent, and the like) is an ordinary failure; any other exception is a
    defect and counts as a violated check."""
    sentence, seconds, error = outcome
    tally.attempted += 1
    what = f"request {req.index} (model {req.model}, {req.query!r}, len {req.length})"
    if error is not None:
        if not isinstance(error, HomosyntaxError):
            problems = [*problems, f"raised {type(error).__name__}: {error}"]
        tally.fail(what, list(problems), req.model)
        if len(tally.errors) < 10:
            tally.errors.append(f"{what}: " + "".join(traceback.format_exception(error, limit=3)))
        return
    problems = [*problems, *oracle.check(req.model, req.length, sentence)]
    if problems:
        tally.fail(what, problems, req.model)
    else:
        tally.latencies[req.model].append(seconds)


def run_requests(requests, res, oracle, tally) -> None:
    for req in requests:
        record(req, attempt(req, res), oracle, tally)


def run_traced_requests(requests, paired, res, oracle, tally, tracer, instrumentation):
    """Traced loop; requests with an index below paired also run untraced,
    just before, to price the tracing."""
    for req in requests:
        if req.index < paired:
            instrumentation.disable()
            plain = attempt(req, res)
            instrumentation.enable()
        tracer.request = req.index
        outcome = attempt(req, res)
        tracer.request = -1
        problems = []
        if req.index < paired:
            tally.paired[0] += plain[1]
            tally.paired[1] += outcome[1]
            tally.paired[2] += 1
            if (plain[0] is None) != (outcome[0] is None) or (
                plain[0] is not None and plain[0].tokens != outcome[0].tokens
            ):
                problems.append("output changes under tracing")
        record(req, outcome, oracle, tally, problems)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_BEYOND samples above it; the median when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def source_digest() -> str:
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this host
        return None
    return done.stdout.strip() or None


def blas_build() -> object:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run; returns the result object and the run's metadata."""
    wl = WORKLOADS[workload]
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    instrumentation = tracing.Instrumentation(tracer) if trace else None
    build_times: list[float] = []
    setup_times: list[float] = []
    started = perf_counter()
    try:
        if instrumentation:
            instrumentation.enable()
        build_times.append(build(tmp / "fixture", tally))
        resdir = tmp / "fixture"
        if wl.synthetic:
            resdir = tmp / "vocab5k"
            vocab5k.generate(tmp / "fixture", resdir, seed)
        if not trace:
            measure_setup(resdir)  # warm-up: bytecode and file cache
        res = resources.load_resources(resdir)
        res.neighbors_m, res.cap_m = wl.neighbors_m, wl.cap_m
        oracle = checks.Oracle(resdir, wl.cap_m)
        requests = make_requests(seed, max(1, round(seconds * wl.cycles_per_s)), oracle.words)
        paired = len(requests) // TRACE_PAIRED_SHARE
        for c in range(CHUNKS):
            if c and c % (CHUNKS // BUILDS) == 0:
                build_times.append(build(tmp / f"build{c}", tally))
                shutil.rmtree(tmp / f"build{c}")
            chunk = requests[c * len(requests) // CHUNKS : (c + 1) * len(requests) // CHUNKS]
            if trace:
                run_traced_requests(chunk, paired, res, oracle, tally, tracer, instrumentation)
            else:
                setup_times.append(measure_setup(resdir))
                run_requests(chunk, res, oracle, tally)
    finally:
        if instrumentation:
            instrumentation.disable()
        shutil.rmtree(tmp, ignore_errors=True)

    tails = {m: tail(tally.latencies[m]) for m in (1, 2, 3) if tally.latencies[m]}
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": perf_counter() - started,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "config": {
            "neighbors_m": wl.neighbors_m,
            "cap_m": wl.cap_m,
            "vocabulary": len(oracle.words),
            "lengths": LENGTHS,
            "mix": MIX,
            "requests": len(requests),
        },
        "setup_s_samples": setup_times,
        "build_s_samples": build_times,
        "samples": {f"m{m}": len(tally.latencies[m]) for m in (1, 2, 3)},
        "tail_percentile": {f"m{m}": t[0] for m, t in tails.items()},
        "samples_beyond_tail": {f"m{m}": t[2] for m, t in tails.items()},
        "failed_by_model": {f"m{m}": n for m, n in tally.failed_by_model.items()},
        "failed_frac": tally.failed / max(1, tally.attempted),
        "violations": tally.violations,
        "errors": tally.errors,
        "latencies_ms": {f"m{m}": [x * 1e3 for x in tally.latencies[m]] for m in (1, 2, 3)},
    }

    if trace:
        metrics = {}
        for span in tracing.SPANS:
            calls, total, self_s = tracer.totals.get(span, (0, 0.0, 0.0))
            metrics[f"{span}.calls"] = (calls, "count")
            metrics[f"{span}.ms"] = (total * 1e3, "ms")
            metrics[f"{span}.self_ms"] = (self_s * 1e3, "ms")
        for name, value in tracer.counts.items():
            metrics[name] = (value, "count")
        plain_s, traced_s, pairs = tally.paired
        metrics["trace.overhead_ms_per_request"] = ((traced_s - plain_s) * 1e3 / max(1, pairs), "ms")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / max(plain_s, 1e-9), "%")
        spans_path = WORK / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "build_s": (statistics.median(build_times), "s"),
        }
        for m in (1, 2, 3):
            if m not in tails:
                raise RuntimeError(f"model {m}: no accepted sentence to time")
            metrics[f"m{m}_p50_ms"] = (statistics.median(tally.latencies[m]) * 1e3, "ms")
            metrics[f"m{m}_tail_ms"] = (tails[m][1] * 1e3, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    result = {
        "correct": tally.violated == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta

