"""Command-line entry point.

Exit codes, and the ``error`` kind of the diagnostic, are a stable
contract; a kind in quotes stands for the classes beside it:

    0   success
    1   invariant check failed
    2   "resource" (ResourceError, OSError): a path missing, unreadable or of
        the wrong type; FormatError: a malformed or undecodable file, with its
        path and line; BuildError: input a builder refuses (path, line null)
    3   "generation" (GenerationError): every attempt failed; OovError: a
        query with no vector; TableError: a resource lacks what it needs
    64  "usage" (ConfigError): bad flags or arguments

All randomness flows from the single ``--seed`` flag; with ``--count K``
sentence i uses seed ``seed + i``. Diagnostics go to stderr as one JSON
object per line, followed by a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread unless the user chose: thread start-up outweighs the
# small scans the CLI makes. Set before any module that imports numpy
if not os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                            "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import corpus as corpus_mod
from . import generation, model1, model2, model3
from .embeddings import build_associative_table, train_embeddings
from .errors import (
    BuildError,
    ConfigError,
    FormatError,
    GenerationError,
    HomosyntaxError,
    ResourceError,
    write_jsonl,
)
from .markov import DecodePolicy, MAX_LEN, MIN_LEN, build_transition_matrix
from .pos import TaggerLexicon, read_tagged_tsv, tag_sentence, write_tagged_tsv
from .resources import FUNCDICT, MATRIX, TA, TAGGED, TEMPLATES, load_resources
from .templates import TemplateStore

RESOURCES_ENV = "HOMOSYNTAX_RESOURCES"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = 2
EXIT_GENERATION = 3
EXIT_USAGE = 64


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _diagnostic("usage", message)
        raise SystemExit(EXIT_USAGE)


def _diagnostic(kind: str, message: str, **fields) -> None:
    print(json.dumps({"error": kind, "message": message, **fields}), file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)


def build_parser() -> CliParser:
    parser = CliParser(prog="homosyntax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="segment and filter raw text")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", dest="out", required=True)
    p.add_argument("--min-words", type=int, default=4)
    p.add_argument("--max-words", type=int, default=29)

    p = sub.add_parser("tag", help="tag a sentence file with the bundled tagger")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", dest="out", required=True)

    p = sub.add_parser("build", help="derive the matrix, templates, associative "
                                     "table and function-word dictionary from "
                                     "tagged.tsv")
    p.add_argument("--resources", default=None)

    p = sub.add_parser("train-emb", help="train word embeddings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="out", required=True)
    p.add_argument("--dims", type=int, default=64)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="generate sentences")
    p.add_argument("--model", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--query", required=True)
    p.add_argument("--len", dest="length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--resources", default=None)
    p.add_argument("--policy", default=str(generation.DEFAULT_POLICY),
                   help="EGV decoding: argmax or topk:K (model 1)")
    p.add_argument("--neighbors", type=int, default=generation.DEFAULT_NEIGHBORS,
                   help="neighbor lexicon size m (model 1); on small corpora "
                        "a larger m fails fewer requests")
    p.add_argument("--max-hops", type=int, default=generation.DEFAULT_MAX_HOPS,
                   help="query relaxation budget (model 1)")
    p.add_argument("--cap-m", type=int, default=generation.DEFAULT_CAP_M,
                   help="candidate cap per slot (model 3)")
    p.add_argument("--invert-score", action="store_true",
                   help="use the prose-direction score (model 3)")
    p.add_argument("--trace", default=None,
                   help="write per-slot decision records as JSON lines")

    p = sub.add_parser("check", help="run the invariant suite over resources")
    p.add_argument("--resources", default=None)

    return parser


def _resource_dir(arg: str | None) -> Path:
    directory = arg or os.environ.get(RESOURCES_ENV)
    if not directory:
        raise ResourceError(
            f"no resource directory: pass --resources or set {RESOURCES_ENV}"
        )
    return Path(directory)


def _cmd_ingest(args) -> int:
    # checked before the documents are read: below 1 word keeps blank lines
    _check_least(("--min-words", args.min_words, 1),
                 ("--max-words", args.max_words, args.min_words))
    sentences = []
    for doc_id, text in corpus_mod.read_documents(args.indir):
        for s in corpus_mod.segment_sentences(doc_id, text):
            sentences.append(corpus_mod.filter_tokens(s))
    kept = corpus_mod.length_filter(sentences, args.min_words, args.max_words)
    corpus_mod.write_sentences(kept, args.out)
    print(corpus_mod.format_stats(corpus_mod.compute_stats(kept)), end="")
    return EXIT_OK


def _cmd_tag(args) -> int:
    lex = TaggerLexicon.load(args.lexicon)
    sentences = corpus_mod.read_sentences(args.infile)
    tagged = [tag_sentence(s, lex) for s in sentences]
    write_tagged_tsv(tagged, args.out)
    print(f"tagged {len(tagged)} sentences")
    return EXIT_OK


def _cmd_build(args) -> int:
    directory = _resource_dir(args.resources)
    corpus = read_tagged_tsv(directory / TAGGED)
    # every object is derived before any file is written: a corpus a builder
    # refuses leaves no file behind
    matrix = build_transition_matrix(corpus)
    store = TemplateStore.from_sentences(corpus)
    ta = build_associative_table(corpus)
    fdict = generation.FunctionWordDictionary.from_sentences(corpus)
    matrix.save(directory / MATRIX)
    store.save(directory / TEMPLATES)
    ta.save(directory / TA)
    fdict.save(directory / FUNCDICT)
    print(f"matrix over {len(matrix.states)} states")
    print(f"stored {len(store)} templates")
    print(f"associative table with {len(ta.table)} tags")
    print(f"function-word dictionary with {len(fdict.table)} tags")
    return EXIT_OK


def _check_least(*flags: tuple[str, int, int]) -> None:
    """ConfigError (exit 64) for the first (flag, value, least) below least."""
    for flag, value, least in flags:
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}")


def _cmd_train_emb(args) -> int:
    # checked before the corpus is read: 0 trains nothing, below 0 cannot run
    _check_least(("--dims", args.dims, 8), ("--window", args.window, 1),
                 ("--epochs", args.epochs, 1), ("--negatives", args.negatives, 1),
                 ("--min-count", args.min_count, 1), ("--seed", args.seed, 0))
    sentences = corpus_mod.read_sentences(args.infile)
    store = train_embeddings(
        sentences,
        dims=args.dims,
        window=args.window,
        epochs=args.epochs,
        negatives=args.negatives,
        seed=args.seed,
        min_count=args.min_count,
    )
    store.save(args.out)
    print(f"trained {len(store)} x {store.dims} vectors")
    return EXIT_OK


def _cmd_generate(args) -> int:
    # every flag is checked before anything is loaded
    if not (MIN_LEN <= args.length <= MAX_LEN):
        raise ConfigError(f"--len must be in [{MIN_LEN}, {MAX_LEN}]")
    _check_least(
        ("--seed", args.seed, 0),  # random.Random would seed -s as s
        ("--count", args.count, 1),
        ("--neighbors", args.neighbors, 1),
        ("--max-hops", args.max_hops, 0),
        ("--cap-m", args.cap_m, 2),  # model 3 scores at least two candidates
    )
    policy = DecodePolicy.parse(args.policy)
    traces = []
    try:
        res = load_resources(_resource_dir(args.resources))
        res.policy = policy
        res.neighbors_m = args.neighbors
        res.max_hops = args.max_hops
        res.cap_m = args.cap_m
        res.invert = args.invert_score
        generate = {1: model1.generate_model1, 2: model2.generate_model2,
                    3: model3.generate_model3}[args.model]
        for i in range(args.count):
            sentence = generate(args.query, args.length, res, args.seed + i)
            print(sentence.text)
            if args.trace:
                traces += ({"sentence": i, **record} for record in sentence.trace)
    finally:
        # this run's records, none left from an earlier run or a failed load;
        # the sentences printed keep theirs when a later one fails
        if args.trace:
            write_jsonl(args.trace, traces)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .check import run_check  # only this command needs the check harness

    results = run_check(_resource_dir(args.resources))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


COMMANDS = {
    "ingest": _cmd_ingest,
    "tag": _cmd_tag,
    "build": _cmd_build,
    "train-emb": _cmd_train_emb,
    "generate": _cmd_generate,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        parser.error(str(e))
    except (ResourceError, OSError) as e:
        _diagnostic("resource", str(e))
        return EXIT_RESOURCE
    except (FormatError, BuildError) as e:
        path, line = getattr(e, "path", None), getattr(e, "line", None)
        _diagnostic(type(e).__name__, str(e), path=path, line=line)
        return EXIT_RESOURCE
    except GenerationError as e:
        _diagnostic("generation", str(e))
        return EXIT_GENERATION
    except HomosyntaxError as e:
        _diagnostic(type(e).__name__, str(e))
        return EXIT_GENERATION


if __name__ == "__main__":
    sys.exit(main())
