"""Loading of prebuilt resource directories.

A resource directory uses conventional filenames:

    sentences.txt    corpus sentences, one per line (novelty reference)
    tagged.tsv       tagged corpus (surface<TAB>fulltag, blank-line separated)
    matrix.txt       transition matrix (states header + sparse count triples)
    templates.jsonl  template store
    vectors.txt      embeddings, word2vec text format; loading it leaves a
                     binary copy, .vectors.txt.npy, that later loads of
                     the same bytes read instead (see EmbeddingStore.load)
    ta.jsonl         associative table
    funcdict.jsonl   function-word dictionary
    forms.tsv        morphology forms lexicon
"""

from __future__ import annotations

from pathlib import Path

from .corpus import read_sentences
from .embeddings import AssociativeTable, EmbeddingStore
from .errors import FormatError, ResourceError
from .generation import (
    FunctionWordDictionary,
    GenerationResources,
    normalize_tokens,
)
from .markov import END, START, TransitionMatrix
from .morphology import FormsLexicon
from .templates import TemplateStore

SENTENCES = "sentences.txt"
TAGGED = "tagged.tsv"
MATRIX = "matrix.txt"
TEMPLATES = "templates.jsonl"
VECTORS = "vectors.txt"
TA = "ta.jsonl"
FUNCDICT = "funcdict.jsonl"
FORMS = "forms.tsv"

REQUIRED = (SENTENCES, MATRIX, TEMPLATES, VECTORS, TA, FUNCDICT, FORMS)


def load_resources(directory: str | Path) -> GenerationResources:
    """Load every resource; the generation parameters keep their defaults."""
    directory = Path(directory)
    missing = [name for name in REQUIRED if not (directory / name).is_file()]
    if missing:
        raise ResourceError(
            f"missing resource files in {directory}: {', '.join(missing)}"
        )
    sentences = read_sentences(directory / SENTENCES)
    matrix = TransitionMatrix.load(directory / MATRIX)
    for state in (START, END):
        if state not in matrix.index:  # every walk starts and ends at these
            raise FormatError(f"no boundary state {state!r}", path=directory / MATRIX)
    return GenerationResources(
        matrix=matrix,
        templates=TemplateStore.load(directory / TEMPLATES),
        store=EmbeddingStore.load(directory / VECTORS),
        ta=AssociativeTable.load(directory / TA),
        funcdict=FunctionWordDictionary.load(directory / FUNCDICT),
        forms=FormsLexicon.load(directory / FORMS),
        corpus_norms=frozenset(normalize_tokens(s) for s in sentences),
    )
