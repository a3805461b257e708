"""Session-scoped fixture resources built from the committed corpus.

Everything is deterministic: the corpus, lexicons and training seed are
fixed, so tests may assert frozen golden values.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from homosyntax.corpus import read_sentences
from homosyntax.embeddings import build_associative_table, train_embeddings
from homosyntax.generation import (
    FunctionWordDictionary,
    GenerationResources,
    normalize_tokens,
)
from homosyntax.markov import build_transition_matrix
from homosyntax.morphology import FormsLexicon
from homosyntax.pos import TaggerLexicon, tag_sentence, write_tagged_tsv
from homosyntax.templates import TemplateStore

FIXTURES = Path(__file__).parent / "fixtures"

# at 150-word vocab the gender clusters are wider than the default m=20
FIXTURE_NEIGHBORS_M = 60

EMB_PARAMS = dict(dims=64, window=5, epochs=5, negatives=5, seed=1, min_count=2)


@pytest.fixture(scope="session")
def fixdir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def tagger_lexicon():
    return TaggerLexicon.load(FIXTURES / "lexicon.tsv")


@pytest.fixture(scope="session")
def forms_lexicon():
    return FormsLexicon.load(FIXTURES / "forms.tsv")


@pytest.fixture(scope="session")
def sentences():
    return read_sentences(FIXTURES / "sentences.txt")


@pytest.fixture(scope="session")
def tagged(sentences, tagger_lexicon):
    return [tag_sentence(s, tagger_lexicon) for s in sentences]


@pytest.fixture(scope="session")
def matrix(tagged):
    return build_transition_matrix(tagged)


@pytest.fixture(scope="session")
def template_store(tagged):
    return TemplateStore.from_sentences(tagged)


@pytest.fixture(scope="session")
def ta(tagged):
    return build_associative_table(tagged)


@pytest.fixture(scope="session")
def funcdict(tagged):
    return FunctionWordDictionary.from_sentences(tagged)


@pytest.fixture(scope="session")
def store(sentences):
    return train_embeddings(sentences, **EMB_PARAMS)


@pytest.fixture(scope="session")
def resources(matrix, template_store, store, ta, funcdict, forms_lexicon, sentences):
    return GenerationResources(
        matrix=matrix,
        templates=template_store,
        store=store,
        ta=ta,
        funcdict=funcdict,
        forms=forms_lexicon,
        corpus_norms=frozenset(normalize_tokens(s) for s in sentences),
        neighbors_m=FIXTURE_NEIGHBORS_M,
    )


@pytest.fixture(scope="session")
def resources_dir(
    tmp_path_factory, matrix, template_store, store, ta, funcdict, tagged, fixdir
) -> Path:
    d = tmp_path_factory.mktemp("resources")
    (d / "sentences.txt").write_bytes((fixdir / "sentences.txt").read_bytes())
    (d / "forms.tsv").write_bytes((fixdir / "forms.tsv").read_bytes())
    write_tagged_tsv(tagged, d / "tagged.tsv")
    matrix.save(d / "matrix.txt")
    template_store.save(d / "templates.jsonl")
    store.save(d / "vectors.txt")
    ta.save(d / "ta.jsonl")
    funcdict.save(d / "funcdict.jsonl")
    return d
