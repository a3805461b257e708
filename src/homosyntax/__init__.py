"""Corpus-driven literary sentence generation via homosyntactic substitution.

Builds statistical resources (POS transition matrix, canned-text templates,
word embeddings, associative tables) from sentence corpora and generates
novel sentences that preserve syntactic skeletons while swapping content
words for query-driven vocabulary.
"""

from .corpus import (
    CorpusStats,
    RawDocument,
    SentenceRecord,
    compute_stats,
    filter_tokens,
    length_filter,
    segment_sentences,
)
from .embeddings import (
    AssociativeTable,
    EmbeddingStore,
    build_associative_table,
    train_embeddings,
)
from .generation import (
    FunctionWordDictionary,
    GeneratedSentence,
    GenerationResources,
    detokenize,
    normalize_tokens,
)
from .markov import (
    DecodePolicy,
    TransitionMatrix,
    build_transition_matrix,
    generate_egv,
)
from .model1 import generate_model1
from .model2 import generate_model2
from .model3 import generate_model3
from .morphology import FormsLexicon, inflect, matches_tag
from .pos import (
    PosTag,
    TaggedSentence,
    TaggerLexicon,
    tag_sentence,
)
from .resources import load_resources
from .templates import EgpSkeleton, TemplateStore, extract_template, select_template

__version__ = "0.1.0"
