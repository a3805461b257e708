"""Corpus-driven literary sentence generation via homosyntactic substitution.

Builds statistical resources (POS transition matrix, canned-text templates,
word embeddings, associative tables) from sentence corpora and generates
novel sentences that preserve syntactic skeletons while swapping content
words for query-driven vocabulary.
"""

__version__ = "0.1.0"
