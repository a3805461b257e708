"""Dense word vectors, neighbor queries and the POS-indexed associative table.

The bundled trainer is a deliberately minimal single-threaded skip-gram with
negative sampling: deterministic for a fixed seed, compatible on disk with
the standard word2vec text format. Quality-sensitive users should load
externally trained vectors instead.

All similarity values exposed here are proximities in [0, 1]:
proximity = (cosine + 1) / 2, so larger always means closer.
"""

from __future__ import annotations

import weakref
from pathlib import Path

import numpy as np

from .corpus import SentenceRecord
from .errors import (FormatError, OovError, TableError, TrainError, load_rows,
                     read_jsonl, read_lines, write_jsonl, write_lines)
from .pos import TaggedSentence, is_content


def _proximity(cos: np.ndarray) -> np.ndarray:
    """(cosine + 1) / 2, clipped to [0, 1]: the one proximity formula."""
    return np.clip((cos + 1.0) / 2.0, 0.0, 1.0)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Row norms, as a column. A non-finite component gives a non-finite
    norm, and so does a norm past the float range, without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(vectors, axis=1, keepdims=True)


class EmbeddingStore:
    def __init__(self, words: list[str], vectors: np.ndarray):
        if len(words) != vectors.shape[0]:
            raise FormatError("vocab size does not match vector count")
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.vectors = np.asarray(vectors, dtype=np.float64)
        norms = _norms(self.vectors)
        if not np.isfinite(norms).all():
            raise FormatError("non-finite vector component or norm")
        self._unit = self.vectors / np.maximum(norms, 1e-12)
        self._neighbors: dict[tuple[str, int], np.ndarray] = {}
        self.training_losses: list[float] = []

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]

    def row(self, word: str) -> int:
        """Store row of a word; OovError if the word has no vector."""
        i = self.index.get(word)
        if i is None:
            raise OovError(word)
        return i

    def proximity(self, a, b) -> float | np.ndarray:
        """(cosine + 1) / 2, clipped to [0, 1].

        a and b are each a row or a broadcastable array of rows. Two rows
        give a float; otherwise the result is an array of the broadcast
        shape. np.vecdot runs the same dot kernel as np.dot on one pair, so
        every element equals the one-pair value bit for bit.
        """
        prox = _proximity(np.vecdot(self._unit[a], self._unit[b]))
        return float(prox) if prox.ndim == 0 else prox

    def unit_block(self, rows: np.ndarray) -> np.ndarray:
        """The unit vectors of rows, in their order, as one new contiguous
        read-only array: the operand of ``block_proximity``."""
        block = self._unit[rows]
        block.flags.writeable = False
        return block

    def block_proximity(self, a: int, block: np.ndarray) -> np.ndarray:
        """``proximity(a, rows)`` for the rows the block was made from,
        without gathering them again: the same np.vecdot on the same unit
        vectors, so equal bit for bit."""
        return _proximity(np.vecdot(self._unit[a], block))

    def neighbors(self, q: str, m: int) -> np.ndarray:
        """Rows of the top-m words by proximity to q, nearest first, q
        excluded, ties by word; empty when q is the store's only word.

        The store never changes after it is built, so the result is
        memoized per (q, m) on first use; the returned array is shared
        between calls and read-only.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        rows = self._neighbors.get((q, m))
        if rows is None:
            rows = self._top(self.row(q), m)
            rows.flags.writeable = False
            self._neighbors[q, m] = rows
        return rows

    def _top(self, iq: int, m: int) -> np.ndarray:
        prox = _proximity(self._unit @ self._unit[iq])
        prox[iq] = -1.0  # below every proximity: q is never its own neighbor
        k = min(m, len(self.words) - 1)
        if k == 0:
            return np.empty(0, dtype=np.intp)
        kth = np.partition(prox, -k)[-k]
        # keep every word tied with the k-th value: the word order breaks the tie
        tied = np.flatnonzero(prox >= kth).tolist()
        order = sorted(tied, key=lambda i: (-prox[i], self.words[i]))[:k]
        return np.array(order, dtype=np.intp)

    def save(self, path: str | Path) -> None:
        rows = (
            w + " " + " ".join(f"{v:.6f}" for v in vec)
            for w, vec in zip(self.words, self.vectors)
        )
        write_lines(path, [f"{len(self.words)} {self.dims}", *rows])

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingStore":
        """Read a word2vec text file: a ``<count> <dims>`` header, then one
        ``word v1 … v_dims`` row per word, split on whitespace.

        Well-formed rows are parsed in one numpy call. Rows it refuses are
        read again one at a time, which loads what ``float()`` reads and
        numpy does not (``1_0``, a non-ASCII digit) or stops at the first bad
        row with its line. Nothing is sized by the header's dims before a row
        shows that width, and a row whose norm is not finite (a nan or inf
        component, or one too large to square) is an error at its line.
        """
        lines = read_lines(path)
        if not lines:
            raise FormatError("empty embedding file", 1, path)
        header = lines[0].split()
        if len(header) != 2:
            raise FormatError("expected '<vocab_count> <dims>' header", 1, path)
        try:
            count, dims = int(header[0]), int(header[1])
        except ValueError as e:
            raise FormatError("non-integer header", 1, path) from e
        if count < 0 or dims < 1:
            raise FormatError(
                f"bad header {lines[0]!r}: need vocab_count >= 0, dims >= 1", 1, path
            )
        if len(lines) - 1 < count:
            raise FormatError(f"expected {count} vector rows", path=path)
        parsed = _parse_bulk(lines[1 : 1 + count], dims)
        if parsed is None:
            row_of: dict[str, int] = {}  # word -> row index, in file order
            vectors: list[list[float]] = []

            def add(parts: list[str]) -> None:
                if len(parts) != dims + 1:
                    raise ValueError(f"expected word + {dims} floats")
                word = parts[0]
                if word in row_of:
                    raise ValueError(
                        f"duplicate word {word!r}, first at line {row_of[word] + 2}"
                    )
                vectors.append([float(p) for p in parts[1:]])
                row_of[word] = len(row_of)

            rows = enumerate((line.split() for line in lines[1 : 1 + count]), start=2)
            load_rows(rows, path, "bad vector row", add)
            try:
                parsed = list(row_of), np.array(vectors).reshape(count, dims)
            except ValueError as e:  # no row, and no array is dims wide
                raise FormatError(f"bad header {lines[0]!r}: {e}", 1, path) from e
        try:
            store = cls(*parsed)
        except FormatError:  # a norm that is not finite: find its row
            bad = np.flatnonzero(~np.isfinite(_norms(parsed[1])))
            raise FormatError(
                "non-finite vector component or norm", int(bad[0]) + 2, path
            ) from None
        for i, line in enumerate(lines[1 + count :], start=2 + count):
            if line.strip():
                raise FormatError(f"more than {count} vector rows", i, path)
        return store


def _parse_bulk(rows: list[str], dims: int) -> tuple[list[str], np.ndarray] | None:
    """Words and vectors of the rows in one numpy call, which splits where
    ``str.split`` does and converts as ``float()`` does; None when numpy
    refuses a row or the rows repeat a word."""
    # numpy sizes its buffer from the dtype, not the rows, and warns on no
    # rows: call it only when the first row is as wide as the header says
    if not rows or len(rows[0].split()) != dims + 1:
        return None
    try:
        table = np.loadtxt(rows, dtype=[("w", object), ("v", np.float64, (dims,))],
                           comments=None, ndmin=1)
    except ValueError:
        return None
    words = table["w"].tolist()
    vectors = np.ascontiguousarray(table["v"])
    # numpy skips a blank row
    if len(words) != len(rows) or len(set(words)) != len(words):
        return None
    return words, vectors


LEARNING_RATE = 0.025  # initial SGD step, decayed linearly to 1e-4 of it


def lowercase_words(tokens: list[str] | tuple[str, ...]) -> list[str]:
    """Lowercase and drop tokens without letters (punctuation, numbers)."""
    return [t.lower() for t in tokens if any(c.isalpha() for c in t)]


def train_embeddings(
    corpus: list[SentenceRecord],
    dims: int = 64,
    window: int = 5,
    epochs: int = 5,
    negatives: int = 5,
    seed: int = 0,
    min_count: int = 2,
) -> EmbeddingStore:
    """Single-threaded skip-gram with negative sampling; fully deterministic.

    Pairs are trained one at a time, in sentence order, by plain SGD. The
    negatives of a sentence's pairs are drawn in one ``rng.choice`` call
    before its first pair: the same numbers from the same seeded stream, in
    the same order, as one call per pair, so the vectors do not depend on
    how the draws are grouped. A pair whose targets (its context and its
    negatives) are all distinct updates their output rows in one assignment;
    a pair that drew a target twice goes through ``np.subtract.at``, which
    applies both updates to that row one after the other.
    """
    if len(corpus) < 100:
        raise TrainError(f"need >= 100 sentences, got {len(corpus)}")
    if dims < 8:
        raise TrainError(f"need dims >= 8, got {dims}")

    sentences = [lowercase_words(s.tokens) for s in corpus]
    freq: dict[str, int] = {}
    for sent in sentences:
        for t in sent:
            freq[t] = freq.get(t, 0) + 1
    vocab = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    if len(vocab) < 2:
        raise TrainError("vocabulary too small after min_count filtering")
    index = {w: i for i, w in enumerate(vocab)}
    encoded = [
        [index[t] for t in sent if t in index] for sent in sentences
    ]
    encoded = [s for s in encoded if len(s) >= 2]

    rng = np.random.default_rng(seed)
    v = len(vocab)
    w_in = (rng.random((v, dims)) - 0.5) / dims
    w_out = np.zeros((v, dims))

    # unigram^0.75 negative-sampling distribution
    counts = np.array([freq[w] for w in vocab], dtype=np.float64)
    neg_probs = counts**0.75
    neg_probs /= neg_probs.sum()

    # each sentence's (center, context) pairs in training order, with the
    # position of each pair's center; the same in every epoch
    pair_lists = []
    for sent in encoded:
        centers, contexts, positions = [], [], []
        for ci, center in enumerate(sent):
            for xi in range(max(0, ci - window), min(len(sent), ci + window + 1)):
                if xi != ci:
                    centers.append(center)
                    contexts.append(sent[xi])
                    positions.append(ci)
        pair_lists.append((centers, contexts, positions))
    pairs = max(1, sum(len(centers) for centers, _, _ in pair_lists))

    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    eps = 1e-10
    total_steps = max(1, epochs * sum(len(s) for s in encoded))
    step = 0
    losses = []
    for _epoch in range(epochs):
        epoch_loss = 0.0
        for sent, (centers, contexts, positions) in zip(encoded, pair_lists):
            alphas = [
                LEARNING_RATE * max(1.0 - (step + ci) / total_steps, 1e-4)
                for ci in range(len(sent))
            ]
            step += len(sent)
            n = len(centers)
            # row j: pair j's context, then its negatives
            targets = np.empty((n, negatives + 1), dtype=np.int64)
            targets[:, 0] = contexts
            targets[:, 1:] = rng.choice(v, size=(n, negatives), p=neg_probs)
            ordered = np.sort(targets, axis=1)
            distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1).tolist()
            probs = np.empty((n, negatives + 1))
            for center, t, p, ci, unique in zip(
                centers, targets, probs, positions, distinct
            ):
                h = w_in[center]  # a view: updating h updates w_in
                wo = w_out.take(t, axis=0)
                # p = 1 / (1 + exp(-z)), in place
                np.negative(np.dot(wo, h), out=p)
                np.exp(p, out=p)
                p += 1.0
                np.divide(1.0, p, out=p)
                g = (p - labels) * alphas[ci]
                grad_h = np.dot(g, wo)
                update = g[:, None] * h
                if unique:
                    w_out[t] = wo - update
                else:
                    # a target drawn twice takes both updates, the second
                    # on top of the first: subtract.at applies them in order,
                    # bit for bit, where an assignment would keep only one
                    np.subtract.at(w_out, t, update)
                h -= grad_h
            # each pair's loss, subtracted one at a time in pair order, the
            # order that fixes the last bits of the sum
            pair_losses = np.log(probs[:, 0] + eps) + np.log(
                1.0 - probs[:, 1:] + eps
            ).sum(axis=1)
            for loss in pair_losses.tolist():
                epoch_loss -= loss
        losses.append(epoch_loss / pairs)

    store = EmbeddingStore(vocab, w_in)
    store.training_losses = losses
    return store


class AssociativeTable:
    """Truncated content tag -> distinct lowercased words with frequencies."""

    def __init__(self, table: dict[str, list[tuple[str, int]]]):
        # each tag's words most frequent first, ties by word, in any input order;
        # a tuple, since the memos below take the table as fixed
        self.table = {
            tag: tuple(sorted(words, key=lambda wc: (-wc[1], wc[0])))
            for tag, words in table.items()
        }
        # store -> tag -> that tag's rows in the store, (tag,) -> model 2's
        # unit block of them, and (tag, q) -> model 2's top three; keyed by
        # the store itself, so nothing resolved against one store ever
        # serves another
        self._rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def rows(
        self, tag: str, store: EmbeddingStore
    ) -> tuple[np.ndarray, np.ndarray]:
        """Store rows of the tag's attested words that have a vector: in
        word order, and in table order (most frequent first).

        Resolved against each store once, on first use; both arrays are
        shared between calls and read-only. TableError if the tag is absent.
        """
        by_tag = self.memo(store)
        rows = by_tag.get(tag)
        if rows is None:
            if tag not in self.table:
                raise TableError(f"no associative-table entry for tag {tag!r}")
            in_store = [
                (w, store.index[w]) for w, _ in self.table[tag] if w in store
            ]
            by_word = sorted(in_store, key=lambda wr: wr[0])
            rows = tuple(
                np.array([r for _, r in order], dtype=np.intp)
                for order in (by_word, in_store)
            )
            for a in rows:
                a.flags.writeable = False
            by_tag[tag] = rows
        return rows

    def memo(self, store: EmbeddingStore) -> dict:
        """This table's memo for one store, created empty on first use."""
        return self._rows.setdefault(store, {})

    def save(self, path: str | Path) -> None:
        write_jsonl(path, (
            {"tag": tag, "words": [[w, c] for w, c in self.table[tag]]}
            for tag in sorted(self.table)
        ))

    @classmethod
    def load(cls, path: str | Path) -> "AssociativeTable":
        table: dict[str, list[tuple[str, int]]] = {}

        def add(obj) -> None:
            tag, words = obj["tag"], [(w, c) for w, c in obj["words"]]
            if not isinstance(tag, str) or tag in table:
                raise ValueError(f"tag {tag!r} is not a string or is repeated")
            if not all(isinstance(w, str) and type(c) is int and c >= 0
                       for w, c in words):
                raise ValueError("words must be strings, counts integers >= 0")
            if len({w for w, _ in words}) < len(words):
                raise ValueError(f"a word is repeated under tag {tag!r}")
            table[tag] = words

        load_rows(read_jsonl(path), path, "bad table row", add)
        return cls(table)


def build_associative_table(corpus: list[TaggedSentence]) -> AssociativeTable:
    """Group content words by truncated tag, counting occurrences."""
    counts: dict[str, dict[str, int]] = {}
    for ts in corpus:
        for surface, tag in ts.tokens:
            if not is_content(tag):
                continue
            entry = counts.setdefault(tag.truncated, {})
            word = surface.lower()
            entry[word] = entry.get(word, 0) + 1
    return AssociativeTable({tag: list(words.items()) for tag, words in counts.items()})
