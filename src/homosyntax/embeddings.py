"""Dense word vectors, neighbor queries and the POS-indexed associative table.

The bundled trainer is a deliberately minimal single-threaded skip-gram with
negative sampling: deterministic for a fixed seed, compatible on disk with
the standard word2vec text format. Quality-sensitive users should load
externally trained vectors instead.

All similarity values exposed here are proximities in [0, 1]:
proximity = (cosine + 1) / 2, so larger always means closer.
"""

from __future__ import annotations

import contextlib
import os
import zlib
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import (BuildError, FormatError, OovError, TableError, decode_text,
                     load_rows, read_jsonl, write_jsonl, write_lines)
from .pos import TaggedSentence, count_words, is_content, tag_of

CHUNK = 64  # cold queries per float32 product: 64 x V values, 5 MB at V = 20k
COPY_FORMAT = 1  # bump when the text parse changes what it returns


def _proximity(cos: np.ndarray) -> np.ndarray:
    """(cosine + 1) / 2, clipped to [0, 1]: the one proximity formula."""
    return ((cos + 1.0) / 2.0).clip(0.0, 1.0)  # the clip ufunc, no wrapper chain


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Row norms, as a column. A non-finite component gives a non-finite
    norm, and so does a norm past the float range, without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(vectors, axis=1, keepdims=True)


def top_k(prox: np.ndarray, k: int, rank: np.ndarray) -> np.ndarray:
    """Positions of the k largest proximities, largest first, ties by
    ``rank[position]``; empty when k < 1. Only the values at or above the k-th
    largest, found in linear time, are sorted: all that tie with it are kept."""
    k = min(k, prox.size)
    if k < 1:
        return np.empty(0, np.intp)
    tied = (prox >= np.partition(prox, -k)[-k]).nonzero()[0]
    return tied[np.lexsort((rank[tied], -prox[tied]))[:k]]


class EmbeddingStore:
    """Word vectors and their unit rows. Nothing changes once built, so what
    the models reuse is kept in ``memo`` on first use: neighbor lists, model
    1's fills and fits, model 2's tag blocks and rankings, model 3's
    candidate blocks. An entry that also depends on a table or lexicon holds
    it in its key, so two owners never share one; the store keeps it alive."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        if len(words) != vectors.shape[0]:
            raise FormatError("vocab size does not match vector count")
        self.words = words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.vectors = np.asarray(vectors, dtype=np.float64)
        norms = _norms(self.vectors)
        if not np.isfinite(norms).all():
            raise FormatError("non-finite vector component or norm")
        self._unit = self.vectors / np.maximum(norms, 1e-12)
        # each row's place in the words' code-point order: every ranking's ties
        self.word_rank = np.argsort(sorted(range(len(words)), key=words.__getitem__))
        self.word_rank.flags.writeable = False
        self.memo: dict[tuple, object] = {}

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
        each element equals the one-pair value bit for bit, except under
        OpenBLAS's ``Prescott`` kernel, where a gathered row of an odd number
        of dims can lose its 16-byte alignment and the dot its last bit
        (README "Determinism"; ROADMAP item 7).
        """
        prox = _proximity(np.vecdot(self._unit[a], self._unit[b]))
        return float(prox) if prox.ndim == 0 else prox

    def unit_block(self, rows: Sequence[int]) -> np.ndarray:
        """The unit vectors of store rows, in their order, as one new
        contiguous read-only array: the operand of ``block_proximity``."""
        block = self._unit[rows]
        block.flags.writeable = False
        return block

    def block_proximity(self, a: int, block: np.ndarray) -> np.ndarray:
        """``proximity(a, rows)`` for the rows the block was made from,
        without gathering them again: the same np.vecdot on the same unit
        vectors, so equal bit for bit, but for ``proximity``'s exception
        under ``Prescott`` (ROADMAP item 7)."""
        return _proximity(np.vecdot(self._unit[a], block))

    def neighbors(self, q: str, m: int) -> np.ndarray:
        """Rows of the top-m words by ``proximity(q, w)``, the one-pair value,
        nearest first, q excluded, ties by word; empty when q is the store's
        only word. This is ``neighbors_many([q], m)[0]``: the same float32
        cut and exact re-rank, the same memo."""
        return self.neighbors_many([q], m)[0]

    def neighbors_many(self, qs: Sequence[str], m: int) -> list[np.ndarray]:
        """``neighbors(q, m)`` for each q of qs, in order, repeats allowed:
        ordered by ``proximity(q, w)``, the one-pair value, ties by word.

        Cold queries are scanned CHUNK at a time. One float32 product against
        a float32 copy of the unit rows (made on first use, kept in ``memo``)
        gives each word a coarse cosine, and only the words within
        2e + (d+2) 2^-50 of the query's k-th coarse value, e = g/(1 - g) and
        g = (d+2) 2^-24 for d dims, are re-ranked by ``proximity``. No word
        below that bound, derived in ``_scan``, can be in the top m.

        Each list is kept in ``memo`` per (q, m) and shared read-only.
        ValueError if m < 1, OovError naming the first word with no vector,
        both before any scan."""
        memo = self.memo
        try:  # no bad m or OOV word is ever memoized
            return [memo["neighbors", q, m] for q in qs]
        except KeyError:
            pass
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        for q in qs:
            self.row(q)
        cold = [q for q in dict.fromkeys(qs) if ("neighbors", q, m) not in memo]
        for start in range(0, len(cold), CHUNK):
            self._scan(cold[start : start + CHUNK], m)
        return [memo["neighbors", q, m] for q in qs]

    def _scan(self, qs: list[str], m: int) -> None:
        """Memoize the neighbor lists of up to CHUNK in-vocabulary words."""
        # the unit rows as float32 columns: a (d, V) right operand is the
        # fastest layout for sgemm, for one query or CHUNK
        cols = self.memo.get(("unit32",))
        if cols is None:
            cols = self.memo["unit32",] = np.ascontiguousarray(self._unit.T, np.float32)
        d, k = self.dims, min(m, len(self.words) - 1)
        # The bound. With u = 2^-24, float32's unit roundoff, rounding unit
        # rows x and y to float32 moves each product x_i*y_i by at most
        # (2u + u^2)|x_i*y_i|, and a float32 dot of d terms, summed in any
        # order, with or without FMA, adds at most du/(1 - du) of
        # sum|x_i*y_i| (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., sec. 3.1). So a coarse value is within
        # e = g/(1 - g), g = (d+2)u, of the real cosine c, as
        # sum|x_i*y_i| <= |x||y| = 1 + O(d 2^-52); underflow adds under
        # d 2^-126. The float64 dot in ``proximity`` is within d 2^-53 of c,
        # and (cos + 1)/2, rounded once and clipped to [0, 1], keeps the
        # order of two cosines more than 2^-52 apart unless both clip, which
        # |c| <= 1 + O(d 2^-52) confines to the same O(d 2^-52). A word whose
        # coarse value is more than 2e + (d+2) 2^-50 below the k-th coarse
        # value T therefore has a proximity strictly below each of the k or
        # more words at or above T: it is not in the top k. Rounding the cut
        # to float32 keeps every float32 value at or above it.
        g = (d + 2) * 2.0**-24
        bound = 2 * g / (1 - g) + (d + 2) * 2.0**-50
        iq = np.array([self.index[q] for q in qs], dtype=np.intp)
        coarse = self._unit[iq].astype(np.float32) @ cols  # a row per query
        coarse[np.arange(iq.size), iq] = -np.inf  # q is never its own neighbor
        kth = np.partition(coarse, -k, axis=1)[:, -k]
        cuts = (kth - np.float64(bound)).astype(np.float32)
        for q, i, row, cut in zip(qs, iq.tolist(), coarse, cuts):
            near = (row >= cut).nonzero()[0]
            rows = near[top_k(self.proximity(i, near), k, self.word_rank[near])]
            rows.flags.writeable = False
            self.memo["neighbors", q, m] = rows

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

        Each row is split by ``str.split`` and its components read by
        ``float()``, so ``1_0`` and non-ASCII digits load; the first bad row
        stops the load with its line. Nothing is sized by the header's dims
        before a row shows that width, and a row whose norm is not finite (a
        nan or inf component, or one too large to square) is an error at its
        line.

        A parse that succeeds keeps a binary copy of the words and vectors
        beside the file, ``.<file name>.npy``, keyed by the length and CRC-32
        of the bytes parsed. A later load of the same bytes builds the store
        from the copy instead; a missing, stale or damaged copy is ignored.
        """
        data = Path(path).read_bytes()
        key = [COPY_FORMAT, len(data), zlib.crc32(data)]
        copy = Path(path).with_name(f".{Path(path).name}.npy")
        cached = _read_copy(copy, key)
        if cached is not None:
            return cls(*cached)
        lines = decode_text(data, path).splitlines()
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
            raise FormatError(f"expected {count} vector rows", 1, path)
        row_of: dict[str, int] = {}  # word -> row index, in file order
        vectors: list[float] = []  # the components of every row, in order

        def add(parts: list[str]) -> None:
            if len(parts) != dims + 1:
                raise ValueError(f"expected word + {dims} floats")
            word = parts[0]
            if word in row_of:
                raise ValueError(
                    f"duplicate word {word!r}, first at line {row_of[word] + 2}"
                )
            vectors.extend(map(float, parts[1:]))
            row_of[word] = len(row_of)

        rows = enumerate((line.split() for line in lines[1 : 1 + count]), start=2)
        load_rows(rows, path, "bad vector row", add)
        try:
            parsed = list(row_of), np.array(vectors, np.float64).reshape(count, dims)
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
        _write_copy(copy, key, store)
        return store


def _read_copy(path: Path, key: list[int]) -> tuple[list[str], np.ndarray] | None:
    """Words and vectors of the copy at path, if it was written under key and
    its arrays pass their checks; None otherwise."""
    try:
        with open(path, "rb") as f:
            head, words, vectors = (np.load(f, allow_pickle=False) for _ in range(3))
    except (OSError, ValueError, EOFError, MemoryError):  # missing, cut short, not .npy
        return None
    if (words.dtype.kind != "U" or vectors.dtype != np.float64 or vectors.ndim != 2
            or vectors.shape[:1] != words.shape or not vectors.flags.c_contiguous
            or head.tolist() != [*key, zlib.crc32(vectors, zlib.crc32(words))]):
        return None
    return words.tolist(), vectors


def _write_copy(path: Path, key: list[int], store: EmbeddingStore) -> None:
    """Write what ``_read_copy`` reads, under key and the arrays' own CRC-32,
    through a temporary file; on an OSError, leave no file. Skipped when a
    word would not come back, as numpy drops trailing NULs."""
    table, vectors = np.array(store.words, dtype=str), store.vectors
    if table.tolist() != store.words:
        return
    head = np.array([*key, zlib.crc32(vectors, zlib.crc32(table))], np.int64)
    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    with contextlib.suppress(OSError):
        try:
            with open(tmp, "wb") as f:
                for array in (head, table, vectors):
                    np.save(f, array, allow_pickle=False)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


LEARNING_RATE = 0.025  # initial SGD step, decayed linearly to 1e-4 of it
BLOCK = 16  # sentences prepared at once: ~0.26 MB of arrays at the fixture's density


def lowercase_words(tokens: list[str] | tuple[str, ...]) -> list[str]:
    """Lowercase and drop tokens without letters (punctuation, numbers)."""
    return [t.lower() for t in tokens if t.isalpha() or any(map(str.isalpha, t))]


def train_embeddings(
    corpus: list[tuple[str, ...]],
    dims: int = 64,
    window: int = 5,
    epochs: int = 5,
    negatives: int = 5,
    seed: int = 0,
    min_count: int = 2,
) -> EmbeddingStore:
    """Single-threaded skip-gram with negative sampling; fully deterministic.

    Pairs are trained one at a time, in sentence order, by plain SGD. Their
    work is prepared BLOCK sentences at a time, and none of it changes a bit:
    the block's negatives come from one ``rng.choice`` call, which takes the
    same numbers from the seeded stream, in the same order, as one call per
    pair; each pair's learning rate is its center's global step, divided and
    clamped elementwise as one float would be. So the vectors do not depend
    on the block size. In the pair loop every ufunc takes arrays and writes
    into a kept buffer, and an elementwise IEEE operation rounds the same
    whether its operand is a scalar or an array.
    The input rows are kept negated, since rounding to nearest is symmetric:
    ``np.dot(wo, -h)`` is exactly -z, ``wo + g * -h`` is ``wo - g * h`` and
    ``-h + grad_h`` is ``-(h - grad_h)``. A pair whose targets (its context
    and its negatives) are all distinct updates their output rows in one
    assignment; a pair that drew a target twice goes through ``np.add.at``,
    which applies both updates to that row one after the other.
    """
    if len(corpus) < 100:
        raise BuildError(f"need >= 100 sentences, got {len(corpus)}")
    if dims < 8:
        raise BuildError(f"need dims >= 8, got {dims}")

    sentences = [lowercase_words(s) for s in corpus]
    freq: dict[str, int] = {}
    for sent in sentences:
        for t in sent:
            freq[t] = freq.get(t, 0) + 1
    vocab = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    if len(vocab) < 2:
        raise BuildError("vocabulary too small after min_count filtering")
    index = {w: i for i, w in enumerate(vocab)}
    encoded = [
        [index[t] for t in sent if t in index] for sent in sentences
    ]
    encoded = [s for s in encoded if len(s) >= 2]

    rng = np.random.default_rng(seed)
    v = len(vocab)
    # the input rows, kept negated while training
    neg_in = -((rng.random((v, dims)) - 0.5) / dims)
    w_out = np.zeros((v, dims))

    # unigram^0.75 negative-sampling distribution
    counts = np.array([freq[w] for w in vocab], dtype=np.float64)
    neg_probs = counts**0.75
    neg_probs /= neg_probs.sum()

    # the (center, context) pairs of each block of BLOCK sentences in training
    # order, with the step of each pair's center within an epoch; the same
    # in every epoch
    blocks = []
    tokens = 0
    for first in range(0, len(encoded), BLOCK):
        centers, contexts, steps = [], [], []
        for sent in encoded[first : first + BLOCK]:
            for ci, center in enumerate(sent):
                for xi in range(max(0, ci - window), min(len(sent), ci + window + 1)):
                    if xi != ci:
                        centers.append(center)
                        contexts.append(sent[xi])
                        steps.append(tokens + ci)
            tokens += len(sent)
        blocks.append((centers, contexts, np.array(steps)))

    # the operands and buffers every pair reuses: each ufunc below takes
    # arrays, so none converts a Python float, and writes into its third
    # argument
    k = negatives + 1
    labels = np.zeros(k)
    labels[0] = 1.0
    ones = np.ones(k)
    g = np.empty((k, 1))  # a column, so that g * h is the outer product
    g_row = g[:, 0]
    p = np.empty(k)
    grad_h = np.empty(dims)
    wo = np.empty((k, dims))
    update = np.empty((k, dims))
    dot, exp, add, divide, subtract, multiply = (  # as locals, for the pair loop
        np.dot, np.exp, np.add, np.divide, np.subtract, np.multiply
    )
    total_steps = max(1, epochs * tokens)
    for epoch in range(epochs):
        for centers, contexts, steps in blocks:
            n = len(centers)
            # row j: pair j's context, then its negatives
            targets = np.empty((n, k), dtype=np.int64)
            targets[:, 0] = contexts
            targets[:, 1:] = rng.choice(v, size=(n, negatives), p=neg_probs)
            ordered = np.sort(targets, axis=1)
            distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1).tolist()
            # row j: pair j's learning rate once per target, so that its
            # multiply takes operands of one shape, which is cheaper than a broadcast
            rates = np.empty((n, k))
            rates[:] = LEARNING_RATE * np.maximum(
                1.0 - (steps + epoch * tokens) / total_steps, 1e-4
            )[:, None]
            for center, t, rate, unique in zip(centers, targets, rates, distinct):
                neg_h = neg_in[center]  # a view: updating it updates neg_in
                # every index is in range; "clip" skips the copy that "raise"
                # makes through a buffer when given out=
                w_out.take(t, axis=0, out=wo, mode="clip")
                # p = 1 / (1 + exp(-z)), in place
                dot(wo, neg_h, p)
                exp(p, p)
                add(p, ones, p)
                divide(ones, p, p)
                subtract(p, labels, g_row)
                multiply(g_row, rate, g_row)
                dot(g_row, wo, grad_h)
                multiply(g, neg_h, update)  # -(g * h)
                if unique:
                    add(wo, update, wo)
                    w_out[t] = wo
                else:
                    # a target drawn twice takes both updates, the second
                    # on top of the first: add.at applies them in order,
                    # bit for bit, where an assignment would keep only one
                    np.add.at(w_out, t, update)
                add(neg_h, grad_h, neg_h)

    # 0.0 - x, not -x: no row starts with a -0.0 and h - grad_h never makes
    # one, so every zero comes back as +0.0
    return EmbeddingStore(vocab, 0.0 - neg_in)


class AssociativeTable:
    """Truncated content tag -> distinct lowercased words with frequencies."""

    def __init__(self, table: dict[str, list[tuple[str, int]]]):
        # each tag's words most frequent first, ties by word, in any input order;
        # a tuple, since the memos take the table as fixed
        self.table = {
            tag: tuple(sorted(words, key=lambda wc: (-wc[1], wc[0])))
            for tag, words in table.items()
        }

    def words(self, tag: str, store: EmbeddingStore) -> tuple[str, ...]:
        """The tag's attested words that have a vector, in table order (most
        frequent first). TableError if the tag is absent."""
        if tag not in self.table:
            raise TableError(f"no associative-table entry for tag {tag!r}")
        return tuple(w for w, _ in self.table[tag] if w in store)

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
    return AssociativeTable({tag: list(words.items())
                             for tag, words in count_words(corpus).items()
                             if is_content(tag_of(tag))})
