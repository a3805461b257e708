"""POS-bigram transition matrix and stochastic skeleton generation.

States are truncated tags plus synthetic START/END boundary markers.
Probabilities are pure maximum-likelihood estimates: no smoothing, so every
generated bigram is guaranteed to have been observed in training.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (BuildError, ConfigError, FormatError, GenerationError,
                     load_rows, read_lines, write_lines)
from .pos import PosTag, TaggedSentence, tag_of

START = "<s>"
END = "</s>"

MIN_LEN = 3
MAX_LEN = 15
RESTARTS = 10  # fresh walks before a dead-end is an error


@dataclass(frozen=True)
class DecodePolicy:
    kind: str  # "argmax" | "topk"
    k: int = 3

    @classmethod
    def argmax(cls) -> "DecodePolicy":
        return cls("argmax")

    @classmethod
    def topk(cls, k: int = 3) -> "DecodePolicy":
        if k < 1:
            raise ConfigError(f"topk k must be >= 1, got {k}")
        return cls("topk", k)

    @classmethod
    def parse(cls, text: str) -> "DecodePolicy":
        if text == "argmax":
            return cls.argmax()
        if text.startswith("topk:"):
            try:
                return cls.topk(int(text.split(":", 1)[1]))
            except ValueError as e:
                raise ConfigError(f"bad policy {text!r}") from e
        if text == "topk":
            return cls.topk()
        raise ConfigError(f"unknown decode policy {text!r}")

    def __str__(self) -> str:
        return self.kind if self.kind == "argmax" else f"topk:{self.k}"


# a state's draw: the tags it may pick, and their cumulative weights for a
# bisect on one rng.random(), or None for a uniform rng.choice (argmax ties)
Draw = tuple[list[PosTag], list[float] | None]


class Draws(NamedTuple):
    """One decode policy's successor table over a matrix."""

    first: Draw  # START's every non-END successor, in state order
    steps: dict[str, Draw]  # state -> its draw; a state without one dead-ends
    longest: int  # the longest walk from a first tag, at most MAX_LEN


class TransitionMatrix:
    """MLE bigram probabilities over the states, and per-policy draw tables.

    ``draws(policy)`` builds a policy's table for every state on the
    policy's first use and keeps it: the sets and weights ``generate_egv``
    draws from depend only on the counts, which never change after
    construction, so a kept table gives exactly the draws a fresh one would.
    """

    def __init__(self, states: tuple[str, ...], counts: np.ndarray):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self.counts = counts
        totals = counts.sum(axis=1, keepdims=True)
        self.probs = counts / np.maximum(totals, 1)  # a row without counts stays 0
        self._draws: dict[DecodePolicy, Draws] = {}

    def draws(self, policy: DecodePolicy) -> Draws:
        table = self._draws.get(policy)
        if table is None:
            table = self._draws[policy] = _build_draws(self, policy)
        return table

    def save(self, path: str | Path) -> None:
        """Header, state list, then sparse ``i j count`` triples."""
        rows, cols = np.nonzero(self.counts)
        triples = zip(rows.tolist(), cols.tolist(), self.counts[rows, cols].tolist())
        write_lines(path, [f"states {len(self.states)}", *self.states,
                           *(f"{i} {j} {c}" for i, j, c in triples)])

    @classmethod
    def load(cls, path: str | Path) -> "TransitionMatrix":
        lines = read_lines(path)
        if not lines or not lines[0].startswith("states "):
            raise FormatError("missing 'states <n>' header", 1, path)
        try:
            n = int(lines[0].split()[1])
        except (IndexError, ValueError) as e:
            raise FormatError("bad state count", 1, path) from e
        if n < 0:
            raise FormatError(f"negative state count {n}", 1, path)
        if len(lines) < 1 + n:
            raise FormatError(f"expected {n} state lines", path=path)
        states = tuple(lines[1 : 1 + n])
        seen: set[str] = set()

        def add_state(state: str) -> None:
            if not state:
                raise ValueError("empty")
            if state.split() != [state]:
                raise ValueError(f"{state!r} holds whitespace")
            if state in seen:
                raise ValueError(f"{state!r} repeats an earlier state")
            seen.add(state)

        load_rows(enumerate(states, start=2), path, "bad state line", add_state)
        counts = np.full((n, n), -1, dtype=np.int64)  # -1: a cell no row has set
        count_max = int(np.iinfo(counts.dtype).max)
        totals = [0] * n  # exact row sums: the int64 sum in __init__ would wrap

        def add(parts: list[str]) -> None:
            if len(parts) != 3:
                raise ValueError("expected 'i j count'")
            i, j, c = int(parts[0]), int(parts[1]), int(parts[2])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("state index out of range")
            if c < 0:
                raise ValueError(f"negative count {c}")
            if c > count_max:
                raise ValueError(f"count {c} above {count_max}")
            if counts[i, j] >= 0:
                raise ValueError(f"cell {i} {j} repeats an earlier row")
            totals[i] += c
            if totals[i] > count_max:
                raise ValueError(f"row {i} sums to {totals[i]}, above {count_max}")
            counts[i, j] = c

        body = enumerate(lines[1 + n :], start=2 + n)
        rows = ((i, line.split()) for i, line in body if line.strip())
        load_rows(rows, path, "bad count row", add)
        return cls(states, np.maximum(counts, 0))


def build_transition_matrix(corpus: list[TaggedSentence]) -> TransitionMatrix:
    """MLE bigram counts over truncated tags with START/END boundaries."""
    if not corpus:
        raise BuildError("cannot build transition matrix from empty corpus")
    tags = sorted({tag.truncated for ts in corpus for _, tag in ts.tokens})
    states = (START, *tags, END)
    index = {s: i for i, s in enumerate(states)}
    counts = np.zeros((len(states), len(states)), dtype=np.int64)
    for ts in corpus:
        seq = [START] + [tag.truncated for _, tag in ts.tokens] + [END]
        for a, b in zip(seq, seq[1:]):
            counts[index[a], index[b]] += 1
    return TransitionMatrix(states, counts)


def _successors(m: TransitionMatrix, state: str) -> list[tuple[str, float]]:
    """Non-END successors with positive probability, by state order."""
    row = m.probs[m.index[state]]
    end_i = m.index[END]
    return [
        (m.states[j], float(row[j]))
        for j in np.nonzero(row)[0].tolist()
        if j != end_i
    ]


def _build_draws(m: TransitionMatrix, policy: DecodePolicy) -> Draws:
    """Each state keeps its top-k successors by (-p, state), with cumulative
    weights, or under argmax its successors tied at the highest p."""
    # what Random.choices checks on each call holds by construction: a weight
    # list is as long as its tags, and its total, a sum of p in (0, 1], is
    # positive and finite
    def weighted(succ: list[tuple[str, float]]) -> Draw:
        return [tag_of(s) for s, _ in succ], list(accumulate(p for _, p in succ))

    steps: dict[str, Draw] = {}
    for state in m.states:
        succ = _successors(m, state)
        if not succ:
            continue
        if policy.kind == "argmax":
            best = max(p for _, p in succ)
            steps[state] = ([tag_of(s) for s, p in succ if p >= best - 1e-12], None)
        else:
            top = sorted(succ, key=lambda sp: (-sp[1], sp[0]))[: policy.k]
            steps[state] = weighted(top)
    # longest[s]: the longest walk from s, capped at MAX_LEN tags
    longest = dict.fromkeys(m.states, 1)
    for _ in range(MAX_LEN - 1):
        longest = {
            s: 1 + max(longest[t.full] for t in steps[s][0]) if s in steps else 1
            for s in m.states
        }
    first = _successors(m, START)
    return Draws(weighted(first), steps, max((longest[s] for s, _ in first), default=0))


def generate_egv(
    m: TransitionMatrix,
    n: int,
    policy: DecodePolicy,
    rng: random.Random,
) -> tuple[PosTag, ...]:
    """Generate an n-tag skeleton by walking the transition matrix from
    START: the first tag is drawn by its sentence-initial probability.

    The walk draws from ``m.draws(policy)``, the policy's kept successor
    table, and returns its PosTag objects. A weighted draw is the bisect at
    one ``rng.random()`` that ``rng.choices(tags, cum_weights=cum)`` makes,
    so the walk takes the same numbers from ``rng`` as drawing from each
    state's successors afresh. A length longer than any walk the policy
    allows fails before anything is drawn.
    """
    if not (MIN_LEN <= n <= MAX_LEN):
        raise ConfigError(f"length must be in [{MIN_LEN}, {MAX_LEN}], got {n}")
    draws = m.draws(policy)
    if not draws.first[0]:
        raise GenerationError("START state has no successors")
    if n > draws.longest:
        raise GenerationError(
            f"no walk of length {n} under policy {policy}: "
            f"the longest is {draws.longest}"
        )

    steps = draws.steps
    for _ in range(RESTARTS):
        seq: list[PosTag] = []
        draw = draws.first
        while draw is not None:
            tags, cum = draw
            if cum is None:
                tag = rng.choice(tags)
            else:
                tag = tags[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]
            seq.append(tag)
            if len(seq) == n:
                return tuple(seq)
            draw = steps.get(tag.full)
    raise GenerationError(f"dead-end before length {n} after {RESTARTS} restarts")
