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

import numpy as np

from .errors import (BuildError, ConfigError, FormatError, TableError, load_rows,
                     read_lines, write_lines)
from .pos import PosTag, TaggedSentence, tag_of

START = "<s>"
END = "</s>"

MIN_LEN = 3
MAX_LEN = 15


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
# bisect on one rng.random()
Draw = tuple[list[PosTag], list[float]]


class TransitionMatrix:
    """MLE bigram probabilities over the states, and per-policy draw tables.

    ``draws(policy)`` builds a policy's table for every state and every
    number of tags left on the policy's first use and keeps it: the sets and
    weights ``generate_egv`` draws from depend only on the counts, which
    never change after construction, so a kept table gives exactly the draws
    a fresh one would. Nothing enters START and nothing leaves END: ``load``
    refuses such a count and ``build_transition_matrix`` never makes one.
    """

    def __init__(self, states: tuple[str, ...], counts: np.ndarray):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self.counts = counts
        totals = counts.sum(axis=1, keepdims=True)
        self.probs = counts / np.maximum(totals, 1)  # a row without counts stays 0
        self._draws: dict[DecodePolicy, list[dict[str, Draw]]] = {}

    def draws(self, policy: DecodePolicy) -> list[dict[str, Draw]]:
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
            raise FormatError(f"expected {n} state lines", 1, path)
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
            if states[j] == START or states[i] == END:
                raise ValueError(f"a count into {START!r} or out of {END!r}")
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


def _build_draws(m: TransitionMatrix, policy: DecodePolicy) -> list[dict[str, Draw]]:
    """``table[r][s]``: the draw of the tag after s when r tags follow it,
    conditioned on the sentence ending right after the last.

    A step's weight w(s, t) is the unconditioned walk's: under ``topk:K``, p
    renormalized over s's top K non-END successors by (-p, t); under argmax,
    uniform over the successors tied at the highest p; from START, every
    non-END successor at p, renormalized. ``ends[t]``, the chance that the
    r tags after t and then END follow, starts at P(t -> END) and is each
    entry's total. An entry keeps the t with w(s, t) * ends[t] > 0, with
    cumulative weights, and a state with none has no entry."""
    end_i = m.index[END]
    weights: dict[str, list[tuple[str, float]]] = {}
    for i, state in enumerate(m.states):
        row = m.probs[i]
        succ = [(m.states[j], float(row[j])) for j in np.nonzero(row)[0].tolist()
                if j != end_i]
        if succ and state != START:
            if policy.kind == "argmax":
                best = max(p for _, p in succ)
                succ = [(t, 1.0) for t, p in succ if p >= best - 1e-12]
            else:
                succ = sorted(succ, key=lambda tp: (-tp[1], tp[0]))[: policy.k]
        total = sum(p for _, p in succ)
        weights[state] = [(t, p / total) for t, p in succ]
    ends = dict(zip(m.states, m.probs[:, end_i].tolist()))
    table = []
    for _ in range(MAX_LEN):
        entries: dict[str, Draw] = {}
        for state, succ in weights.items():
            kept = [(t, w * ends[t]) for t, w in succ if w * ends[t] > 0]
            if kept:
                entries[state] = ([tag_of(t) for t, _ in kept],
                                  list(accumulate(x for _, x in kept)))
        table.append(entries)
        ends = {s: entries[s][1][-1] if s in entries else 0.0 for s in m.states}
    return table


def generate_egv(
    m: TransitionMatrix,
    n: int,
    policy: DecodePolicy,
    rng: random.Random,
) -> tuple[PosTag, ...]:
    """Generate an n-tag skeleton by walking the transition matrix from
    START, conditioned on the sentence ending right after tag n.

    The walk draws each tag from ``m.draws(policy)``, the policy's kept
    table, and returns its PosTag objects. A draw is the bisect at one
    ``rng.random()`` that ``rng.choices(tags, cum_weights=cum)`` makes, so
    a walk takes exactly n numbers from ``rng``. A length that no walk
    under the policy ends a sentence at raises TableError before drawing.
    """
    if not (MIN_LEN <= n <= MAX_LEN):
        raise ConfigError(f"length must be in [{MIN_LEN}, {MAX_LEN}], got {n}")
    table = m.draws(policy)
    if START not in table[n - 1]:
        lengths = [k for k in range(MIN_LEN, MAX_LEN + 1) if START in table[k - 1]]
        raise TableError(
            f"no walk of length {n} under policy {policy} ends a sentence; "
            f"lengths that do: {', '.join(map(str, lengths)) or 'none'}"
        )
    seq: list[PosTag] = []
    for r in range(n - 1, -1, -1):  # r: the tags that follow the one drawn
        tags, cum = table[r][seq[-1].full if seq else START]
        seq.append(tags[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)])
    return tuple(seq)
