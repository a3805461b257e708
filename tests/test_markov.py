import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homosyntax.corpus import SentenceRecord
from homosyntax.errors import BuildError, ConfigError, FormatError, GenerationError
from homosyntax.markov import (
    DecodePolicy,
    END,
    START,
    TransitionMatrix,
    build_transition_matrix,
    generate_egv,
)
from homosyntax.pos import PosTag, TaggedSentence


def _ts(tags):
    tokens = tuple((f"w{i}", PosTag(t)) for i, t in enumerate(tags))
    src = SentenceRecord("d", 0, tuple(w for w, _ in tokens), 0)
    return TaggedSentence(tokens=tokens, source=src)


def _chain_matrix(pairs):
    """Matrix from explicit bigram observations, via tiny sentences."""
    return build_transition_matrix([_ts(seq) for seq in pairs])


def _prob(m, a, b):
    return m.probs[m.index[a], m.index[b]]


class TestBuild:
    def test_hand_counted_split(self):
        m = _chain_matrix([["DA0M", "NCMS"], ["DA0M", "AQ0M"]])
        assert _prob(m, "DA0M", "NCMS") == pytest.approx(0.5)
        assert _prob(m, "DA0M", "AQ0M") == pytest.approx(0.5)

    def test_single_observation(self):
        m = _chain_matrix([["DA0M", "NCMS"]])
        assert _prob(m, "DA0M", "NCMS") == pytest.approx(1.0)

    def test_empty_corpus(self):
        with pytest.raises(BuildError):
            build_transition_matrix([])

    def test_row_stochastic(self, matrix):
        for i in range(len(matrix.states)):
            if matrix.counts[i].sum() > 0:
                assert abs(matrix.probs[i].sum() - 1.0) <= 1e-9

    def test_boundary_states(self, matrix):
        si, ei = matrix.index[START], matrix.index[END]
        assert matrix.counts[:, si].sum() == 0  # nothing enters START
        assert matrix.counts[ei, :].sum() == 0  # nothing leaves END

    def test_truncated_states(self, matrix):
        assert all(len(s) <= 4 or s in (START, END) for s in matrix.states)


# every sentence of these hand-built matrices starts with DA0M, so a walk
# always begins there
class TestGenerate:
    def test_deterministic_chain(self):
        m = _chain_matrix([["DA0M", "NCMS", "AQ0M"]])
        egv = generate_egv(m, 3, DecodePolicy.argmax(), random.Random(0))
        assert [t.truncated for t in egv] == ["DA0M", "NCMS", "AQ0M"]

    def test_argmax_takes_mode(self):
        # DA0M -> NCMS seen 7 times, -> AQ0M seen 3 times
        sents = [["DA0M", "NCMS", "AQ0M"]] * 7 + [["DA0M", "AQ0M", "NCMS"]] * 3
        m = _chain_matrix(sents)
        for seed in range(10):
            egv = generate_egv(m, 3, DecodePolicy.argmax(), random.Random(seed))
            assert egv[1].truncated == "NCMS"

    def test_length_bounds(self, matrix):
        for n in (2, 16):
            with pytest.raises(ConfigError):
                generate_egv(matrix, n, DecodePolicy.topk(3), random.Random(0))

    def test_dead_end_carries_partial(self):
        m = _chain_matrix([["DA0M", "NCMS"]])  # NCMS only leads to END
        with pytest.raises(GenerationError) as exc:
            generate_egv(m, 5, DecodePolicy.argmax(), random.Random(0))
        assert exc.value.partial == ("DA0M", "NCMS")

    def test_support_soundness(self, matrix):
        # dead-ends may abort a draw; every completed skeleton must only use
        # observed transitions
        rng = random.Random(99)
        completed = 0
        for _ in range(50):
            n = rng.randint(3, 15)
            try:
                egv = generate_egv(matrix, n, DecodePolicy.topk(3), rng)
            except GenerationError:
                continue
            completed += 1
            slots = [t.truncated for t in egv]
            for a, b in zip(slots, slots[1:]):
                assert _prob(matrix, a, b) > 0
        assert completed >= 25

    def test_determinism(self, matrix):
        a = generate_egv(matrix, 8, DecodePolicy.topk(3), random.Random(42))
        b = generate_egv(matrix, 8, DecodePolicy.topk(3), random.Random(42))
        assert a == b

    @given(st.integers(min_value=1, max_value=1000))
    def test_argmax_scale_invariant(self, c):
        base = _chain_matrix([["DA0M", "NCMS"]] * 7 + [["DA0M", "AQ0M"]] * 3)
        scaled = TransitionMatrix(base.states, base.counts * c)
        i = base.index["DA0M"]
        assert np.argmax(base.probs[i]) == np.argmax(scaled.probs[i])


class TestSerialization:
    def test_round_trip_probs(self, matrix, tmp_path):
        path = tmp_path / "matrix.txt"
        matrix.save(path)
        back = TransitionMatrix.load(path)
        assert back.states == matrix.states
        assert np.max(np.abs(back.probs - matrix.probs)) <= 1e-12

    def test_header_format(self, matrix, tmp_path):
        path = tmp_path / "matrix.txt"
        matrix.save(path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"states {len(matrix.states)}"

    def test_negative_count_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("states 2\nA\nB\n0 1 3\n\n1 0 -2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="negative count -2") as exc:
            TransitionMatrix.load(path)
        assert (exc.value.path, exc.value.line) == (str(path), 6)

    def test_zero_count_accepted(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("states 2\nA\nB\n0 1 3\n1 0 0\n", encoding="utf-8")
        assert TransitionMatrix.load(path).counts.tolist() == [[0, 3], [0, 0]]


class TestPolicyParse:
    def test_argmax(self):
        assert DecodePolicy.parse("argmax").kind == "argmax"

    def test_topk(self):
        p = DecodePolicy.parse("topk:5")
        assert (p.kind, p.k) == ("topk", 5)

    def test_bad(self):
        with pytest.raises(ConfigError):
            DecodePolicy.parse("beam:2")
