import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    src = SentenceRecord("d", 0, tuple(w for w, _ in tokens))
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

    def test_dead_end_fails_after_the_restarts(self):
        # NCMS only leads to END; the rare AQ0M loops, so length 5 is
        # reachable, but seed 0 takes NCMS in all ten restarts
        m = _chain_matrix([["DA0M", "NCMS"]] * 99 + [["DA0M", "AQ0M", "AQ0M"]])
        policy = DecodePolicy.topk(2)
        with pytest.raises(GenerationError) as exc:
            generate_egv(m, 5, policy, random.Random(0))
        assert str(exc.value) == "dead-end before length 5 after 10 restarts"
        walks = [_walk(m, 5, policy, seed) for seed in range(100)]
        assert ("DA0M", "AQ0M", "AQ0M", "AQ0M", "AQ0M") in walks

    def test_unreachable_length_fails_before_drawing(self, matrix):
        # on the fixture matrix no argmax or top-1 walk is longer than 5 tags
        for policy in (DecodePolicy.argmax(), DecodePolicy.topk(1)):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(GenerationError) as exc:
                generate_egv(matrix, 6, policy, rng)
            assert str(exc.value) == (
                f"no walk of length 6 under policy {policy}: the longest is 5"
            )
            assert rng.getstate() == state
            assert len(generate_egv(matrix, 5, policy, rng)) == 5
        for k in (2, 3):
            assert matrix.draws(DecodePolicy.topk(k)).longest == 15

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


def _reference_successors(m, state):
    row = m.probs[m.index[state]]
    end_i = m.index[END]
    return [
        (m.states[j], float(row[j]))
        for j in np.nonzero(row)[0].tolist()
        if j != end_i
    ]


def _reference_step(m, state, policy, rng):
    succ = _reference_successors(m, state)
    if not succ:
        return None
    if policy.kind == "argmax":
        best = max(p for _, p in succ)
        tied = [s for s, p in succ if p >= best - 1e-12]
        return rng.choice(tied)
    top = sorted(succ, key=lambda sp: (-sp[1], sp[0]))[: policy.k]
    words = [s for s, _ in top]
    weights = [p for _, p in top]
    return rng.choices(words, weights=weights)[0]


def _reference_egv(m, n, policy, rng):
    """The walk as it was before the successor tables: every step rebuilds
    and re-sorts the state's successors."""
    for _ in range(10):
        succ = _reference_successors(m, START)
        if not succ:
            raise GenerationError("START state has no successors")
        seq = [rng.choices([s for s, _ in succ], weights=[p for _, p in succ])[0]]
        while len(seq) < n:
            nxt = _reference_step(m, seq[-1], policy, rng)
            if nxt is None:
                break
            seq.append(nxt)
        if len(seq) == n:
            return tuple(PosTag(t) for t in seq)
    raise GenerationError(f"dead-end before length {n} after 10 restarts")


def _walk(m, n, policy, seed):
    """The skeleton's tags, or the error's message."""
    rng = random.Random(seed)
    try:
        return tuple(t.truncated for t in generate_egv(m, n, policy, rng))
    except GenerationError as e:
        return str(e)


def _reachable(m, policy, n):
    """Whether some walk of n tags exists, level by level over the sets the
    reference's steps pick from."""
    def succ(state):
        options = _reference_successors(m, state)
        if not options:
            return []
        if policy.kind == "argmax":
            best = max(p for _, p in options)
            return [s for s, p in options if p >= best - 1e-12]
        top = sorted(options, key=lambda sp: (-sp[1], sp[0]))[: policy.k]
        return [s for s, _ in top]

    level = {s for s, _ in _reference_successors(m, START)}
    for _ in range(n - 1):
        level = {t for s in level for t in succ(s)}
    return bool(level)


POLICIES = [DecodePolicy.argmax(), *(DecodePolicy.topk(k) for k in (1, 2, 3, 5))]


def _compare_with_reference(m, policy, n, seed):
    """generate_egv equals the reference walk: the same skeleton or error,
    and the same rng state after; an unreachable n fails before any draw."""
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    try:
        got = tuple(generate_egv(m, n, policy, new_rng))
    except GenerationError as e:
        got = str(e)
    try:
        want = _reference_egv(m, n, policy, ref_rng)
    except GenerationError as e:
        want = str(e)
    if _reachable(m, policy, n) or want == "START state has no successors":
        assert got == want
        assert new_rng.getstate() == ref_rng.getstate()
    else:
        assert want.startswith("dead-end")  # the reference never gets there
        longest = max(k for k in range(1, n) if _reachable(m, policy, k))
        assert got == (
            f"no walk of length {n} under policy {policy}: the longest is {longest}"
        )
        assert new_rng.getstate() == random.Random(seed).getstate()


class TestSuccessorTable:
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_fixture_walks_equal_the_reference(self, matrix, policy):
        for n in range(3, 16):
            for seed in range(8):
                _compare_with_reference(matrix, policy, n, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.integers(min_value=3, max_value=5).flatmap(
            lambda size: st.lists(
                st.lists(st.sampled_from((0, 0, 1, 3)),  # sparse rows
                         min_size=size, max_size=size),
                min_size=size, max_size=size,
            )
        ),
        policy=st.sampled_from(POLICIES),
        n=st.integers(min_value=3, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_random_matrices_walk_as_the_reference(self, counts, policy, n, seed):
        # any cell may be counted, START and END included as successors; the
        # states are not in name order, which breaks top-k ties
        tags = tuple("CAB"[: len(counts) - 2])
        m = TransitionMatrix((START, *tags, END), np.array(counts, dtype=np.int64))
        _compare_with_reference(m, policy, n, seed)
        _compare_with_reference(m, policy, n, seed)  # the kept table

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(min_value=1, max_value=8).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(min_value=1, max_value=10**6),
                         min_size=k, max_size=k),
                min_size=k + 1, max_size=k + 1,
            )
        ),
        n=st.integers(min_value=3, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_weighted_draw_is_what_choices_picks(self, counts, n, seed):
        # START and k tags each lead to every tag, so no walk dead-ends and
        # each of its n draws bisects weights made from random counts
        k = len(counts[0])
        full = np.zeros((k + 2, k + 2), dtype=np.int64)
        full[: k + 1, 1 : k + 1] = counts
        m = TransitionMatrix((START, *(f"T{i}" for i in range(k)), END), full)
        policy = DecodePolicy.topk(k)
        rng, ref = random.Random(seed), random.Random(seed)
        got = generate_egv(m, n, policy, rng)
        draws, want = m.draws(policy), []
        draw = draws.first
        for _ in range(n):
            tags, cum = draw
            want.append(ref.choices(tags, cum_weights=cum)[0])
            draw = draws.steps[want[-1].full]
        assert all(a is b for a, b in zip(got, want, strict=True))
        assert rng.getstate() == ref.getstate()

    def test_walks_return_the_tables_tags(self, matrix, monkeypatch):
        policy = DecodePolicy.topk(3)
        generate_egv(matrix, 8, policy, random.Random(0))  # builds the table
        made = []
        monkeypatch.setattr(PosTag, "__post_init__", lambda tag: made.append(tag))
        seen: dict[str, PosTag] = {}
        shared = 0
        for seed in range(20):
            for tag in generate_egv(matrix, 8, policy, random.Random(seed)):
                shared += tag.full in seen
                assert seen.setdefault(tag.full, tag) is tag
        assert made == []
        assert shared > 100


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
