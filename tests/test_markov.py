import random
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.errors import BuildError, ConfigError, FormatError, TableError
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
    return TaggedSentence(tokens)


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

    def test_a_rare_walk_is_drawn_at_once(self):
        # NCMS only leads to END and the rare AQ0M loops, so the one walk of
        # length 5 that ends a sentence loops on AQ0M: every seed draws it,
        # with one number per tag
        m = _chain_matrix([["DA0M", "NCMS"]] * 99 + [["DA0M", "AQ0M", "AQ0M"]])
        for seed in range(20):
            rng = _CountingRandom(seed)
            egv = generate_egv(m, 5, DecodePolicy.topk(2), rng)
            assert [t.truncated for t in egv] == ["DA0M"] + ["AQ0M"] * 4
            assert rng.calls == 5

    def test_unreachable_length_fails_before_drawing(self, matrix):
        # on the fixture matrix the argmax and top-1 walks that end a
        # sentence have 4 or 5 tags, and no top-2 walk of 3 or 7 tags ends one
        for policy, lengths in [(DecodePolicy.argmax(), [4, 5]),
                                (DecodePolicy.topk(1), [4, 5]),
                                (DecodePolicy.topk(2), [4, 5, 6, *range(8, 16)])]:
            for n in sorted(set(range(3, 16)) - set(lengths)):
                rng = random.Random(0)
                state = rng.getstate()
                with pytest.raises(TableError) as exc:
                    generate_egv(matrix, n, policy, rng)
                assert str(exc.value) == (
                    f"no walk of length {n} under policy {policy} ends a "
                    f"sentence; lengths that do: {', '.join(map(str, lengths))}"
                )
                assert rng.getstate() == state
            for n in lengths:
                assert len(generate_egv(matrix, n, policy, random.Random(n))) == n
        for k in (3, 5):
            for n in range(3, 16):
                rng = random.Random(n)
                assert len(generate_egv(matrix, n, DecodePolicy.topk(k), rng)) == n

    def test_support_soundness(self, matrix):
        # every skeleton uses only observed transitions and ends on a tag
        # that ends a corpus sentence
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(3, 15)
            slots = [t.truncated for t in
                     generate_egv(matrix, n, DecodePolicy.topk(3), rng)]
            assert len(slots) == n
            for a, b in zip(slots, slots[1:]):
                assert _prob(matrix, a, b) > 0
            assert _prob(matrix, slots[-1], END) > 0

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


class _CountingRandom(random.Random):
    """A Random that counts the numbers ``random()`` returns."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def _end_prob(m, state):
    row = m.counts[m.index[state]]
    return row[m.index[END]] / row.sum() if row.sum() else 0.0


def _step(m, state, policy):
    """The unconditioned walk's next-tag probabilities from state, worked
    out from the counts: {tag: p} in the order the walk lists them. END is
    never a step; START draws any successor at its p, and any other state
    keeps its top k by (-count, tag), or under argmax its most counted,
    uniformly."""
    row = m.counts[m.index[state]]
    succ = {m.states[j]: int(c) for j, c in enumerate(row.tolist())
            if c and m.states[j] != END}
    if state != START and succ:
        if policy.kind == "argmax":
            best = max(succ.values())
            succ = {t: 1 for t, c in succ.items() if c == best}
        else:
            succ = dict(sorted(succ.items(), key=lambda tc: (-tc[1], tc[0]))[: policy.k])
    total = sum(succ.values())
    return {t: c / total for t, c in succ.items()}


def _kept_walks(m, n, policy):
    """Every n-tag walk of the unconditioned chain that then ends the
    sentence, with the chance that it is drawn and ends: {walk: chance}."""
    steps = {s: _step(m, s, policy) for s in m.states}
    walks = {(START,): 1.0}
    for _ in range(n):
        walks = {w + (t,): x * p for w, x in walks.items()
                 for t, p in steps[w[-1]].items()}
    kept = {w[1:]: x * _end_prob(m, w[-1]) for w, x in walks.items()}
    return {w: x for w, x in kept.items() if x > 0}


def _check_table(m, policy, n):
    """Each entry an n-tag walk draws from holds the next-tag chances found
    by enumerating every kept walk; START's entry is missing exactly when
    no walk is kept."""
    walks, table = _kept_walks(m, n, policy), m.draws(policy)
    assert (START in table[n - 1]) == bool(walks)
    after: dict[tuple[int, str], dict[str, float]] = {}  # (tags left, state)
    for walk, x in walks.items():
        for i, t in enumerate(walk):
            key = (n - 1 - i, walk[i - 1] if i else START)
            after.setdefault(key, dict.fromkeys(_step(m, key[1], policy), 0.0))
            after[key][t] += x
    for (r, state), chances in after.items():
        tags, cum = table[r][state]
        want = {t: x for t, x in chances.items() if x > 0}
        assert [t.full for t in tags] == list(want)
        total = sum(want.values())
        expect = list(accumulate(x / total for x in want.values()))
        assert [c / cum[-1] for c in cum] == pytest.approx(expect, rel=1e-12)


def _conditioned(m, n, policy, seed, count):
    rng = random.Random(seed)
    return Counter(tuple(t.full for t in generate_egv(m, n, policy, rng))
                   for _ in range(count))


def _rejected(m, n, policy, seed, count):
    """Walks of the unconditioned chain, each kept with the chance that the
    sentence ends after its last tag; a walk that dead-ends is dropped."""
    rng = random.Random(seed)
    steps = {s: _step(m, s, policy) for s in m.states}
    ends = {s: _end_prob(m, s) for s in m.states}
    out: Counter = Counter()
    while out.total() < count:
        walk = [START]
        while len(walk) <= n and steps[walk[-1]]:
            walk += rng.choices(list(steps[walk[-1]]), list(steps[walk[-1]].values()))
        if len(walk) == n + 1 and rng.random() < ends[walk[-1]]:
            out[tuple(walk[1:])] += 1
    return out


def _tv(a, b):
    """Total variation between two samples' empirical distributions."""
    na, nb = a.total(), b.total()
    return sum(abs(a[w] / na - b[w] / nb) for w in a.keys() | b.keys()) / 2


def _small_matrix():
    # A ends a sentence half the time, C a fifth of the time and B never,
    # while B is the likeliest step from A and from C: conditioning on the
    # end moves much of the weight off B
    states = (START, "A", "B", "C", END)
    counts = [[0, 2, 1, 1, 0],
              [0, 0, 4, 1, 5],
              [0, 2, 1, 3, 0],
              [0, 1, 3, 0, 1],
              [0, 0, 0, 0, 0]]
    return TransitionMatrix(states, np.array(counts, dtype=np.int64))


POLICIES = [DecodePolicy.argmax(), *(DecodePolicy.topk(k) for k in (1, 2, 3, 5))]
# the longest walk enumerated on a random matrix, by its number of tags
MAX_ENUMERATED = {1: 15, 2: 15, 3: 9}


class TestSuccessorTable:
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_fixture_walks_equal_the_reference(self, matrix, policy):
        # a length is reachable when some state n tags from START ends a
        # sentence; the enumeration covers the shorter lengths
        level, reachable = {START}, []
        for n in range(1, 16):
            level = {t for s in level for t in _step(matrix, s, policy)}
            if n >= 3 and any(_end_prob(matrix, s) > 0 for s in level):
                reachable.append(n)
        table = matrix.draws(policy)
        assert [n for n in range(3, 16) if START in table[n - 1]] == reachable
        for n in (3, 4, 5):
            _check_table(matrix, policy, n)

    @settings(max_examples=120, deadline=None)
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
    )
    def test_random_matrices_walk_as_the_reference(self, counts, policy, n):
        # nothing enters START and nothing leaves END, as in any matrix that
        # loads; the states are not in name order, which breaks top-k ties
        counts = np.array(counts, dtype=np.int64)
        counts[:, 0] = counts[-1] = 0
        tags = tuple("CAB"[: len(counts) - 2])
        n = min(n, MAX_ENUMERATED[len(tags)])
        m = TransitionMatrix((START, *tags, END), counts)
        _check_table(m, policy, n)
        if START not in m.draws(policy)[n - 1]:
            with pytest.raises(TableError, match=(
                    f"^no walk of length {n} under policy {policy} ends")):
                generate_egv(m, n, policy, random.Random(0))

    # the walk is today's, conditioned on the sentence ending after tag n:
    # its samples match samples of today's walk kept with the chance that
    # the sentence ends there. Two samplers of one distribution differ by
    # under 0.08 at these sizes, and drawing in proportion to the step
    # weights alone differs by about 0.3
    @pytest.mark.parametrize("n", [4, 6])
    def test_small_matrix_walks_match_rejection_samples(self, n):
        m, policy = _small_matrix(), DecodePolicy.topk(2)
        got = _conditioned(m, n, policy, 1, 4000)
        assert _tv(got, _rejected(m, n, policy, 2, 4000)) < 0.12

    def test_fixture_walks_match_rejection_samples(self, matrix):
        policy = DecodePolicy.topk(3)
        got = _conditioned(matrix, 4, policy, 1, 4000)
        assert _tv(got, _rejected(matrix, 4, policy, 2, 4000)) < 0.08

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(min_value=1, max_value=8).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(min_value=1, max_value=10**6),
                         min_size=k + 1, max_size=k + 1),
                min_size=k + 1, max_size=k + 1,
            )
        ),
        n=st.integers(min_value=3, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_weighted_draw_is_what_choices_picks(self, counts, n, seed):
        # START and k tags each lead to every tag, and every tag ends
        # sentences, so every entry is full and each of the n draws bisects
        # weights made from random counts
        k = len(counts[0]) - 1
        full = np.zeros((k + 2, k + 2), dtype=np.int64)
        full[: k + 1, 1:] = counts
        m = TransitionMatrix((START, *(f"T{i}" for i in range(k)), END), full)
        policy = DecodePolicy.topk(k)
        rng, ref = _CountingRandom(seed), random.Random(seed)
        got = generate_egv(m, n, policy, rng)
        table, want, state = m.draws(policy), [], START
        for r in range(n - 1, -1, -1):
            tags, cum = table[r][state]
            want.append(ref.choices(tags, cum_weights=cum)[0])
            state = want[-1].full
        assert all(a is b for a, b in zip(got, want, strict=True))
        assert rng.calls == n
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
