"""The generation driver shared by models 1-3."""

import random
from dataclasses import replace

import pytest

from homosyntax import model1
from homosyntax.embeddings import AssociativeTable, EmbeddingStore
from homosyntax.errors import (
    FormatError,
    GenerationError,
    HomosyntaxError,
    OovError,
    TableError,
)
from homosyntax.generation import NOVELTY_RETRIES, generate
from homosyntax.markov import DecodePolicy
from homosyntax.model1 import fill_content_with_relaxation, generate_model1
from homosyntax.model2 import generate_model2, rank_vocabulary
from homosyntax.model3 import generate_model3
from homosyntax.morphology import FormsLexicon
from homosyntax.pos import PosTag
from homosyntax.resources import load_resources

from conftest import FIXTURE_NEIGHBORS_M
from homosyntax.templates import Literal, Slot

MODELS = {1: generate_model1, 2: generate_model2, 3: generate_model3}


class _EveryNorm:
    """A corpus_norms that contains every sentence: nothing is novel."""

    def __contains__(self, key):
        return True


def _without_adjectives(resources):
    adjectives = {
        w for tag, words in resources.ta.table.items() if tag.startswith("A")
        for w, _ in words
    }
    store = resources.store
    keep = [i for i, w in enumerate(store.words) if w not in adjectives]
    smaller = EmbeddingStore([store.words[i] for i in keep], store.vectors[keep])
    return replace(resources, store=smaller), adjectives


@pytest.mark.parametrize("model", sorted(MODELS))
def test_nothing_novel_exhausts_retries(resources, model):
    res = replace(resources, corpus_norms=_EveryNorm())
    with pytest.raises(GenerationError) as exc:
        MODELS[model]("sol", 8, res, 0)
    assert str(exc.value) == (
        f"model {model} failed after 20 attempts: "
        "generated sentence exists in corpus"
    )


def _needs_adjective(template):
    return any(isinstance(i, Slot) and i.tag.category == "A" for i in template.items)


@pytest.mark.parametrize("model", [2, 3])
def test_template_reselection_without_adjectives(resources, model):
    # with no adjective in the store, an adjective slot has no candidate: that
    # attempt fails, and the next one draws a fresh template
    res, adjectives = _without_adjectives(resources)
    templates = res.templates.templates
    by_length = {n: [templates[t] for t in ids]
                 for n, ids in res.templates.by_length.items()}
    assert any(_needs_adjective(t) for t in by_length[8])
    for seed in range(200):
        s = MODELS[model]("sol", 8, res, seed)
        assert not adjectives & {r["chosen"] for r in s.trace}
    # every length-11 template has an adjective slot: every attempt fails
    assert all(_needs_adjective(t) for t in by_length[11])
    with pytest.raises(GenerationError) as exc:
        MODELS[model]("sol", 11, res, 0)
    assert type(exc.value) is GenerationError
    assert str(exc.value).startswith(
        f"model {model} failed after 20 attempts: "
        "no in-vocabulary candidate for tag 'AQ0"
    )


def test_model1_relaxation_error_costs_one_attempt(resources, monkeypatch):
    # a content slot that relaxation cannot fill costs one attempt, and the
    # next attempt walks a fresh skeleton; only 20 failures end the request
    walks, walk = [], model1.generate_egv
    relaxation_errors, fill = [], model1.fill_content_with_relaxation

    def counted(*args):
        walks.append(args)
        return walk(*args)

    def counted_fill(*args):
        try:
            return fill(*args)
        except GenerationError as e:
            relaxation_errors.append(e)
            raise

    monkeypatch.setattr(model1, "generate_egv", counted)
    monkeypatch.setattr(model1, "fill_content_with_relaxation", counted_fill)
    res = replace(resources, neighbors_m=20)
    sentence = generate_model1("sol", 8, res, 1)
    assert sentence.text == "Bajo el sueño o los sueño profundo."
    assert (len(walks), len(relaxation_errors)) == (3, 2)

    walks.clear()
    with pytest.raises(GenerationError) as exc:
        generate_model1("sol", 11, res, 5)
    assert type(exc.value) is GenerationError
    assert str(exc.value) == (
        "model 1 failed after 20 attempts: no word fitting tag 'NCFS' "
        "within 5 relaxations of query 'sol'"
    )
    assert len(walks) == NOVELTY_RETRIES


def test_model1_argmax_reports_dead_end(resources):
    # no argmax walk on the fixture matrix is longer than 5 tags
    res = replace(resources, policy=DecodePolicy.argmax())
    with pytest.raises(GenerationError) as exc:
        generate_model1("sol", 8, res, 0)
    assert str(exc.value) == (
        "model 1 failed after 20 attempts: "
        "no walk of length 8 under policy argmax: the longest is 5"
    )
    assert len(generate_model1("sol", 5, res, 0).tokens) == 5


class TestDriver:
    def _fill(self, position, item, rng):
        return item.upper(), {"position": position, "chosen": item.upper()}

    def test_literals_copied_and_slots_filled(self, resources):
        items = (Literal("el"), "sol", Literal("."))
        s = generate(9, "sol", resources, 0, lambda rng: ("src", items), self._fill)
        assert s.tokens == ("el", "SOL", ".")
        assert (s.model, s.query, s.source) == (9, "sol", "src")
        assert s.trace == [{"position": 1, "chosen": "SOL"}]

    def test_oov_query_checked_before_any_draw(self, resources):
        def skeleton(rng):
            raise AssertionError("skeleton drawn for an OOV query")

        with pytest.raises(OovError):
            generate(9, "zzzqx", resources, 0, skeleton, self._fill)

    def test_skeleton_error_costs_one_attempt(self, resources):
        # so does a slot that cannot be filled, whichever way its model fails
        calls = []

        def skeleton(rng):
            calls.append(rng)
            return "src", ("sol",)

        def dead_end(rng):
            skeleton(rng)
            raise GenerationError(f"dead-end {len(calls)}")

        def no_fill(position, item, rng):
            raise GenerationError(f"no fill {len(calls)}")

        for draw, fill, last in [
            (dead_end, self._fill, "dead-end 20"),
            (skeleton, no_fill, "no fill 20"),
        ]:
            calls.clear()
            with pytest.raises(GenerationError) as exc:
                generate(9, "sol", resources, 0, draw, fill)
            assert str(exc.value) == f"model 9 failed after 20 attempts: {last}"
            assert len(calls) == NOVELTY_RETRIES
            assert all(isinstance(r, random.Random) and r is calls[0] for r in calls)

    def test_other_errors_end_the_request_untried(self, resources):
        drawn = []

        def skeleton(rng):
            drawn.append(rng)
            return "src", ("sol",)

        for error in (TableError("no entry"), OovError("zzzqx"),
                      FormatError("bad row")):
            def fill(position, item, rng, error=error):
                raise error

            drawn.clear()
            with pytest.raises(HomosyntaxError) as exc:
                generate(9, "sol", resources, 0, skeleton, fill)
            assert exc.value is error
            assert len(drawn) == 1

    def test_one_reselection_per_attempt(self, resources):
        drawn = []

        def skeleton(rng):
            drawn.append(len(drawn))
            return f"t{len(drawn)}", ("sol",)

        def fill(position, item, rng):
            if len(drawn) < 2:
                raise GenerationError("first skeleton has no candidate")
            return self._fill(position, item, rng)

        s = generate(9, "sol", resources, 0, skeleton, fill)
        assert (s.source, s.tokens) == ("t2", ("SOL",))

        def never(position, item, rng):
            raise GenerationError(f"empty {len(drawn)}")

        drawn.clear()
        with pytest.raises(GenerationError) as exc:
            generate(9, "sol", resources, 0, skeleton, never)
        assert str(exc.value) == "model 9 failed after 20 attempts: empty 20"


def _run_grid(res, grid):
    """Each request's tokens, source and trace, or its error type and message."""
    out = []
    for model, q, n, seed, cap_m, policy, (neighbors_m, max_hops) in grid:
        res.cap_m, res.policy = cap_m, DecodePolicy.parse(policy)
        res.neighbors_m, res.max_hops = neighbors_m, max_hops
        try:
            s = MODELS[model](q, n, res, seed)
            out.append((s.tokens, s.source, s.trace))
        except HomosyntaxError as e:
            out.append((type(e).__name__, str(e)))
    return out


def test_warm_memos_give_the_cold_results(resources_dir):
    # the store's memo (neighbors; per table, tag rows, model 2's unit blocks
    # and top threes, and model 3's candidate blocks per (tag, cap); per
    # lexicon, content fills) and the matrix's successor tables fill as
    # requests run; a request must not depend on which requests ran before
    # it on the same resources, whatever settings those requests used
    grid = [
        (model, q, n, seed, cap_m, policy, setting)
        for model in MODELS
        for q in ("sol", "guerra", "amor", "zzzqx")
        for n in range(5, 13)
        for seed in range(4)
        for cap_m in ((2, 5, 200) if model == 3 else (200,))
        for policy in (("topk:3", "topk:1", "argmax") if model == 1 else ("topk:3",))
        for setting in (
            ((FIXTURE_NEIGHBORS_M, 5), (20, 5), (20, 1)) if model == 1
            else ((FIXTURE_NEIGHBORS_M, 5),)
        )
    ]
    warm = load_resources(resources_dir)
    _run_grid(warm, grid[::-1])
    expected = _run_grid(load_resources(resources_dir), grid)
    assert _run_grid(warm, grid) == expected
    # most default-setting requests yield a sentence, and every setting some
    made: dict[tuple, list[bool]] = {}
    for request, r in zip(grid, expected):
        made.setdefault(request[5:], []).append(len(r) == 3)
    default = made[("topk:3", (FIXTURE_NEIGHBORS_M, 5))]
    assert sum(default) > len(default) // 2
    assert all(any(ok) for ok in made.values())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HomosyntaxError as e:
        return type(e).__name__, str(e)


def _table_answers(resources, store, ta):
    """Model 2's top three for every (tag, q), then model 3's sentences at a
    binding cap, through one table."""
    res = replace(resources, store=store, ta=ta, cap_m=5)
    ranked = [_outcome(rank_vocabulary, PosTag(tag), q, ta, store)
              for tag in sorted(resources.ta.table) for q in ("sol", "guerra")]
    sentences = [_outcome(lambda s: generate_model3("sol", 7, res, s).trace, seed)
                 for seed in range(3)]
    return ranked, sentences


def _lexicon_answers(resources, store, forms):
    """Model 1's content fill for every (tag, q), through one lexicon."""
    return [
        _outcome(fill_content_with_relaxation, PosTag(tag), q, store, forms,
                 FIXTURE_NEIGHBORS_M, 5)
        for tag in sorted(resources.ta.table) for q in ("sol", "guerra", "amor")
    ]


@pytest.mark.parametrize("kind", ["table", "lexicon"])
def test_two_owners_over_one_store_keep_their_own_answers(resources, kind):
    # two tables, or two lexicons, serve one store: what each derives is
    # kept in the store's memo, and each must get the answer it gets alone,
    # whichever asks first
    if kind == "table":
        first = AssociativeTable(resources.ta.table)
        owners = (first, AssociativeTable(
            {tag: words[1::2] for tag, words in first.table.items()}))
        answers = _table_answers
    else:
        entries = [(lemma, *form) for lemma, forms in resources.forms.forms.items()
                   for form in forms]
        owners = (FormsLexicon(entries), FormsLexicon(entries[1::2]))
        answers = _lexicon_answers

    def fresh():
        return EmbeddingStore(resources.store.words, resources.store.vectors)

    alone = [answers(resources, fresh(), owner) for owner in owners]
    assert alone[0] != alone[1]
    for order in ((0, 1), (1, 0)):
        store = fresh()
        for i in order:
            for _ in ("miss", "hit"):
                assert answers(resources, store, owners[i]) == alone[i]
