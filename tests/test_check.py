from dataclasses import replace

import numpy as np

from homosyntax import check
from homosyntax.markov import TransitionMatrix


def test_novelty_check_leaves_caller_resources_alone(resources):
    res = replace(resources, neighbors_m=20)
    result = check.check_novelty(res)
    assert result.passed
    assert res.neighbors_m == 20


def test_run_check_parses_tagged_corpus_once(resources_dir, monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return read(path)

    read = check.read_tagged_tsv
    monkeypatch.setattr(check, "read_tagged_tsv", counting)
    results = check.run_check(resources_dir)
    assert all(r.passed for r in results)
    assert len(calls) == 1



def test_row_stochastic_check_fails_on_a_negative_count(resources):
    # a file with a negative count no longer loads; a matrix built in code
    # can still hold one, and the check must catch it
    matrix = TransitionMatrix(("A", "B"), np.array([[-1, 3], [2, 0]]))
    result = check.check_row_stochastic(replace(resources, matrix=matrix))
    assert not result.passed
