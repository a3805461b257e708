from dataclasses import replace

from homosyntax import check


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
