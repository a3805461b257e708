import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from homosyntax import check, model2
from homosyntax.cli import main
from homosyntax.generation import GeneratedSentence, GenerationResources
from homosyntax.markov import TransitionMatrix
from homosyntax.resources import REQUIRED, load_resources


def test_novelty_check_leaves_caller_resources_alone(resources, fixdir):
    res = replace(resources, neighbors_m=20)
    lines = (fixdir / "sentences.txt").read_text(encoding="utf-8").splitlines()
    result = check.check_novelty(res, {check.novelty_key(ln.split()) for ln in lines})
    assert result.passed
    assert result.detail == "9 sentences generated, 0 corpus collisions"
    assert res.neighbors_m == 20


def test_novelty_check_keys_sentences_apart_from_the_generator(
        resources_dir, monkeypatch, capsys):
    # the generator's own novelty test passes everything, and model 2 hands
    # back the first corpus line with its first letter capitalized: only a
    # check that reads sentences.txt itself can see the collision
    text = (resources_dir / "sentences.txt").read_text(encoding="utf-8")
    tokens = tuple(text.splitlines()[0].split())
    copied = (tokens[0].capitalize(), *tokens[1:])
    monkeypatch.setattr(GenerationResources, "is_novel", lambda self, tokens: True)
    monkeypatch.setattr(model2, "generate_model2", lambda q, n, res, seed:
                        GeneratedSentence(copied, 2, q, "copied"))
    capsys.readouterr()
    assert main(["check", "--resources", str(resources_dir)]) == 1
    out = capsys.readouterr().out
    assert "FAIL novelty: " in out
    assert out.count("FAIL") == 1
    assert "3 corpus collisions" in out


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


def test_template_roundtrip_checks_the_loaded_templates(resources_dir, tmp_path):
    passing = {r.name: r for r in check.run_check(resources_dir)}
    assert passing["template-roundtrip"].passed
    broken = tmp_path / "broken"
    shutil.copytree(resources_dir, broken)
    path = broken / "templates.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    slot = next(it for it in row["items"] if it["t"] == "slot")
    slot["orig"] = "zzz"
    lines[0] = json.dumps(row, ensure_ascii=False)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    result = {r.name: r for r in check.run_check(broken)}["template-roundtrip"]
    total = passing["template-roundtrip"].detail.split("/")[1]
    assert not result.passed
    assert result.detail == f"1/{total}"


def _drop_tag(path, tag):
    """Rewrite a tag-keyed .jsonl resource without the given tag's line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["tag"] != tag]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(line + "\n" for line in kept), encoding="utf-8")


def test_resource_fit_passes_and_counts_oov_originals(resources_dir):
    result = check.check_resource_fit(load_resources(resources_dir))
    assert result.passed
    assert result.detail.startswith("all fit; 0/")
    assert result.detail.endswith(" template originals out of vocabulary")


@pytest.mark.parametrize(
    "name, tag, offender",
    [
        ("funcdict.jsonl", "CC", "functional state 'CC' has no funcdict entry"),
        ("ta.jsonl", "NCMS", "template t000000 slot tag 'NCMS' has no table entry"),
    ],
)
def test_resource_fit_names_the_first_offender(
    resources_dir, tmp_path, capsys, name, tag, offender
):
    broken = tmp_path / "broken"
    shutil.copytree(resources_dir, broken)
    _drop_tag(broken / name, tag)
    results = {r.name: r for r in check.run_check(broken)}
    fit = results["resource-fit"]
    assert not fit.passed
    assert fit.detail.startswith(offender + " (1 of ")
    capsys.readouterr()
    assert main(["check", "--resources", str(broken)]) == 1
    assert f"FAIL resource-fit: {offender}" in capsys.readouterr().out


def test_resources_and_check_read_the_same_with_and_without_the_vectors_copy(
        resources_dir, tmp_path):
    d = tmp_path / "res"
    shutil.copytree(resources_dir, d)
    copy = d / ".vectors.txt.npy"
    copy.unlink(missing_ok=True)
    assert copy.name not in REQUIRED and not copy.name.endswith(".txt")
    parsed = load_resources(d)
    assert copy.is_file()
    copied = load_resources(d)
    assert copied.store.words == parsed.store.words
    assert copied.store.vectors.tobytes() == parsed.store.vectors.tobytes()
    with_copy = check.run_check(d)
    copy.unlink()
    assert check.run_check(d) == with_copy
    assert all(r.passed for r in with_copy)
    assert copy.is_file()
