"""Metamorphic relations: changes to the resources that must leave every
output byte for byte as it was, checked without an expected sentence.

- Scaling: every vector of ``vectors.txt`` times 2, 1/2 or 4. A power of
  two scales exactly in binary floating point, so every unit row,
  proximity and score is as it was.
- Row order: the rows of ``vectors.txt`` in another order. Every ranking
  breaks its ties by word, never by store row.

One relation changes the output, in a way known in advance:

- Renaming: every word of ``sentences.txt``, ``tagged.tsv``, ``forms.tsv``
  and ``vectors.txt`` becomes a pseudo-word that keeps the words' code-point
  order and commutes with lowercasing and with ``detokenize``'s
  capitalization, and ``build`` derives the other files again. Every
  output is the original output with its words renamed. Ties break by the
  order of words, never by their length or letters.
"""

import contextlib
import io
import json
import random
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.cli import main
from homosyntax.generation import detokenize

# CLI settings: model 1 at the default --neighbors 20, where relaxation
# fails and is retried, and at 60; model 3 in both score directions and
# at a cap that binds on every fixture tag
SETTINGS = [("1",), ("1", "--neighbors", "60"), ("2",), ("3",),
            ("3", "--invert-score"), ("3", "--cap-m", "5")]
QUERIES = ["sol", "luna", "mar", "guerra", "amor", "noche", "almas"]


def _rewrite_vectors(resources_dir, out, edit):
    """A copy of the resource directory whose vectors.txt rows (after the
    header) are ``edit(rows)``."""
    shutil.copytree(resources_dir, out)
    path = out / "vectors.txt"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n", encoding="utf-8")
    return out


def _scaled(factor):
    def edit(rows):
        # repr of a float reads back as the same float
        return [" ".join([word, *(repr(factor * float(x)) for x in xs)])
                for word, *xs in (row.split() for row in rows)]
    return edit


def _shuffled(rows):
    rows = list(rows)
    random.Random(0).shuffle(rows)
    return rows


RELATIONS = {"scaled": _scaled(2), "halved": _scaled(0.5),
             "quadrupled": _scaled(4), "permuted": _shuffled}


@pytest.fixture(scope="session")
def related_dirs(resources_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("metamorphic")
    return {name: _rewrite_vectors(resources_dir, base / name, edit)
            for name, edit in RELATIONS.items()}


def _run(directory, flags, query, length, seed):
    """Exit code, stdout, stderr and --trace bytes of one generate run."""
    trace = directory.parent / f"{directory.name}-trace.jsonl"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["generate", "--resources", str(directory), "--model", *flags,
                     "--query", query, "--len", str(length), "--count", "3",
                     "--seed", str(seed), "--trace", str(trace)])
    return code, out.getvalue(), err.getvalue(), trace.read_bytes()


@pytest.mark.parametrize("flags", SETTINGS, ids=" ".join)
@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=8, deadline=None)
@given(query=st.sampled_from(QUERIES), length=st.integers(min_value=5, max_value=12),
       seed=st.integers(min_value=0, max_value=1000))
def test_output_is_unchanged(resources_dir, related_dirs, relation, flags, query,
                             length, seed):
    # a request that fails (exit 3) must fail alike, with the same message
    assert _run(related_dirs[relation], flags, query, length, seed) == _run(
        resources_dir, flags, query, length, seed)


# the word columns of each file that holds words (None: every column), and
# its field separator
WORD_COLUMNS = {"sentences.txt": (" ", None), "tagged.tsv": ("\t", (0,)),
                "forms.tsv": ("\t", (0, 1)), "vectors.txt": (" ", (0,))}


def _edit_words(directory, name, rename):
    """The lines of one word-holding file with each field of a word column
    passed through ``rename``; the header of vectors.txt is kept."""
    sep, columns = WORD_COLUMNS[name]
    lines = (directory / name).read_text(encoding="utf-8").splitlines()
    head = 1 if name == "vectors.txt" else 0
    return lines[:head] + [
        sep.join(rename(f) if columns is None or i in columns else f
                 for i, f in enumerate(line.split(sep)))
        for line in lines[head:]]


def _pseudo_words(words):
    """Word (and its capitalized form) -> pseudo-word. A pseudo-word keeps the
    word's first character, then codes the word's rank among the words that
    share it, padded to a length unrelated to the word's own."""
    mapping, ranks = {}, {}
    for word in sorted(words):
        i = ranks[word[0]] = ranks.get(word[0], -1) + 1
        assert i < 26 * 26, "two code letters per rank"
        code = chr(97 + i // 26) + chr(97 + i % 26) + "z" * (i * 7 % 4)
        mapping[word] = word[0] + code
        mapping[word.capitalize()] = word[0].upper() + code
    return mapping


def _rename_text(text, mapping):
    return re.sub(r"\w+", lambda m: mapping[m.group()], text)


def _rename_trace(value, mapping):
    """A trace record with every string that is a word renamed."""
    if isinstance(value, dict):
        return {k: _rename_trace(v, mapping) for k, v in value.items()}
    if isinstance(value, list):
        return [_rename_trace(v, mapping) for v in value]
    return mapping.get(value, value) if isinstance(value, str) else value


def _build(directory):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--resources", str(directory)]) == 0
    return directory


@pytest.fixture(scope="session")
def renamed(resources_dir, tmp_path_factory):
    """(original directory, renamed directory, mapping), each with the files
    ``build`` derives made from its own tagged.tsv."""
    base = tmp_path_factory.mktemp("renamed")
    skip = shutil.ignore_patterns(".*.npy")
    original = _build(shutil.copytree(resources_dir, base / "original", ignore=skip))
    seen = set()

    def record(field):
        seen.add(field.lower())
        return field

    for name in WORD_COLUMNS:
        _edit_words(original, name, record)
    mapping = _pseudo_words({w for w in seen if any(map(str.isalpha, w))})
    out = shutil.copytree(original, base / "renamed", ignore=skip)
    for name in WORD_COLUMNS:
        lines = _edit_words(original, name, lambda f: mapping.get(f, f))
        (out / name).write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    return original, _build(out), mapping


def test_renaming_keeps_order_and_case(renamed):
    original, _, mapping = renamed
    lines = (original / "sentences.txt").read_text(encoding="utf-8").splitlines()
    punctuation = {t for line in lines for t in line.split() if t not in mapping}
    everything = sorted(punctuation | set(mapping))

    def rename(t):
        return mapping.get(t, t)

    assert len(set(map(len, mapping.values()))) > 1
    assert sorted(everything, key=rename) == everything
    assert all(rename(w.lower()) == rename(w).lower() for w in mapping)
    for line in lines:
        tokens = line.split()
        assert detokenize([rename(t) for t in tokens]) == _rename_text(
            detokenize(tokens), mapping)


@pytest.mark.parametrize("flags", SETTINGS, ids=" ".join)
@settings(max_examples=8, deadline=None)
@given(query=st.sampled_from(QUERIES), length=st.integers(min_value=5, max_value=12),
       seed=st.integers(min_value=0, max_value=1000))
def test_output_is_renamed(renamed, flags, query, length, seed):
    # stderr is left out: a failure's message may hold words of its own
    original, renamed_dir, mapping = renamed
    code, out, _, trace = _run(original, flags, query, length, seed)
    got_code, got_out, _, got_trace = _run(renamed_dir, flags, mapping[query],
                                           length, seed)
    assert got_code == code
    assert got_out == _rename_text(out, mapping)
    assert [json.loads(ln) for ln in got_trace.splitlines()] == [
        _rename_trace(json.loads(ln), mapping) for ln in trace.splitlines()]
