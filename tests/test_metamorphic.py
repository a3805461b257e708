"""Metamorphic relations: changes to the resources that must leave every
output byte for byte as it was, checked without an expected sentence.

- Scaling: every vector of ``vectors.txt`` times 2. Doubling is exact in
  binary floating point, so every unit row, proximity and score is too.
- Row order: the rows of ``vectors.txt`` in another order. Every ranking
  breaks its ties by word, never by store row.
"""

import contextlib
import io
import random
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from homosyntax.cli import main

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


def _doubled(rows):
    # repr of a float reads back as the same float
    return [" ".join([word, *(repr(2 * float(x)) for x in xs)])
            for word, *xs in (row.split() for row in rows)]


def _shuffled(rows):
    rows = list(rows)
    random.Random(0).shuffle(rows)
    return rows


@pytest.fixture(scope="session")
def related_dirs(resources_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("metamorphic")
    return {"scaled": _rewrite_vectors(resources_dir, base / "scaled", _doubled),
            "permuted": _rewrite_vectors(resources_dir, base / "permuted", _shuffled)}


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
@pytest.mark.parametrize("relation", ["scaled", "permuted"])
@settings(max_examples=8, deadline=None)
@given(query=st.sampled_from(QUERIES), length=st.integers(min_value=5, max_value=12),
       seed=st.integers(min_value=0, max_value=1000))
def test_output_is_unchanged(resources_dir, related_dirs, relation, flags, query,
                             length, seed):
    # a request that fails (exit 3) must fail alike, with the same message
    assert _run(related_dirs[relation], flags, query, length, seed) == _run(
        resources_dir, flags, query, length, seed)
