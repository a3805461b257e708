"""A corrupted resource file ends `generate` and `check` with an exit code
from the README table, never with a traceback.

Each example corrupts one file of a copied resource directory in one way (a
byte set to 0xff, a line deleted, duplicated or swapped, the file truncated,
or one field replaced) and runs both commands in-process.
"""

import contextlib
import io
import json
import re
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from homosyntax.cli import EXIT_RESOURCE, main
from homosyntax.resources import REQUIRED, TAGGED

from conftest import FIXTURE_NEIGHBORS_M

FILES = sorted((*REQUIRED, TAGGED))
KINDS = ("byte", "delete", "duplicate", "swap", "truncate", "field")
EXIT_CODES = {0, 1, 2, 3, 64}  # the README's exit-code table
# a field is a run of characters that no format uses as a separator
FIELD = re.compile(r'[^\s,:\[\]{}]+')
REPLACEMENTS = ("", "x", "-1", "1.5", "true", '"3"', "99999999999999999999")


@pytest.fixture(scope="module")
def corrupt_dir(resources_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("corrupt") / "resources"
    shutil.copytree(resources_dir, d)
    return d


def corrupt(data: bytes, kind: str, at: int | str, k: int) -> tuple[bytes, int]:
    """The corrupted bytes and the line (from 1) that the corruption is on.

    ``at`` picks the byte or line, and a string picks the first line that
    holds exactly that text; ``k`` picks the field and its replacement.
    """
    if kind in ("byte", "truncate"):
        pos = at % len(data)
        line = data.count(b"\n", 0, pos) + 1
        if kind == "truncate":
            return data[:pos], line
        return data[:pos] + b"\xff" + data[pos + 1 :], line
    lines = data.splitlines(keepends=True)
    i = lines.index(at.encode() + b"\n") if isinstance(at, str) else at % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = (i + 1) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        text = lines[i].decode("utf-8")
        fields = list(FIELD.finditer(text))
        if fields:
            f = fields[k // len(REPLACEMENTS) % len(fields)]
            new = REPLACEMENTS[k % len(REPLACEMENTS)]
            lines[i] = (text[: f.start()] + new + text[f.end() :]).encode("utf-8")
    return b"".join(lines), i + 1


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # a usage error
            code = e.code
    return code, err.getvalue()


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(FILES),
    kind=st.sampled_from(KINDS),
    at=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=0, max_value=10**3),
    model=st.sampled_from(["1", "2", "3"]),
)
@example(name="ta.jsonl", kind="byte", at=0, k=0, model="2")
@example(name="matrix.txt", kind="delete", at="</s>", k=0, model="1")
def test_corrupt_file_exits_with_a_documented_code(
    corrupt_dir, name, kind, at, k, model
):
    path = corrupt_dir / name
    original = path.read_bytes()
    data, line = corrupt(original, kind, at, k)
    commands = {
        "generate": ["generate", "--resources", str(corrupt_dir), "--model", model,
                     "--query", "sol", "--len", "6",
                     "--neighbors", str(FIXTURE_NEIGHBORS_M)],
        "check": ["check", "--resources", str(corrupt_dir)],
    }
    path.write_bytes(data)
    try:
        for command, argv in commands.items():
            code, err = run(argv)
            assert code in EXIT_CODES, (command, code, err)
            if code == EXIT_RESOURCE:
                diagnostic = json.loads(err.splitlines()[0])
                assert diagnostic["path"] == str(path), (command, diagnostic)
            if kind == "byte" and (command == "check" or name != TAGGED):
                # every file the command reads, and only those, is decoded
                assert code == EXIT_RESOURCE, (command, code, err)
                assert diagnostic["error"] == "FormatError"
                assert diagnostic["line"] == line
    finally:
        path.write_bytes(original)
