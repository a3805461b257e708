import hashlib
import json

import pytest

from homosyntax.cli import (
    COMMANDS,
    EXIT_CHECK_FAILED,
    EXIT_GENERATION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    RESOURCES_ENV,
    main,
)
from homosyntax.errors import (
    BuildError,
    ConfigError,
    FormatError,
    GenerationError,
    HomosyntaxError,
    OovError,
    ResourceError,
    TableError,
)
from homosyntax.pos import read_tagged_tsv
from homosyntax.templates import TemplateStore

from conftest import FIXTURE_NEIGHBORS_M


def _gen(resources_dir, *extra):
    return [
        "generate",
        "--resources", str(resources_dir),
        "--neighbors", str(FIXTURE_NEIGHBORS_M),
        *extra,
    ]


# The commands `build` replaced, each with the derived files it used to write.
# A case named after one runs `build` on a directory that already holds stale
# copies of those files: a refused tagged corpus must leave them as they were.
# import-tagged's case is external tagger output copied over the tagged.tsv of
# a directory that is already built.
_STALE_ON_BUILD = {
    "build-matrix": ("matrix.txt",),
    "build-templates": ("templates.jsonl",),
    "build-ta": ("ta.jsonl", "funcdict.jsonl"),
    "import-tagged": ("matrix.txt", "templates.jsonl", "ta.jsonl",
                      "funcdict.jsonl"),
}


def _write_stale(directory, names):
    stale = {name: f"stale {name}\n".encode() for name in names}
    for name, data in stale.items():
        (directory / name).write_bytes(data)
    return stale


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestExitCodes:
    def test_ok(self, resources_dir, capsys):
        code = main(_gen(resources_dir, "--model", "2", "--query", "sol",
                         "--len", "6", "--seed", "1"))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.strip()

    def test_missing_resources(self, tmp_path, capsys):
        code = main(["generate", "--model", "2", "--query", "sol",
                     "--len", "6", "--resources", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert code == EXIT_RESOURCE
        assert "error" in err

    def test_no_resource_flag_or_env(self, capsys, monkeypatch):
        monkeypatch.delenv(RESOURCES_ENV, raising=False)
        code = main(["generate", "--model", "2", "--query", "sol",
                     "--len", "6"])
        assert code == EXIT_RESOURCE

    def test_env_var_fallback(self, resources_dir, capsys, monkeypatch):
        monkeypatch.setenv(RESOURCES_ENV, str(resources_dir))
        code = main(["generate", "--model", "2", "--query", "sol",
                     "--len", "6", "--seed", "1",
                     "--neighbors", str(FIXTURE_NEIGHBORS_M)])
        assert code == EXIT_OK

    def test_bad_length(self, resources_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_gen(resources_dir, "--model", "1", "--query", "sol",
                      "--len", "99"))
        assert exc.value.code == EXIT_USAGE

    def test_bad_model(self, resources_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_gen(resources_dir, "--model", "9", "--query", "sol",
                      "--len", "6"))
        assert exc.value.code == EXIT_USAGE

    def test_bad_policy(self, resources_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_gen(resources_dir, "--model", "1", "--query", "sol",
                      "--len", "6", "--policy", "beam:2"))
        assert exc.value.code == EXIT_USAGE

    def test_malformed_resource_names_file_and_line(self, resources_dir,
                                                    tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken_templates"
        shutil.copytree(resources_dir, broken)
        path = broken / "templates.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 600
        lines[599] = lines[599][:-1]  # cut the closing brace of line 600
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(_gen(broken, "--model", "2", "--query", "sol",
                         "--len", "6"))
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["path"] == str(path)
        assert diagnostic["line"] == 600
        assert "templates.jsonl: line 600: invalid JSON" in diagnostic["message"]

    def test_duplicated_template_id_names_file_and_line(self, resources_dir,
                                                        tmp_path, capsys):
        import shutil

        broken = tmp_path / "duplicate_id"
        shutil.copytree(resources_dir, broken)
        path = broken / "templates.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        second["id"] = first["id"]
        lines[1] = json.dumps(second, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(_gen(broken, "--model", "2", "--query", "sol",
                         "--len", "6"))
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert (diagnostic["path"], diagnostic["line"]) == (str(path), 2)
        assert f"duplicate template id {first['id']!r}" in diagnostic["message"]

    def test_template_without_a_slot_names_file_and_line(self, resources_dir,
                                                         tmp_path, capsys):
        import shutil

        broken = tmp_path / "no_slot"
        shutil.copytree(resources_dir, broken)
        path = broken / "templates.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        # every slot becomes its original word: a copy of a corpus sentence
        row["items"] = [{"t": "lit", "w": it.get("orig", it.get("w"))}
                        for it in row["items"]]
        lines[2] = json.dumps(row, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(_gen(broken, "--model", "2", "--query", "sol",
                         "--len", str(len(row["items"]))))
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert (diagnostic["path"], diagnostic["line"]) == (str(path), 3)
        assert "bad template row: template has no slot" in diagnostic["message"]

    def test_unfillable_slots_exhaust_the_attempts(self, resources_dir,
                                                   tmp_path, capsys):
        import shutil

        from homosyntax.embeddings import AssociativeTable, EmbeddingStore

        sparse = tmp_path / "no_adjectives"
        shutil.copytree(resources_dir, sparse)
        # no adjective keeps a vector, and every length-11 template has an
        # adjective slot: each attempt fails on it
        ta = AssociativeTable.load(sparse / "ta.jsonl")
        adjectives = {w for tag, words in ta.table.items() if tag[0] == "A"
                      for w, _ in words}
        store = EmbeddingStore.load(sparse / "vectors.txt")
        keep = [i for i, w in enumerate(store.words) if w not in adjectives]
        EmbeddingStore([store.words[i] for i in keep],
                       store.vectors[keep]).save(sparse / "vectors.txt")
        code = main(_gen(sparse, "--model", "2", "--query", "sol",
                         "--len", "11"))
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_GENERATION
        assert diagnostic["error"] == "generation"
        assert diagnostic["message"].startswith(
            "model 2 failed after 20 attempts: "
            "no in-vocabulary candidate for tag 'AQ0"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, line, edit", [
        ("vectors.txt", 1, lambda lines: ["-1 3"] + lines[1:]),
        ("vectors.txt", 2, lambda lines: [lines[0].split()[0] + " " + "1" * 21]
         + lines[1:]),
        ("vectors.txt", 3, lambda lines: lines[:2]
         + [lines[2].split()[0] + " 1e200" * (len(lines[2].split()) - 1)]
         + lines[3:]),
        ("matrix.txt", 1, lambda lines: ["states -1"] + lines[1:]),
        ("matrix.txt", None, lambda lines: lines + ["0 1 99999999999999999999"]),
        ("matrix.txt", None, lambda lines: lines + [f"0 1 {2**62}", f"0 2 {2**62}"]),
    ], ids=["negative-vector-count", "huge-vector-dims", "vector-norm-overflows",
            "negative-state-count", "count-above-int64",
            "row-sum-above-int64"])
    def test_unloadable_header_or_count_exits_2(self, resources_dir, tmp_path,
                                                capsys, name, line, edit):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(resources_dir, broken)
        path = broken / name
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(_gen(broken, "--model", "2", "--query", "sol",
                         "--len", "6"))
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        expected_line = len(lines) if line is None else line  # None: last row
        assert (diagnostic["path"], diagnostic["line"]) == (str(path), expected_line)

    @pytest.mark.parametrize("state", ["<s>", "</s>"])
    @pytest.mark.parametrize("command", ["generate", "check"])
    def test_matrix_without_a_boundary_state_exits_2(self, resources_dir,
                                                     tmp_path, capsys,
                                                     state, command):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(resources_dir, broken)
        path = broken / "matrix.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        # renamed, not deleted: a deleted state line is a bad state line
        lines[lines.index(state)] = state.upper()
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = {
            "generate": _gen(broken, "--model", "1", "--query", "sol",
                             "--len", "6"),
            "check": ["check", "--resources", str(broken)],
        }[command]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["path"] == str(path)
        assert f"no boundary state {state!r}" in diagnostic["message"]

    @pytest.mark.parametrize("command", ["generate", "check"])
    def test_deleted_state_line_exits_2_at_the_row_read_as_a_state(
        self, resources_dir, tmp_path, capsys, command
    ):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(resources_dir, broken)
        path = broken / "matrix.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[5]  # a middle state: the first count row ends the state list
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = {
            "generate": _gen(broken, "--model", "1", "--query", "sol",
                             "--len", "6"),
            "check": ["check", "--resources", str(broken)],
        }[command]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        states = int(lines[0].split()[1])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(path), states + 1)
        assert f"bad state line: {lines[states]!r} holds whitespace" in (
            diagnostic["message"]
        )

    @pytest.mark.parametrize("command", [
        "ingest", "tag", "train-emb", "build", *_STALE_ON_BUILD,
    ])
    def test_input_not_utf8_exits_2_at_its_line(self, resources_dir, fixdir,
                                                tmp_path, capsys, command):
        # ingest reads the sentence file as the one raw document of tmp_path
        name = "sentences.txt" if command in ("ingest", "tag", "train-emb") else (
            "tagged.tsv")
        lines = (resources_dir / name).read_bytes().splitlines(keepends=True)
        lines[6] = b"\xff" + lines[6]
        infile = tmp_path / name
        infile.write_bytes(b"".join(lines))
        stale = _write_stale(tmp_path, _STALE_ON_BUILD.get(command, ()))
        argv = {
            "ingest": ["ingest", "--in", str(tmp_path),
                       "--out", str(tmp_path / "out")],
            "tag": ["tag", "--in", str(infile), "--out", str(tmp_path / "out"),
                    "--lexicon", str(fixdir / "lexicon.tsv")],
            "train-emb": ["train-emb", "--in", str(infile),
                          "--out", str(tmp_path / "out")],
        }.get(command, ["build", "--resources", str(tmp_path)])
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(infile), 7)
        assert "not valid UTF-8" in diagnostic["message"]
        assert _files(tmp_path) == {name: infile.read_bytes(), **stale}

    @pytest.mark.parametrize("command", ["build", *_STALE_ON_BUILD])
    def test_tag_holding_whitespace_exits_2_at_its_line(self, tmp_path, capsys,
                                                        command):
        # a matrix built from it would hold a state line its loader rejects
        infile = tmp_path / "tagged.tsv"
        infile.write_text("El\tDA0MS0\nsol\tNC MS000\n", encoding="utf-8")
        stale = _write_stale(tmp_path, _STALE_ON_BUILD.get(command, ()))
        code = main(["build", "--resources", str(tmp_path)])
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(infile), 2)
        assert "'NC MS000' holds whitespace" in diagnostic["message"]
        assert _files(tmp_path) == {"tagged.tsv": infile.read_bytes(), **stale}

    @pytest.mark.parametrize("command, name, kept, error", [
        ("build", "tagged.tsv", 0, "BuildError"),  # an empty tagged corpus
        ("train-emb", "sentences.txt", 99, "BuildError"),  # below 100 sentences
    ], ids=["build", "train-emb"])
    def test_input_a_builder_refuses_exits_2(self, resources_dir, tmp_path, capsys,
                                             command, name, kept, error):
        lines = (resources_dir / name).read_bytes().splitlines(keepends=True)
        (tmp_path / name).write_bytes(b"".join(lines[:kept]))
        argv = {
            "build": ["build", "--resources", str(tmp_path)],
            "train-emb": ["train-emb", "--in", str(tmp_path / name),
                          "--out", str(tmp_path / "vectors.txt")],
        }[command]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == error
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_build_without_tagged_corpus_exits_2(self, tmp_path, capsys):
        code = main(["build", "--resources", str(tmp_path)])
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "resource"
        assert str(tmp_path / "tagged.tsv") in diagnostic["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        "ingest", "tag", "train-emb", "build", "generate", "check",
    ])
    def test_missing_input_exits_2_as_resource(self, fixdir, tmp_path, capsys,
                                               command):
        missing = tmp_path / "missing"
        argv = {
            "ingest": ["ingest", "--in", str(missing),
                       "--out", str(tmp_path / "out")],
            "tag": ["tag", "--in", str(missing), "--out", str(tmp_path / "out"),
                    "--lexicon", str(fixdir / "lexicon.tsv")],
            "train-emb": ["train-emb", "--in", str(missing),
                          "--out", str(tmp_path / "out")],
            "build": ["build", "--resources", str(missing)],
            "generate": _gen(missing, "--model", "2", "--query", "sol",
                             "--len", "6"),
            "check": ["check", "--resources", str(missing)],
        }[command]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic.keys() == {"error", "message"}
        assert diagnostic["error"] == "resource"
        assert str(missing) in diagnostic["message"]
        assert list(tmp_path.iterdir()) == []

    def test_each_error_class_has_one_exit_code_and_kind(self, capsys,
                                                         monkeypatch):
        # (error, exit code, diagnostic kind, fields beside the message)
        table = [
            (ConfigError("x"), EXIT_USAGE, "usage", {}),
            (ResourceError("x"), EXIT_RESOURCE, "resource", {}),
            (OSError("x"), EXIT_RESOURCE, "resource", {}),
            (FormatError("x", 3, "f.txt"), EXIT_RESOURCE, "FormatError",
             {"path": "f.txt", "line": 3}),
            (BuildError("x"), EXIT_RESOURCE, "BuildError",
             {"path": None, "line": None}),
            (GenerationError("x"), EXIT_GENERATION, "generation", {}),
            (OovError("x"), EXIT_GENERATION, "OovError", {}),
            (TableError("x"), EXIT_GENERATION, "TableError", {}),
        ]
        # a new class needs a row here, and a decided code and kind
        assert set(HomosyntaxError.__subclasses__()) == {
            type(error) for error, *_ in table} - {OSError}
        for error, code, kind, fields in table:
            def command(args, error=error):
                raise error

            monkeypatch.setitem(COMMANDS, "check", command)
            try:
                got = main(["check"])
            except SystemExit as e:
                got = e.code
            err = capsys.readouterr().err.splitlines()
            diagnostic = json.loads(next(ln for ln in err if ln.startswith("{")))
            assert got == code, kind
            assert diagnostic == {"error": kind, "message": str(error), **fields}

    @pytest.mark.parametrize("command", [
        "import-tagged", "build-matrix", "build-templates", "build-ta",
    ])
    def test_removed_command_exits_64(self, resources_dir, tmp_path, capsys,
                                      command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", str(resources_dir / "tagged.tsv"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train-emb", "generate"])
    def test_directory_for_a_file_exits_2(self, resources_dir, tmp_path,
                                          capsys, command):
        argv = {
            "train-emb": ["train-emb", "--in", str(tmp_path),
                          "--out", str(tmp_path / "vectors.txt")],
            "generate": _gen(resources_dir, "--model", "2", "--query", "sol",
                             "--len", "6", "--trace", str(tmp_path)),
        }[command]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "resource"
        assert str(tmp_path) in diagnostic["message"]

    @pytest.mark.parametrize("where", ["existing", "missing", "unset"])
    @pytest.mark.parametrize("flag", [
        ("--neighbors", "0"), ("--max-hops", "-1"), ("--cap-m", "1"),
        ("--count", "0"), ("--len", "2"), ("--policy", "topk:0"), ("--seed", "-1"),
    ], ids=lambda flag: " ".join(flag))
    def test_bad_setting_is_usage_error_before_loading(
        self, resources_dir, tmp_path, capsys, monkeypatch, flag, where
    ):
        monkeypatch.delenv(RESOURCES_ENV, raising=False)
        directory = {
            "existing": ["--resources", str(resources_dir)],
            "missing": ["--resources", str(tmp_path / "nope")],
            "unset": [],
        }[where]
        argv = ["generate", *directory, "--model", "1", "--query", "sol",
                "--len", "6", *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        diagnostic = json.loads(next(ln for ln in err if ln.startswith("{")))
        assert diagnostic["error"] == "usage"

    @pytest.mark.parametrize("flag, value, least", [
        pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in (
            ("--window", "0", 1), ("--window", "-1", 1), ("--epochs", "0", 1),
            ("--epochs", "-1", 1), ("--negatives", "0", 1), ("--negatives", "-1", 1),
            ("--dims", "7", 8), ("--min-count", "0", 1), ("--min-count", "-3", 1),
            ("--seed", "-1", 0))
    ])
    def test_bad_training_setting_is_usage_error_before_reading(
        self, resources_dir, tmp_path, capsys, flag, value, least
    ):
        out = tmp_path / "vectors.txt"
        for corpus in (resources_dir / "sentences.txt", tmp_path / "missing.txt"):
            argv = ["train-emb", "--in", str(corpus), "--out", str(out),
                    flag, value]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            diagnostic = json.loads(next(ln for ln in err if ln.startswith("{")))
            assert diagnostic == {"error": "usage",
                                  "message": f"{flag} must be >= {least}"}
            assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(("--min-words", "0"), "--min-words must be >= 1",
                     id="min-words-0"),
        pytest.param(("--min-words", "5", "--max-words", "3"),
                     "--max-words must be >= 5", id="max-below-min"),
    ])
    def test_bad_ingest_setting_is_usage_error_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "doc.txt").write_text("La luna brilla sobre el mar. ONU OTAN",
                                     encoding="utf-8")
        out = tmp_path / "sentences.txt"
        for indir in (raw, tmp_path / "missing"):
            argv = ["ingest", "--in", str(indir), "--out", str(out), *flags]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            diagnostic = json.loads(next(ln for ln in err if ln.startswith("{")))
            assert diagnostic == {"error": "usage", "message": message}
            assert not out.exists()

    def test_oov_query_is_generation_failure(self, resources_dir, capsys):
        code = main(_gen(resources_dir, "--model", "2", "--query", "zzzqx",
                         "--len", "6"))
        err = capsys.readouterr().err
        assert code == EXIT_GENERATION
        # first stderr line is machine-readable JSON
        json.loads(err.splitlines()[0])


class TestGenerate:
    def test_count_emits_n_lines(self, resources_dir, capsys):
        code = main(_gen(resources_dir, "--model", "2", "--query", "luna",
                         "--len", "7", "--seed", "4", "--count", "3"))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 3

    def test_deterministic_stdout(self, resources_dir, capsys):
        argv = _gen(resources_dir, "--model", "3", "--query", "sol",
                    "--len", "6", "--seed", "3", "--count", "2")
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_all_models_run(self, resources_dir, capsys):
        for model in ("1", "2", "3"):
            code = main(_gen(resources_dir, "--model", model, "--query",
                             "amor", "--len", "6", "--seed", "2"))
            assert code == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_seed_offsets_per_sentence(self, resources_dir, capsys):
        main(_gen(resources_dir, "--model", "2", "--query", "mar",
                  "--len", "7", "--seed", "5", "--count", "2"))
        batch = capsys.readouterr().out.strip().splitlines()
        main(_gen(resources_dir, "--model", "2", "--query", "mar",
                  "--len", "7", "--seed", "6", "--count", "1"))
        single = capsys.readouterr().out.strip()
        assert batch[1] == single

    def test_trace_file(self, resources_dir, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(_gen(resources_dir, "--model", "3", "--query", "sol",
                         "--len", "6", "--seed", "3", "--trace", str(trace)))
        assert code == EXIT_OK
        records = [json.loads(line) for line in
                   trace.read_text(encoding="utf-8").splitlines()]
        assert records
        assert all(r["sentence"] == 0 for r in records)
        assert all("chosen" in r for r in records)

    def test_trace_kept_when_a_later_sentence_fails(self, resources_dir,
                                                    tmp_path, capsys):
        # the sixth sentence fails after 20 attempts: the five printed before
        # it keep their records, and the exit code stays 3
        trace = tmp_path / "trace.jsonl"
        code = main(_gen(resources_dir, "--neighbors", "20", "--model", "1",
                         "--query", "luna", "--len", "8", "--count", "6",
                         "--seed", "0", "--trace", str(trace)))
        captured = capsys.readouterr()
        assert code == EXIT_GENERATION
        assert len(captured.out.splitlines()) == 5
        assert json.loads(captured.err.splitlines()[0])["message"].startswith(
            "model 1 failed after 20 attempts: no word fitting tag"
        )
        records = [json.loads(line) for line in
                   trace.read_text(encoding="utf-8").splitlines()]
        assert sorted({r["sentence"] for r in records}) == [0, 1, 2, 3, 4]

    def test_trace_of_an_earlier_run_is_replaced_when_no_sentence_succeeds(
            self, resources_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(resources_dir, broken)
        (broken / "matrix.txt").write_text("states -1\n", encoding="utf-8")
        trace, earlier = tmp_path / "trace.jsonl", b'{"sentence": 0}\n'
        # no argmax walk on the fixture matrix reaches length 8; a missing or
        # malformed resource fails the load; a refused flag exits before it
        for directory, extra, code, left in [
            (resources_dir, ("--policy", "argmax"), EXIT_GENERATION, b""),
            (tmp_path / "missing", (), EXIT_RESOURCE, b""),
            (broken, (), EXIT_RESOURCE, b""),
            (resources_dir, ("--len", "99"), EXIT_USAGE, earlier),
        ]:
            trace.write_bytes(earlier)
            argv = _gen(directory, "--model", "1", "--query", "sol", "--len", "8",
                        *extra, "--trace", str(trace))
            try:
                got = main(argv)
            except SystemExit as e:
                got = e.code
            assert got == code, extra
            assert capsys.readouterr().out == ""
            assert trace.read_bytes() == left, extra

    def test_model1_retries_relaxation_failures(self, resources_dir, capsys):
        # at the default --neighbors a relaxation failure costs one attempt
        # (the parent exited 3 after the first sentence)
        code = main(_gen(resources_dir, "--neighbors", "20", "--model", "1",
                         "--query", "sol", "--len", "7", "--count", "3"))
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_golden_stdout(self, resources_dir, capsys):
        # frozen from a verified run on the fixture resources
        code = main(_gen(resources_dir, "--model", "3", "--query", "sol",
                         "--len", "6", "--seed", "3"))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == "El bosque cantan un destino.\n"

    def test_invert_score_accepted(self, resources_dir, capsys):
        code = main(_gen(resources_dir, "--model", "3", "--query", "sol",
                         "--len", "6", "--seed", "3", "--invert-score"))
        assert code == EXIT_OK


# exit code, sha256 of stdout and of the --trace file for
# `generate --query sol --len 8 --count 20 --seed 0`, frozen from the fixture
# resources before the three models shared one generation driver
GOLDEN_RUNS = {
    ("--model", "1"): (
        EXIT_OK,
        "70f7e47e47dff80a4d8cde83db19bc4825f7c1dabf5a8549fb6d54b34cfd1bd9",
        "9b6098f2ab376c450ed74228c1db0c1a30496da76a1215c9c5fee862d996cf4e",
    ),
    ("--model", "2"): (
        EXIT_OK,
        "fe4e0952911913c0a0cb07d3b0656caccd7c9741f7d22a1e570329230b4e2330",
        "c138f458e5fb2cb37da0ca4c1221d508a8564532979aa39eab3e007103cde12d",
    ),
    ("--model", "3"): (
        EXIT_OK,
        "4d28602fcc8dd1f84101fad0d4adb59ff3dcb7bcf357b3ae4103160da1f19400",
        "7ea7c750b62aeaa75ef8dc30516f6f21649812a83ab0ed583a4644bcc5063b6c",
    ),
    ("--model", "3", "--invert-score"): (
        EXIT_OK,
        "9d730835033e717b7d20703596a28d21b15d7de8f6fad51b66f3d82f3c518307",
        "e907778c14debceed0e6604bae2d243975860837576e3a281eaee37d80b78ad0",
    ),
    # a cap that binds on every fixture tag (8 to 32 words); frozen before
    # model 3 kept one candidate block per (tag, cap)
    ("--model", "3", "--cap-m", "5"): (
        EXIT_OK,
        "624ce7396729e58d8e32c913e29d15c81f9337c01ecfa134b0f5d6c58f366de3",
        "042894bbdc67bac95d5c7d9cb79681fa11fd0235ecd9333635214bc66c7db70d",
    ),
    # model 1 at the default --neighbors: 15 of its 20 sentences retry after
    # 58 relaxation failures in all, each of which costs one attempt
    ("--model", "1", "--neighbors", "20"): (
        EXIT_OK,
        "2044f306fcfdd1bcdb61e1db3399b8ba0d79fcb402693b9ce28fd3f9ad1f754a",
        "cb7326bd018e29f7c0daeb11158c25e1ee423a76e985f87204ec1d466f9a6a23",
    ),
    # no argmax walk on the fixture matrix reaches length 8: nothing is
    # printed, and the trace file is empty
    ("--model", "1", "--policy", "argmax"): (
        EXIT_GENERATION,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


class TestGoldenRuns:
    @pytest.mark.parametrize("flags", list(GOLDEN_RUNS), ids=" ".join)
    def test_stdout_and_trace_digests(self, resources_dir, tmp_path, capsys,
                                      flags):
        trace = tmp_path / "trace.jsonl"
        code = main(_gen(resources_dir, *flags, "--query", "sol", "--len", "8",
                         "--count", "20", "--seed", "0",
                         "--trace", str(trace)))
        out = capsys.readouterr().out
        assert (
            code,
            hashlib.sha256(out.encode("utf-8")).hexdigest(),
            hashlib.sha256(trace.read_bytes()).hexdigest(),
        ) == GOLDEN_RUNS[flags]


class TestCheck:
    def test_healthy_resources_pass(self, resources_dir, capsys):
        code = main(["check", "--resources", str(resources_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 5
        # at the default --neighbors 20, model 1 generates its three too
        assert "PASS novelty: 9 sentences generated, 0 corpus collisions" in out

    def test_corrupted_matrix_fails(self, resources_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(resources_dir, broken)
        path = broken / "matrix.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        # negate one count in a row whose total stays positive, producing
        # a negative probability that normalization cannot repair; the
        # loader rejects the row before any check runs
        triples = {}
        for idx, line in enumerate(lines):
            parts = line.split()
            if len(parts) == 3 and parts[2].isdigit():
                triples.setdefault(parts[0], []).append((idx, int(parts[2])))
        victim = None
        for row in triples.values():
            total = sum(c for _, c in row)
            for idx, c in sorted(row, key=lambda t: t[1]):
                if c > 0 and total - 2 * c > 0:
                    victim = (idx, c)
                    break
            if victim:
                break
        assert victim is not None
        idx, c = victim
        parts = lines[idx].split()
        lines[idx] = f"{parts[0]} {parts[1]} -{c}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["check", "--resources", str(broken)])
        captured = capsys.readouterr()
        diagnostic = json.loads(captured.err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert "PASS" not in captured.out
        assert (diagnostic["path"], diagnostic["line"]) == (str(path), idx + 1)
        assert f"negative count -{c}" in diagnostic["message"]

    def test_unattested_table_entry_fails(self, resources_dir, tmp_path,
                                          capsys):
        import shutil

        broken = tmp_path / "broken_ta"
        shutil.copytree(resources_dir, broken)
        path = broken / "ta.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec["words"].append(["palabrainventada", 1])
        lines[0] = json.dumps(rec, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["check", "--resources", str(broken)])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "FAIL ta-soundness" in out

    def test_empty_vocabulary_fails_novelty(self, resources_dir, tmp_path,
                                            capsys):
        import shutil

        broken = tmp_path / "no_words"
        shutil.copytree(resources_dir, broken)
        (broken / "vectors.txt").write_text("0 64\n", encoding="utf-8")
        code = main(["check", "--resources", str(broken)])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert "FAIL novelty" in captured.out
        assert "Traceback" not in captured.err

    def test_missing_directory(self, tmp_path, capsys):
        code = main(["check", "--resources", str(tmp_path / "absent")])
        assert code == EXIT_RESOURCE


class TestPipelineCommands:
    def test_ingest_tag_build(self, fixdir, tmp_path, capsys, monkeypatch):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "doc.txt").write_text(
            "El sol brilla. La luna canta en el cielo oscuro. "
            "Los mares duermen bajo la noche eterna.",
            encoding="utf-8",
        )
        res = tmp_path / "res"
        res.mkdir()
        sents = res / "sentences.txt"
        assert main(["ingest", "--in", str(raw), "--out", str(sents)]) == 0
        tagged = res / "tagged.tsv"
        assert main(["tag", "--in", str(sents), "--lexicon",
                     str(fixdir / "lexicon.tsv"), "--out", str(tagged)]) == 0
        capsys.readouterr()
        monkeypatch.setenv(RESOURCES_ENV, str(res))
        assert main(["build"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "matrix over 12 states", "stored 3 templates",
            "associative table with 6 tags", "function-word dictionary with 4 tags",
        ]
        for name in ("matrix.txt", "templates.jsonl", "ta.jsonl", "funcdict.jsonl"):
            assert (res / name).stat().st_size > 0

    def test_build_writes_the_bytes_the_library_builders_save(
        self, resources_dir, tmp_path, capsys
    ):
        tagged = tmp_path / "tagged.tsv"
        tagged.write_bytes((resources_dir / "tagged.tsv").read_bytes())
        assert main(["build", "--resources", str(tmp_path)]) == EXIT_OK
        # a template names the stem of the file its sentence was read from
        expected = tmp_path / "expected"
        expected.mkdir()
        TemplateStore.from_sentences(read_tagged_tsv(tagged)).save(
            expected / "templates.jsonl")
        for name in ("matrix.txt", "ta.jsonl", "funcdict.jsonl"):
            (expected / name).write_bytes((resources_dir / name).read_bytes())
        for path in expected.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_ingest_counts_the_lines_it_writes(self, fixdir, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "8kf.txt").write_bytes((fixdir / "8kf-sample.txt").read_bytes())
        out = tmp_path / "sentences.txt"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        stats = dict(ln.split(": ") for ln in capsys.readouterr().out.splitlines())
        assert int(stats["sentences"]) == len(lines)
        assert int(stats["words"]) == sum(len(ln.split()) for ln in lines)
        # a sentence that lost a filtered token and one that did not alike
        assert int(stats["chars"]) == sum(len(ln) for ln in lines)

    @pytest.mark.parametrize("make", ["missing", "file"])
    def test_ingest_of_a_path_that_is_not_a_directory(self, tmp_path, capsys, make):
        raw = tmp_path / "raw"
        if make == "file":
            raw.write_text("El sol brilla en el cielo.\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(["ingest", "--in", str(raw), "--out", str(out)])
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic == {"error": "resource",
                              "message": f"{raw}: not a directory"}
        assert not out.exists()

    def test_ingest_of_a_directory_without_text_files(self, tmp_path, capsys):
        out = tmp_path / "sentences.txt"
        assert main(["ingest", "--in", str(tmp_path), "--out", str(out)]) == 0
        assert "sentences: 0" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == ""

