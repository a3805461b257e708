import hashlib
import json

import pytest

from homosyntax.cli import (
    EXIT_CHECK_FAILED,
    EXIT_GENERATION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    RESOURCES_ENV,
    main,
)

from conftest import FIXTURE_NEIGHBORS_M


def _gen(resources_dir, *extra):
    return [
        "generate",
        "--resources", str(resources_dir),
        "--neighbors", str(FIXTURE_NEIGHBORS_M),
        *extra,
    ]


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
        "tag", "import-tagged", "build-matrix", "build-templates", "train-emb",
        "build-ta",
    ])
    def test_input_not_utf8_exits_2_at_its_line(self, resources_dir, fixdir,
                                                tmp_path, capsys, command):
        name = {"tag": "sentences.txt", "train-emb": "sentences.txt"}.get(
            command, "tagged.tsv")
        lines = (resources_dir / name).read_bytes().splitlines(keepends=True)
        lines[6] = b"\xff" + lines[6]
        infile = tmp_path / name
        infile.write_bytes(b"".join(lines))
        argv = [command, "--in", str(infile), "--out", str(tmp_path / "out")]
        if command == "tag":
            argv += ["--lexicon", str(fixdir / "lexicon.tsv")]
        code = main(argv)
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(infile), 7)
        assert "not valid UTF-8" in diagnostic["message"]

    @pytest.mark.parametrize("command", [
        "import-tagged", "build-matrix", "build-templates", "build-ta",
    ])
    def test_tag_holding_whitespace_exits_2_at_its_line(self, tmp_path, capsys,
                                                        command):
        # a matrix built from it would hold a state line its loader rejects
        infile = tmp_path / "tagged.tsv"
        infile.write_text("El\tDA0MS0\nsol\tNC MS000\n", encoding="utf-8")
        code = main([command, "--in", str(infile), "--out", str(tmp_path / "out")])
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "FormatError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(infile), 2)
        assert "'NC MS000' holds whitespace" in diagnostic["message"]
        assert not (tmp_path / "out").exists()

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
        ("--count", "0"), ("--len", "2"), ("--policy", "topk:0"),
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

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--window", "--epochs", "--negatives"])
    def test_bad_training_setting_is_usage_error_before_reading(
        self, resources_dir, tmp_path, capsys, flag, value
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
                                  "message": f"{flag} must be >= 1"}
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


# exit code, sha256 of stdout and of the --trace file (None: not written) for
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
    # no argmax walk on the fixture matrix reaches length 8: nothing is printed
    ("--model", "1", "--policy", "argmax"): (
        EXIT_GENERATION,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
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
        trace_digest = (
            hashlib.sha256(trace.read_bytes()).hexdigest()
            if trace.exists() else None
        )
        assert (
            code, hashlib.sha256(out.encode("utf-8")).hexdigest(), trace_digest
        ) == GOLDEN_RUNS[flags]


class TestCheck:
    def test_healthy_resources_pass(self, resources_dir, capsys):
        code = main(["check", "--resources", str(resources_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

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
    def test_ingest_tag_build(self, fixdir, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "doc.txt").write_text(
            "El sol brilla. La luna canta en el cielo oscuro. "
            "Los mares duermen bajo la noche eterna.",
            encoding="utf-8",
        )
        sents = tmp_path / "sentences.txt"
        assert main(["ingest", "--in", str(raw), "--out", str(sents)]) == 0
        tagged = tmp_path / "tagged.tsv"
        assert main(["tag", "--in", str(sents), "--lexicon",
                     str(fixdir / "lexicon.tsv"), "--out", str(tagged)]) == 0
        matrix = tmp_path / "matrix.txt"
        assert main(["build-matrix", "--in", str(tagged), "--out",
                     str(matrix)]) == 0
        templates = tmp_path / "templates.jsonl"
        assert main(["build-templates", "--in", str(tagged), "--out",
                     str(templates)]) == 0
        ta = tmp_path / "ta.jsonl"
        fdict = tmp_path / "funcdict.jsonl"
        assert main(["build-ta", "--in", str(tagged), "--out", str(ta),
                     "--funcdict", str(fdict)]) == 0
        for p in (sents, tagged, matrix, templates, ta, fdict):
            assert p.exists() and p.stat().st_size > 0

    def test_ingest_names_the_document_and_line_of_a_bad_byte(self, tmp_path,
                                                             capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        doc = raw / "doc.txt"
        doc.write_bytes(b"El sol brilla.\nLa luna \xff canta.\n")
        code = main(["ingest", "--in", str(raw), "--out",
                     str(tmp_path / "sentences.txt")])
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_RESOURCE
        assert diagnostic["error"] == "IngestError"
        assert (diagnostic["path"], diagnostic["line"]) == (str(doc), 2)
        assert "not valid UTF-8" in diagnostic["message"]

    def test_import_tagged_round_trip(self, resources_dir, tmp_path, capsys):
        out = tmp_path / "copy.tsv"
        code = main(["import-tagged", "--in",
                     str(resources_dir / "tagged.tsv"), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == (
            resources_dir / "tagged.tsv"
        ).read_text(encoding="utf-8")
