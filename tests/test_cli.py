"""Tests for the command-line interface.

Each test drives main() directly with argv lists and parses the JSON it
prints.  The heavier flows reuse the offline fixtures from the pipeline
tests: a scripted mock backend plus the toy runner.
"""

import hashlib
import json
import logging
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from mutkit import cli
from mutkit.cli import build_parser, main
from mutkit.execution import KillMatrix, run_suite, save_matrix
from mutkit.llm import MockBackend
from mutkit.pipeline import PipelineConfig, TargetSpec, run_generate
from test_pipeline import (
    CLAMP_FIXED,
    COMPILE_COMMAND,
    SUM_BUGGY,
    SUM_FIXED,
    TEST_COMMAND,
    craft_response,
    write_corpus,
)


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def author_script(config: PipelineConfig, targets, tmp_path: Path) -> Path:
    """Record the run's prompts, then write a mock script answering them."""
    record_path = tmp_path / "record.jsonl"
    run_generate(config, targets, backend=MockBackend({}, record_path=str(record_path)))
    script_path = tmp_path / "script.jsonl"
    with script_path.open("w", encoding="utf-8") as handle:
        for line in record_path.read_text(encoding="utf-8").splitlines():
            item = json.loads(line)
            handle.write(json.dumps({
                "prompt_digest": item["prompt_digest"],
                "response_text": craft_response(item["prompt"]),
                "prompt_tokens": 3,
                "completion_tokens": 2,
            }) + "\n")
    return script_path


def write_targets(path: Path, rows) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def fixed_cli_run(tmp_path, capsys):
    """CLI generate + report over the two fixed-mode bugs."""
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path)
    out_dir = tmp_path / "out"
    targets_path = write_targets(tmp_path / "targets.jsonl", [
        {"bug_id": "Clamp-1", "method": CLAMP_FIXED, "project": "Alpha",
         "bug_revealing_tests": ["t_above"]},
        {"bug_id": "Sum-1", "method": SUM_FIXED, "project": "Beta",
         "buggy_method": SUM_BUGGY},
    ])
    base_config = PipelineConfig(output_dir=str(out_dir), retrieval=False)
    targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                          project="Alpha", bug_revealing_tests=("t_above",)),
               TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                          buggy_method=SUM_BUGGY)]
    script_path = author_script(base_config, targets, tmp_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "output_dir": str(out_dir),
        "retrieval": False,
        "test_command": TEST_COMMAND,
        "compile_command": COMPILE_COMMAND,
        "backend": {"mode": "mock", "script": str(script_path)},
    }))
    code, out, err = run_cli(["generate", "--config", str(config_path),
                              "--targets", str(targets_path)], capsys)
    assert code == 0, err
    code, out, err = run_cli(["report", "--config", str(config_path),
                              "--targets", str(targets_path)], capsys)
    assert code == 0, err
    return config_path, targets_path, out_dir, json.loads(out)


class TestCorpusCommands:
    def test_ingest_summary(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        code, out, _ = run_cli(["ingest", "--corpus", str(corpus_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == 20
        assert payload["skipped"] == 0
        assert payload["projects"] == ["Chart", "Lang", "Math", "Time"]

    def test_ingest_without_corpus_fails(self, capsys):
        code, _, err = run_cli(["ingest"], capsys)
        assert code == 2
        assert "corpus" in err

    def test_rag_build_and_query(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        index_path = tmp_path / "corpus.index"
        code, out, _ = run_cli([
            "rag", "build", "--corpus", str(corpus_path),
            "--index", str(index_path), "--dimension", "64"], capsys)
        assert code == 0
        assert json.loads(out)["entries"] == 20
        snippet = (f"public static int scale0(int x) {{\n"
                   f"    int factor = 2;\n"
                   f"    return x * factor;\n"
                   f"}}")
        code, out, _ = run_cli([
            "rag", "query", "--index", str(index_path),
            "--code", snippet, "-n", "3"], capsys)
        assert code == 0
        neighbors = json.loads(out)
        assert len(neighbors) == 3
        assert neighbors[0]["id"] == "pair-000"
        assert neighbors[0]["score"] == 0.0

    def test_rag_query_from_file_with_default_n(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        index_path = tmp_path / "corpus.index"
        run_cli(["rag", "build", "--corpus", str(corpus_path),
                 "--index", str(index_path), "--dimension", "64"], capsys)
        code_file = tmp_path / "snippet.java"
        code_file.write_text("int factor = 5;", encoding="utf-8")
        code, out, _ = run_cli([
            "rag", "query", "--index", str(index_path),
            "--code-file", str(code_file)], capsys)
        assert code == 0
        assert len(json.loads(out)) == 6


def index_bytes(metric=b"euclidean", backend=b"lexical-trigram-2", version=1,
                records=((b"a", (1.0, 2.0)),)) -> bytes:
    """An index file of two-dimensional vectors, field by field."""
    return (b"MKIX" + struct.pack("<IIB", version, 2, len(metric)) + metric
            + struct.pack("<H", len(backend)) + backend
            + struct.pack("<I", len(records))
            + b"".join(struct.pack("<H", len(entry_id)) + entry_id
                       + struct.pack("<2f", *vector) for entry_id, vector in records))


class TestInputsThatAreNotUtf8:
    """A byte 0xff where a UTF-8 string belongs exits 2 with a message."""

    @staticmethod
    def assert_error(code, err, names):
        assert code == 2
        assert err.startswith("error: ") and names in err
        assert "Traceback" not in err

    def test_ingest(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        with corpus_path.open("ab") as handle:
            handle.write(b'{"id": "\xff", "project": "P", "pre_fix_code": "a",'
                         b' "post_fix_code": "b"}\n')
        code, _, err = run_cli(["ingest", "--corpus", str(corpus_path)], capsys)
        self.assert_error(code, err, "cannot read corpus file")

    def test_rag_query(self, tmp_path, capsys):
        index_path = tmp_path / "corpus.index"
        index_path.write_bytes(index_bytes(records=((b"\xff", (1.0, 2.0)),)))
        code, _, err = run_cli(["rag", "query", "--index", str(index_path),
                                "--code", "return 1;"], capsys)
        self.assert_error(code, err, f"{index_path} holds a name that is not UTF-8")

    def test_generate(self, tmp_path, capsys):
        targets_path = tmp_path / "targets.jsonl"
        targets_path.write_bytes(b'{"bug_id": "\xff", "method": "m"}\n')
        code, _, err = run_cli(["generate", "--targets", str(targets_path)], capsys)
        self.assert_error(code, err, f"cannot read {targets_path}: 'utf-8' codec")

    def test_chunk(self, tmp_path, capsys):
        source = tmp_path / "method.java"
        source.write_bytes(b"\xff" + CLAMP_FIXED.encode("utf-8"))
        code, out, err = run_cli(["chunk", str(source)], capsys)
        assert out == ""
        self.assert_error(code, err, f"cannot read {source}: 'utf-8' codec")

    def test_rag_query_code_file(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        index_path = tmp_path / "corpus.index"
        code, _, _ = run_cli(["rag", "build", "--corpus", str(corpus_path),
                              "--index", str(index_path)], capsys)
        assert code == 0
        source = tmp_path / "method.java"
        source.write_bytes(b"\xff" + CLAMP_FIXED.encode("utf-8"))
        code, out, err = run_cli(["rag", "query", "--index", str(index_path),
                                  "--code-file", str(source)], capsys)
        assert out == ""
        self.assert_error(code, err, f"cannot read {source}: 'utf-8' codec")


class TestIndexFiles:
    """rag query on an index it cannot use exits 2 with one error line."""

    def query(self, tmp_path, capsys, data, *flags) -> tuple[Path, str]:
        path = tmp_path / "corpus.index"
        if data is not None:
            path.write_bytes(data)
        code, out, err = run_cli(["rag", "query", "--index", str(path),
                                  "--code", "return 1;", *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return path, err

    @pytest.mark.parametrize("data, message", [
        (None, "cannot read index file {path}: "),
        (index_bytes(version=2), "{path} has unsupported index version 2\n"),
        (index_bytes(metric=b"manhattan"), "{path} has unknown metric 'manhattan'\n"),
        (index_bytes(records=((b"abc", (1.0, 2.0)),))[:-2], "{path} is truncated\n"),
        (index_bytes() + b"\0", "{path} has trailing bytes\n"),
        (index_bytes()[:10], "{path} is truncated: "),
    ], ids=["missing", "version", "metric", "record", "trailing", "header"])
    def test_a_bad_index_file_is_named(self, tmp_path, capsys, data, message):
        path, err = self.query(tmp_path, capsys, data)
        assert err.startswith("error: " + message.format(path=path))

    @pytest.mark.parametrize("backend", [b"lexical-trigram-x", b"lexical-trigram-",
                                         b"lexical-trigram-0"])
    def test_a_backend_id_without_a_dimension_is_named(self, tmp_path, capsys,
                                                        backend):
        _, err = self.query(tmp_path, capsys, index_bytes(backend=backend))
        assert err.startswith(f"error: index was built with backend {backend.decode()!r}")

    def test_an_empty_index_is_reported_before_n(self, tmp_path, capsys):
        _, err = self.query(tmp_path, capsys, index_bytes(records=()))
        assert err == "error: cannot query an empty index\n"

    def test_n_must_be_positive(self, tmp_path, capsys):
        _, err = self.query(tmp_path, capsys, index_bytes(), "-n", "0")
        assert err == "error: n must be positive, got 0\n"


class TestChunkCommand:
    def test_chunk_listing(self, tmp_path, capsys):
        source = tmp_path / "method.java"
        source.write_text(CLAMP_FIXED, encoding="utf-8")
        code, out, _ = run_cli(["chunk", str(source)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lines"] == 7
        assert [c["chunk_id"] for c in payload["chunks"]] == ["c00", "c01", "c02"]


class TestGenerateCommand:
    def test_generate_exit_codes(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        targets_path = write_targets(tmp_path / "targets.jsonl", [
            {"bug_id": "Bad-1", "method": "not a method at all ;;"}])
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "output_dir": str(out_dir), "retrieval": False,
            "backend": {"mode": "mock"}}))
        code, out, _ = run_cli(["generate", "--config", str(config_path),
                                "--targets", str(targets_path)], capsys)
        assert code == 1
        assert json.loads(out)["targets"] == 1

    def test_stale_index_fails_its_targets_not_the_run(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "corpus": str(corpus_path), "index": str(tmp_path / "corpus.index"),
            "output_dir": str(tmp_path / "out"), "dimension": 64,
            "backend": {"mode": "mock"}}))
        code, _, _ = run_cli(["rag", "build", "--config", str(config_path)], capsys)
        assert code == 0
        lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus_path.write_text("".join(lines[:len(lines) // 2]), encoding="utf-8")
        targets_path = write_targets(tmp_path / "targets.jsonl", [
            {"bug_id": "Clamp-1", "method": CLAMP_FIXED}])
        code, out, _ = run_cli(["generate", "--config", str(config_path),
                                "--targets", str(targets_path)], capsys)
        assert code == 1
        assert json.loads(out)["failed"] == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        errors = summary["targets"]["Clamp-1"]["errors"]
        assert errors and all(re.fullmatch(
            r"retrieval c0\d: index entry 'pair-01\d' is not in the corpus", error)
            for error in errors)

    def test_generate_missing_targets_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["generate", "--targets", str(tmp_path / "nope.jsonl")], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read {tmp_path / 'nope.jsonl'}: ")

    def test_a_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"retrieval": false')
        code, out, err = run_cli(["generate", "--config", str(config_path),
                                  "--targets", str(tmp_path / "targets.jsonl")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {config_path} is not JSON: Expecting ',' delimiter")

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"retreival": True}))
        targets_path = write_targets(tmp_path / "targets.jsonl", [
            {"bug_id": "B-1", "method": CLAMP_FIXED}])
        code, _, err = run_cli(["generate", "--config", str(config_path),
                                "--targets", str(targets_path)], capsys)
        assert code == 2
        assert "unknown keys" in err

    def test_the_dropped_collapse_whitespace_key_is_unknown(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"collapse_whitespace": True}))
        code, _, err = run_cli(["validate", "--config", str(config_path),
                                "--targets", str(tmp_path / "targets.jsonl")], capsys)
        assert code == 2
        assert "unknown keys: ['collapse_whitespace']" in err


class TestReportCommands:
    def test_report_writes_sections(self, fixed_cli_run):
        _, _, out_dir, payload = fixed_cli_run
        assert payload["sections"] == ["metrics", "tcp", "validity"]
        report_dir = Path(payload["out_dir"])
        assert report_dir == out_dir / "report"
        for name in ("validity.json", "validity.txt", "effectiveness.json",
                     "effectiveness.txt", "tcp.json", "tcp.txt", "report.json"):
            assert (report_dir / name).exists()

    def test_validate_only(self, fixed_cli_run, tmp_path, capsys):
        config_path, targets_path, out_dir, _ = fixed_cli_run
        report_dir = tmp_path / "validate-only"
        code, out, _ = run_cli([
            "validate", "--config", str(config_path),
            "--targets", str(targets_path),
            "--report-dir", str(report_dir)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["sections"] == ["validity"]
        assert (report_dir / "validity.json").exists()
        assert not (report_dir / "effectiveness.json").exists()

    VALIDITY_FILES = ["report.json", "validity.json", "validity.txt"]
    MATRIX_FILES = ["Clamp-1.matrix", "Clamp-1.original.txt",
                    "Sum-1.matrix", "Sum-1.original.txt"]
    # command -> (sections printed, report files, matrix files) it writes
    DEPTHS = {
        "validate": (["validity"], VALIDITY_FILES, []),
        "execute": (["validity"], VALIDITY_FILES, MATRIX_FILES),
        "report": (["metrics", "tcp", "validity"],
                   sorted(VALIDITY_FILES + ["effectiveness.json", "effectiveness.txt",
                                            "tcp.json", "tcp.txt"]), MATRIX_FILES),
    }

    @pytest.mark.parametrize("command", list(DEPTHS))
    def test_each_command_writes_the_files_of_its_depth(self, fixed_cli_run, tmp_path,
                                                        capsys, command):
        sections, report_files, matrix_files = self.DEPTHS[command]
        config_path, targets_path, out_dir, _ = fixed_cli_run
        matrices = out_dir / "matrices"
        for path in matrices.glob("*.*"):
            path.unlink()
        report_dir = tmp_path / command
        code, out, err = run_cli([
            command, "--config", str(config_path), "--targets", str(targets_path),
            "--report-dir", str(report_dir)], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["out_dir"] == str(report_dir)
        assert payload["sections"] == sections
        assert payload["warnings"] == json.loads(
            (report_dir / "report.json").read_text())["warnings"]
        assert sorted(path.name for path in report_dir.iterdir()) == report_files
        assert sorted(path.name for path in matrices.glob("*.*")) == matrix_files


def test_ablation_flags_run_generate_and_report_as_plain(tmp_path, capsys):
    """--no-retrieval --no-chunking on the command line, over a config that
    sets neither: both stages run the plain variant, one whole-method
    prompt per bug and no corpus."""
    out_dir = tmp_path / "out"
    targets_path = write_targets(tmp_path / "targets.jsonl", [
        {"bug_id": "Clamp-1", "method": CLAMP_FIXED, "bug_revealing_tests": ["t_above"]}])
    targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                          bug_revealing_tests=("t_above",))]
    script_path = author_script(
        PipelineConfig(output_dir=str(out_dir), retrieval=False, chunking=False),
        targets, tmp_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "output_dir": str(out_dir),
        "test_command": TEST_COMMAND,
        "compile_command": COMPILE_COMMAND,
        "backend": {"mode": "mock", "script": str(script_path)}}))
    flags = ["--config", str(config_path), "--targets", str(targets_path),
             "--no-retrieval", "--no-chunking"]
    for command in ("generate", "report"):
        code, _, err = run_cli([command, *flags], capsys)
        assert code == 0, err
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["variant"] == "plain"
    assert summary["targets"]["Clamp-1"]["prompts_total"] == 1
    report_json = json.loads((out_dir / "report" / "report.json").read_text(encoding="utf-8"))
    assert report_json["variant"] == "plain"


class TestStandaloneAnalysis:
    def test_metrics_from_matrix_files(self, fixed_cli_run, tmp_path, capsys):
        _, _, out_dir, _ = fixed_cli_run
        revealing_path = tmp_path / "revealing.json"
        revealing_path.write_text(json.dumps({
            "Clamp-1": ["t_above"],
            "Sum-1": ["t_zero", "t_one", "t_five", "t_neg"],
        }))
        report_out = tmp_path / "metrics.json"
        code, out, _ = run_cli([
            "metrics", "--matrices", str(out_dir / "matrices"),
            "--revealing", str(revealing_path),
            "--out", str(report_out)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["per_bug_mutation_score"] == {"Clamp-1": 0.75,
                                                     "Sum-1": 1.0}
        assert payload["mutation_score"]["micro"] == 7 / 8
        assert json.loads(report_out.read_text())["aoc"] == payload["aoc"]

    def test_metrics_requires_revealing_entry(self, fixed_cli_run, tmp_path,
                                              capsys):
        _, _, out_dir, _ = fixed_cli_run
        revealing_path = tmp_path / "revealing.json"
        revealing_path.write_text(json.dumps({"Clamp-1": ["t_above"]}))
        code, _, err = run_cli([
            "metrics", "--matrices", str(out_dir / "matrices"),
            "--revealing", str(revealing_path)], capsys)
        assert code == 2
        assert "Sum-1" in err

    def test_tcp_from_matrix_file(self, fixed_cli_run, tmp_path, capsys):
        _, _, out_dir, _ = fixed_cli_run
        detection_path = tmp_path / "detection.json"
        detection_path.write_text(json.dumps({"Clamp-1": ["t_above"]}))
        code, out, _ = run_cli([
            "tcp", "--matrix", str(out_dir / "matrices" / "Clamp-1.matrix"),
            "--detection", str(detection_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        grk = payload["strategies"]["GRK"]
        assert grk["order"] == ["t_above", "t_small", "t_big", "t_at_limit"]
        assert grk["apfd"] == pytest.approx(0.875)
        assert set(payload["strategies"]) == {"GRK", "GRD", "HYB(0.5)"}

    def test_tcp_rejects_bad_weight_before_prioritizing(self, tmp_path,
                                                        capsys, monkeypatch):
        matrix_path = tmp_path / "B-1.matrix"
        save_matrix(KillMatrix(bug_id="B-1", mutant_ids=("m1",),
                               test_ids=("t1",), kills=[[True]]),
                    str(matrix_path))
        detection_path = tmp_path / "detection.json"
        detection_path.write_text(json.dumps({"B-1": ["t1"]}))

        def must_not_run(matrix):
            raise AssertionError("a strategy ran before the weight check")

        monkeypatch.setattr("mutkit.tcp.grk", must_not_run)
        monkeypatch.setattr("mutkit.tcp.grd", must_not_run)
        code, out, err = run_cli([
            "tcp", "--matrix", str(matrix_path),
            "--detection", str(detection_path), "--weight", "1.5"], capsys)
        assert code == 2
        assert out == ""
        assert "weight must be in [0, 1], got 1.5" in err

    def test_mbfl_from_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        targets_path = write_targets(tmp_path / "targets.jsonl", [
            {"bug_id": "Sum-2", "method": SUM_BUGGY, "project": "Alpha",
             "faulty_lines": [2]}])
        base_config = PipelineConfig(output_dir=str(out_dir),
                                     retrieval=False, mode="buggy")
        targets = [TargetSpec(bug_id="Sum-2", method=SUM_BUGGY,
                              project="Alpha", faulty_lines=(2,))]
        script_path = author_script(base_config, targets, tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "output_dir": str(out_dir), "retrieval": False, "mode": "buggy",
            "test_command": TEST_COMMAND,
            "compile_command": COMPILE_COMMAND,
            "backend": {"mode": "mock", "script": str(script_path)}}))
        code, _, err = run_cli(["generate", "--config", str(config_path),
                                "--targets", str(targets_path)], capsys)
        assert code == 0, err
        code, _, err = run_cli(["execute", "--config", str(config_path),
                                "--targets", str(targets_path)], capsys)
        assert code == 0, err

        manifest_rows = [
            json.loads(line) for line in
            (out_dir / "manifest.jsonl").read_text().splitlines()]
        statements = {"Sum-2": {
            row["mutant_id"]: row["target_line"] for row in manifest_rows
            if row["rejection"] is None}}
        statements_path = tmp_path / "statements.json"
        statements_path.write_text(json.dumps(statements))
        faulty_path = tmp_path / "faulty.json"
        faulty_path.write_text(json.dumps({"Sum-2": [2]}))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"Sum-2": list(range(1, 8))}))
        report_out = tmp_path / "mbfl.json"
        code, out, err = run_cli([
            "mbfl", "--matrices", str(out_dir / "matrices"),
            "--statements", str(statements_path),
            "--faulty", str(faulty_path),
            "--statement-space", str(space_path),
            "--out", str(report_out)], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["per_bug"]["Sum-2"]["muse"]["expected_ranks"]["2"] == 1.0
        for method in ("muse", "metallaxis"):
            metrics = payload["metrics"][method]
            assert metrics["top_k"] == {"1": 1, "3": 1, "5": 1}
            assert metrics["mar"] == 1.0
        assert report_out.exists()


    def test_mbfl_rejects_matrix_tests_missing_from_outcomes(self, tmp_path,
                                                             capsys):
        matrices = tmp_path / "matrices"
        matrices.mkdir()
        (matrices / "B-1.matrix").write_text("MUTANTS m1\nTESTS t1 t2\n10\n")
        (matrices / "B-1.original.txt").write_text("t1 FAIL\n")
        statements = tmp_path / "statements.json"
        statements.write_text(json.dumps({"B-1": {"m1": 1}}))
        faulty = tmp_path / "faulty.json"
        faulty.write_text(json.dumps({"B-1": [1]}))
        code, out, err = run_cli([
            "mbfl", "--matrices", str(matrices), "--statements",
            str(statements), "--faulty", str(faulty)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bug B-1:")
        assert "['t2']" in err


    @pytest.fixture
    def two_bug_matrices(self, tmp_path):
        """Bugs A and B with the same one-mutant matrix and outcomes."""
        matrices = tmp_path / "matrices"
        matrices.mkdir()
        for bug_id in ("A", "B"):
            (matrices / f"{bug_id}.matrix").write_text("MUTANTS m1\nTESTS t1 t2\n10\n")
            (matrices / f"{bug_id}.original.txt").write_text("t1 FAIL\nt2 PASS\n")
        statements = tmp_path / "statements.json"
        statements.write_text(json.dumps({"A": {"m1": 1}, "B": {"m1": 1}}))
        return matrices, statements

    def mbfl(self, matrices, statements, faulty: dict, capsys):
        path = statements.parent / "faulty.json"
        path.write_text(json.dumps(faulty))
        return run_cli(["mbfl", "--matrices", str(matrices), "--statements",
                        str(statements), "--faulty", str(path)], capsys)

    def test_mbfl_bug_without_faulty_lines_is_left_out_of_the_metrics(
            self, two_bug_matrices, capsys):
        matrices, statements = two_bug_matrices
        code, out, err = self.mbfl(matrices, statements, {"A": [1]}, capsys)
        assert code == 0, err
        assert err == (f"warning: mbfl: bug B has no faulty lines in "
                       f"{statements.parent / 'faulty.json'}; left out of "
                       f"Top-k/MAR/MFR\n")
        payload = json.loads(out)
        assert sorted(payload["per_bug"]) == ["A", "B"]
        assert payload["per_bug"]["B"]["muse"]["faulty_ranks"] == []
        for method in ("muse", "metallaxis"):
            assert payload["metrics"][method]["evaluated_bugs"] == 1
        (matrices / "B.matrix").unlink()
        code, alone, err = self.mbfl(matrices, statements, {"A": [1]}, capsys)
        assert code == 0 and err == ""
        assert json.loads(alone)["metrics"] == payload["metrics"]

    @pytest.mark.parametrize("faulty", [{}, {"A": [1], "B": [1]}])
    def test_mbfl_all_or_no_faulty_lines_print_no_warning(
            self, two_bug_matrices, capsys, faulty):
        matrices, statements = two_bug_matrices
        code, out, err = self.mbfl(matrices, statements, faulty, capsys)
        assert code == 0 and err == ""
        metrics = json.loads(out)["metrics"]
        if faulty:
            assert metrics["muse"]["evaluated_bugs"] == 2
        else:
            assert metrics == {"muse": None, "metallaxis": None}


def write_analysis_inputs(root: Path, seed: int) -> Path:
    """Seeded buggy-mode matrix files plus the JSON side inputs.

    Matrix rows and columns are written shuffled, not in id order; several
    mutants share each statement, so MUSE means are not whole numbers;
    and duplicated rows plus unmutated statements make scores tie.
    """
    rng = random.Random(seed)
    matrices = root / "matrices"
    matrices.mkdir(parents=True)
    tables = {name: {} for name in ("revealing", "statements", "faulty", "space")}
    for number, (mutants, tests) in enumerate(((24, 10), (31, 14), (17, 7))):
        bug = f"G-{number}"
        mutant_ids = [f"m{i:02d}" for i in range(mutants)]
        test_ids = [f"t{j:02d}" for j in range(tests)]
        rows = {m: [rng.random() < 0.3 for _ in test_ids] for m in mutant_ids}
        for m in rng.sample(mutant_ids, mutants // 4):
            rows[m] = [False] * tests
        for m in rng.sample(mutant_ids, mutants // 5):
            rows[m] = rows[rng.choice(mutant_ids)]
        rng.shuffle(mutant_ids)
        rng.shuffle(test_ids)
        lines = ["MUTANTS " + " ".join(mutant_ids), "TESTS " + " ".join(test_ids)]
        lines += ["".join("1" if rows[m][int(t[1:])] else "0" for t in test_ids)
                  for m in mutant_ids]
        (matrices / f"{bug}.matrix").write_text("\n".join(lines) + "\n")
        failing = sorted(rng.sample(test_ids, 1 + tests // 4))
        (matrices / f"{bug}.original.txt").write_text("".join(
            f"{t} {'FAIL' if t in failing else 'PASS'}\n" for t in sorted(test_ids)))
        statements = {m: rng.randint(1, mutants // 3) for m in sorted(mutant_ids)}
        tables["revealing"][bug] = failing
        tables["statements"][bug] = statements
        tables["faulty"][bug] = [statements[rng.choice(mutant_ids)]]
        tables["space"][bug] = list(range(1, mutants // 3 + 4))
    for name, table in tables.items():
        (root / f"{name}.json").write_text(json.dumps(table))
    return matrices


class TestAnalysisGoldenDigests:
    """sha256 of the metrics and mbfl stdout on seeded matrix files,
    recorded from the implementation that rebuilt per-mutant outcomes."""

    GOLDEN = {
        "metrics": "89045e4e46e942bca43300c5277aa94a0baef0938b9079e0493f70b4cce537e1",
        "mbfl": "21f22e0eeb6f8cb3e6bb27883906be95bb62f11ba55a5f7b97c89d8a8068e0f8",
        "mbfl --statement-space":
            "a4c5513c63c6f482534d5bef3b316cba396e0fddba127a00fbb0fe513a4cd68e",
    }

    def test_stdout_matches_the_golden_digests(self, tmp_path, capsys):
        matrices = write_analysis_inputs(tmp_path, seed=29)
        argvs = {
            "metrics": ["metrics", "--matrices", str(matrices),
                        "--revealing", str(tmp_path / "revealing.json")],
            "mbfl": ["mbfl", "--matrices", str(matrices),
                     "--statements", str(tmp_path / "statements.json"),
                     "--faulty", str(tmp_path / "faulty.json")],
        }
        argvs["mbfl --statement-space"] = argvs["mbfl"] + [
            "--statement-space", str(tmp_path / "space.json")]
        digests, outputs = {}, {}
        for name, argv in argvs.items():
            code, out, err = run_cli(argv, capsys)
            assert code == 0 and err == "", err
            outputs[name] = json.loads(out)
            digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        muse = [score for entry in outputs["mbfl"]["per_bug"].values()
                for score in entry["muse"]["scores"].values()]
        assert any(score != int(score) for score in muse)
        for entry in outputs["mbfl --statement-space"]["per_bug"].values():
            scores = list(entry["muse"]["scores"].values())
            assert len(set(scores)) < len(scores)
        assert digests == self.GOLDEN


@pytest.mark.parametrize("command", ["metrics", "tcp", "mbfl"])
def test_stdout_and_the_out_file_hold_the_same_bytes(command, tmp_path, capsys):
    matrices = write_analysis_inputs(tmp_path, seed=29)
    argv = {
        "metrics": ["metrics", "--matrices", str(matrices),
                    "--revealing", str(tmp_path / "revealing.json")],
        "tcp": ["tcp", "--matrix", str(matrices / "G-1.matrix"),
                "--detection", str(tmp_path / "revealing.json")],
        "mbfl": ["mbfl", "--matrices", str(matrices),
                 "--statements", str(tmp_path / "statements.json"),
                 "--faulty", str(tmp_path / "faulty.json")],
    }[command]
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 0 and err == "", err
    assert json.loads(out)
    assert out_path.read_bytes() == out.encode("utf-8")


def write_golden_corpus(path: Path) -> Path:
    """Seeded single-line fixes plus one record of each edge case ingest
    must handle: an insertion, a deletion, a multi-hunk edit, identical
    sides, a non-object metadata field and an object one."""
    rng = random.Random(41)
    records = []
    for i in range(40):
        width = rng.randint(2, 6)
        body = [f"    int v{j} = a * {rng.randint(0, 9)} + {j};" for j in range(width)]
        fixed = ["public int f%d(int a) {" % i, *body, "    return v0;", "}"]
        buggy = list(fixed)
        line = rng.randint(1, width)
        buggy[line] = buggy[line].replace("a *", rng.choice(["a +", "a -", "a /"]))
        records.append({"id": f"fix-{i:02d}", "project": rng.choice(["P", "Q", "R"]),
                        "pre_fix_code": "\n".join(buggy),
                        "post_fix_code": "\n".join(fixed)})
    method = ["int g(int a) {", "    int b = a;", "    b += 2;", "    return b;", "}"]
    records += [
        {"id": "insertion", "project": "Q", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(method[:3] + ["    b *= 3;"] + method[3:])},
        {"id": "deletion", "project": "R", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(method[:2] + method[3:])},
        {"id": "multi-hunk", "project": "P", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(["int g(long a) {", *method[1:3],
                                     "    return -b;", "}"])},
        {"id": "identical", "project": "P", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(method)},
        {"id": "bad-metadata", "project": "Q", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(method).replace("+= 2", "+= 4"),
         "metadata": ["not", "an", "object"]},
        {"id": "metadata", "project": "S", "pre_fix_code": "\n".join(method),
         "post_fix_code": "\n".join(method).replace("+= 2", "+= 5"),
         "metadata": {"source": "golden"}},
    ]
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


class TestCorpusGoldenDigests:
    """sha256 of the ingest stdout and of the index files rag build writes
    for each key side, recorded from the implementation whose hunks also
    carried a start line and context lines."""

    GOLDEN = {
        "ingest": "5138a5ce7d00e0972203229abd2fdd91ade479d4092ac9d136e9f1f29a94687f",
        "post_fix": "bae25714fa67e40f618f4123955fae1eaeed663b648e4eb5cf0a24915136e554",
        "pre_fix": "430336ff7835a9a2f0314882cdaef666839026f9f76fa171f47101e5fe675651",
    }

    def test_outputs_match_the_golden_digests(self, tmp_path, capsys):
        corpus = write_golden_corpus(tmp_path / "corpus.jsonl")
        code, out, err = run_cli(["ingest", "--corpus", str(corpus)], capsys)
        assert code == 0 and err == "", err
        payload = json.loads(out)
        assert (payload["pairs"], payload["skipped"]) == (43, 3)
        digests = {"ingest": hashlib.sha256(out.encode("utf-8")).hexdigest()}
        for side in ("post_fix", "pre_fix"):
            index = tmp_path / f"{side}.index"
            code, out, err = run_cli(["rag", "build", "--corpus", str(corpus),
                                      "--index", str(index), "--dimension", "96",
                                      "--key-side", side], capsys)
            assert code == 0 and json.loads(out)["entries"] == 43, err
            digests[side] = hashlib.sha256(index.read_bytes()).hexdigest()
        assert digests == self.GOLDEN


def write_bug_matrix(matrices: Path) -> None:
    """matrices/B.matrix plus B.original.txt: one mutant, tests t1 and t2."""
    matrices.mkdir()
    (matrices / "B.matrix").write_text("MUTANTS m1\nTESTS t1 t2\n10\n")
    (matrices / "B.original.txt").write_text("t1 FAIL\nt2 PASS\n")


GOOD_INPUTS = {"revealing": {"B": ["t1"]}, "detection": {"B": ["t1"]},
               "statements": {"B": {"m1": 1}}, "faulty": {"B": [1]},
               "statement-space": {"B": [1, 2]}}
COMMAND_INPUTS = {"metrics": ("revealing",), "tcp": ("detection",),
                  "mbfl": ("statements", "faulty", "statement-space")}


@pytest.mark.parametrize("flag, bad", [
    ("revealing", ["B"]),
    ("revealing", {"B": "t1"}),
    ("revealing", {"B": [1]}),
    ("detection", ["B"]),
    ("detection", {"B": "t1"}),
    ("statements", {"B": {"m1": "x"}}),
    ("statements", {"B": [1]}),
    ("statements", {"B": {"m1": True}}),
    ("faulty", {"B": ["x"]}),
    ("faulty", {"B": [1.5]}),
    ("faulty", {"B": 1}),
    ("statement-space", {"B": "1"}),
    ("statement-space", {"B": [True]}),
    ("revealing", b'{"B": ["t1"]'),
    ("detection", b'{"B": ["t1"'),
    ("faulty", b'{"B": [\xff]}'),
])
def test_standalone_inputs_of_the_wrong_shape_exit_2(flag, bad, tmp_path,
                                                      capsys):
    """bad is the input's value, or its raw bytes when it is not JSON."""
    matrices = tmp_path / "matrices"
    write_bug_matrix(matrices)
    command = next(name for name, flags in COMMAND_INPUTS.items()
                   if flag in flags)
    argv = [command, "--matrix" if command == "tcp" else "--matrices",
            str(matrices / "B.matrix" if command == "tcp" else matrices)]
    for name in COMMAND_INPUTS[command]:
        path = tmp_path / f"{name}.json"
        if name == flag and isinstance(bad, bytes):
            path.write_bytes(bad)
        else:
            path.write_text(json.dumps(bad if name == flag else GOOD_INPUTS[name]))
        argv += [f"--{name}", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path / f"{flag}.json") in err


@pytest.mark.parametrize("data, message", [
    (None, "cannot read matrix file {path}: "),
    (b"MUTANTS m\xff\nTESTS t1\n1\n", "cannot read matrix file {path}: 'utf-8' codec"),
    (b"MUTANT m1\nTESTS t1\n1\n", "matrix file {path}: first line must start with MUTANTS\n"),
    (b"MUTANTS m1\nTEST t1\n1\n", "matrix file {path}: second line must start with TESTS\n"),
], ids=["missing", "not-utf8", "mutants", "tests"])
def test_a_bad_matrix_file_exits_2_naming_it(data, message, tmp_path, capsys):
    matrices = tmp_path / "matrices"
    write_bug_matrix(matrices)
    path = matrices / "B.matrix"
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)
    detection = tmp_path / "detection.json"
    detection.write_text(json.dumps(GOOD_INPUTS["detection"]))
    code, out, err = run_cli(["tcp", "--matrix", str(path),
                              "--detection", str(detection)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize("data, message", [
    (None, "No such file"), (b"t1 FAIL\n\xff", "'utf-8' codec"),
], ids=["missing", "not-utf8"])
def test_an_unreadable_outcomes_file_exits_2_naming_it(data, message, tmp_path,
                                                        capsys):
    matrices = tmp_path / "matrices"
    write_bug_matrix(matrices)
    path = matrices / "B.original.txt"
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)
    argv = ["mbfl", "--matrices", str(matrices)]
    for name in COMMAND_INPUTS["mbfl"]:
        (tmp_path / f"{name}.json").write_text(json.dumps(GOOD_INPUTS[name]))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read outcomes file {path}: ")
    assert message in err


@pytest.mark.parametrize("argv, tables, message", [
    (["rag", "build"], {}, "rag build needs corpus and index paths"),
    (["rag", "query", "--code", "return 1;"], {}, "rag query needs an index path"),
    (["metrics", "--matrices", "{tmp}"], {"revealing": {"B": ["t1"]}},
     "no .matrix files under {tmp}"),
    (["metrics", "--matrices", "{tmp}/matrices"], {"revealing": {"B": []}},
     "bug B has no bug-revealing tests"),
    (["mbfl", "--matrices", "{tmp}/matrices"],
     {"statements": {"A": {"m1": 1}}, "faulty": {"B": [1]}},
     "bug B missing from {tmp}/statements.json"),
], ids=["rag-build", "rag-query", "no-matrices", "no-revealing", "no-statements"])
def test_a_missing_input_exits_2_naming_it(argv, tables, message, tmp_path, capsys):
    write_bug_matrix(tmp_path / "matrices")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    for name, table in tables.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(tmp=tmp_path)}\n"


def test_metrics_and_tcp_match_the_report_sections(fixed_cli_run, tmp_path,
                                                   capsys):
    """The standalone commands rebuild report payloads from execute's matrices."""
    config_path, targets_path, out_dir, _ = fixed_cli_run
    code, _, err = run_cli(["execute", "--config", str(config_path),
                            "--targets", str(targets_path)], capsys)
    assert code == 0, err
    matrices = out_dir / "matrices"
    buggy_sum = run_suite(SUM_BUGGY, TEST_COMMAND, program_id="Sum-1-buggy")
    revealing = {"Clamp-1": ["t_above"], "Sum-1": sorted(buggy_sum.failing())}
    revealing_path = tmp_path / "revealing.json"
    revealing_path.write_text(json.dumps(revealing))
    code, out, err = run_cli(["metrics", "--matrices", str(matrices),
                              "--revealing", str(revealing_path)], capsys)
    assert code == 0, err
    report_dir = out_dir / "report"
    assert out == (report_dir / "effectiveness.json").read_text()
    tcp_section = json.loads((report_dir / "tcp.json").read_text())
    for bug_id, tests in revealing.items():
        detection_path = tmp_path / f"detection-{bug_id}.json"
        detection_path.write_text(json.dumps({bug_id: tests}))
        code, out, err = run_cli([
            "tcp", "--matrix", str(matrices / f"{bug_id}.matrix"),
            "--detection", str(detection_path)], capsys)
        assert code == 0, err
        assert json.loads(out)["strategies"] == tcp_section["per_bug"][bug_id]


class TestExportSft:
    def test_export_coupled_instances(self, fixed_cli_run, tmp_path, capsys):
        config_path, _, out_dir, _ = fixed_cli_run
        out_path = tmp_path / "sft.jsonl"
        code, out, _ = run_cli([
            "export-sft", "--config", str(config_path),
            "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 6
        assert payload["excluded_uncoupled"] == 4
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert len(rows) == 6
        assert all("<json>" in row["response"] for row in rows)
        bugs = {row["provenance"]["bug_id"] for row in rows}
        assert bugs == {"Clamp-1", "Sum-1"}

    def test_export_excludes_projects(self, fixed_cli_run, tmp_path, capsys):
        config_path, _, _, _ = fixed_cli_run
        out_path = tmp_path / "sft.jsonl"
        code, out, _ = run_cli([
            "export-sft", "--config", str(config_path),
            "--out", str(out_path), "--exclude-projects", "Beta"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["excluded_projects"] == 4
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert {row["provenance"]["project"] for row in rows} == {"Alpha"}

    def test_export_grouped(self, fixed_cli_run, tmp_path, capsys):
        config_path, _, _, _ = fixed_cli_run
        out_path = tmp_path / "sft.jsonl"
        code, out, _ = run_cli([
            "export-sft", "--config", str(config_path),
            "--out", str(out_path), "--grouped"], capsys)
        assert code == 0
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert len(rows) < 6
        assert any(len(row["provenance"]["mutant_ids"]) > 1 for row in rows)


    def test_blank_lines_in_prompts_are_skipped(self, fixed_cli_run, tmp_path,
                                                capsys):
        config_path, _, out_dir, _ = fixed_cli_run
        argv = ["export-sft", "--config", str(config_path), "--out",
                str(tmp_path / "sft.jsonl")]
        code, before, err = run_cli(argv, capsys)
        assert code == 0, err
        prompts = out_dir / "prompts.jsonl"
        prompts.write_text("\n" + prompts.read_text().replace("\n", "\n \n"))
        assert run_cli(argv, capsys) == (0, before, "")

    def test_export_without_artifacts_says_to_generate(self, tmp_path, capsys):
        code, out, err = run_cli([
            "export-sft", "--artifacts", str(tmp_path),
            "--out", str(tmp_path / "sft.jsonl")], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: {tmp_path} lacks summary.json/manifest.jsonl; "
                       f"run generate first\n")


@pytest.fixture
def generated(tmp_path, capsys):
    """The config and targets of a one-bug CLI generate, and its artifacts."""
    out_dir = tmp_path / "out"
    row = {"bug_id": "Clamp-1", "method": CLAMP_FIXED, "bug_revealing_tests": ["t_above"]}
    targets_path = write_targets(tmp_path / "targets.jsonl", [row])
    base_config = PipelineConfig(output_dir=str(out_dir), retrieval=False)
    script_path = author_script(base_config, [TargetSpec(
        bug_id="Clamp-1", method=CLAMP_FIXED, bug_revealing_tests=("t_above",))], tmp_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "output_dir": str(out_dir), "retrieval": False,
        "backend": {"mode": "mock", "script": str(script_path)}}))
    code, _, err = run_cli(["generate", "--config", str(config_path),
                            "--targets", str(targets_path)], capsys)
    assert code == 0, err
    return config_path, targets_path, out_dir


def rewrite_first_row(path: Path, change) -> None:
    """Replace the first row by change(row): a new row, or a str that is
    the line's new text."""
    lines = path.read_text(encoding="utf-8").splitlines()
    row = change(json.loads(lines[0]))
    lines[0] = row if isinstance(row, str) else json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def truncated(value) -> str:
    """value's JSON text without its last character."""
    return json.dumps(value)[:-1]


def without(field):
    return lambda row: {key: row[key] for key in row if key != field}


def with_expected(value):
    """A change to summary.json that sets Clamp-1's expected count to value."""
    return lambda summary: {**summary, "targets": {
        "Clamp-1": {**summary["targets"]["Clamp-1"], "expected": value}}}


class TestGenerationArtifactsOfTheWrongShape:
    """A generation artifact read back with a wrong value type ends the
    command with exit 2 and a message naming the file, the line and the
    field."""

    @pytest.mark.parametrize("field, value, message", [
        ("target_line", "3", "target_line must be int | None, got '3'"),
        ("target_line", None, "target_line must be int, got None"),
        ("aftercode", 5, "aftercode must be str, got 5"),
        ("precode", ["a;"], "precode must be str, got ['a;']"),
        ("rejection", 0, "rejection must be str | None, got 0"),
        ("mutant_id", None, "mutant_id must be str, got None"),
    ])
    def test_a_manifest_row(self, generated, capsys, field, value, message):
        config_path, targets_path, out_dir = generated
        manifest = out_dir / "manifest.jsonl"
        assert json.loads(manifest.read_text().splitlines()[0])["rejection"] is None
        rewrite_first_row(manifest, lambda row: {**row, field: value})
        code, out, err = run_cli(["validate", "--config", str(config_path),
                                  "--targets", str(targets_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {manifest} line 1: {message}\n"

    @pytest.mark.parametrize("change, message", [
        (with_expected("7"), ": bug Clamp-1: expected must be int, got '7'"),
        (with_expected(7.0), ": bug Clamp-1: expected must be int, got 7.0"),
        (with_expected(True), ": bug Clamp-1: expected must be int, got True"),
        (with_expected(None), ": bug Clamp-1: expected must be int, got None"),
        (lambda summary: {**summary, "targets": {"Clamp-1": 5}},
         ": targets must be dict[str, dict], got {'Clamp-1': 5}"),
        (lambda summary: {**summary, "targets": []}, ": targets must be dict[str, dict], got []"),
        (lambda summary: [summary], " must be dict, got [{"),
        (truncated, " is not JSON: Expecting ',' delimiter: line 1 column "),
    ])
    def test_a_summary(self, generated, capsys, change, message):
        config_path, targets_path, out_dir = generated
        summary_path = out_dir / "summary.json"
        summary = change(json.loads(summary_path.read_text()))
        summary_path.write_text(summary if isinstance(summary, str) else json.dumps(summary))
        code, out, err = run_cli(["validate", "--config", str(config_path),
                                  "--targets", str(targets_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {summary_path}{message}")

    def test_a_manifest_that_is_not_utf8(self, generated, capsys):
        config_path, targets_path, out_dir = generated
        manifest = out_dir / "manifest.jsonl"
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
        code, out, err = run_cli(["validate", "--config", str(config_path),
                                  "--targets", str(targets_path)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {manifest}: 'utf-8' codec can't decode "
                       f"byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("change, message", [
        (without("prompt"), " missing fields: ['prompt']"),
        (lambda row: {**row, "prompt": None}, ": prompt must be str, got None"),
        (lambda row: {**row, "chunk_id": 0}, ": chunk_id must be str, got 0"),
        (lambda row: {**row, "error": 3}, ": error must be str | None, got 3"),
        (lambda row: [row], " must hold a JSON object"),
    ])
    def test_a_prompts_row_read_by_export_sft(self, generated, tmp_path, capsys,
                                              change, message):
        config_path, _, out_dir = generated
        prompts = out_dir / "prompts.jsonl"
        rewrite_first_row(prompts, change)
        code, out, err = run_cli(["export-sft", "--config", str(config_path),
                                  "--out", str(tmp_path / "sft.jsonl")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {prompts} line 1{message}\n"

    @pytest.mark.parametrize("text, message", [
        ('{"coupled_mutants": []}',
         ": coupled_mutants must be dict[str, list[str]], got []"),
        ("{}", ": coupled_mutants must be dict[str, list[str]], got None"),
        ('{"coupled_mutants": {"Clamp-1": [1]}}',
         ": coupled_mutants must be dict[str, list[str]], got {'Clamp-1': [1]}"),
        ("[]", " must be dict, got []"),
        ('{"coupled_mutants": {}', " is not JSON: Expecting ',' delimiter: "
                                   "line 1 column 23 (char 22)"),
    ])
    def test_an_effectiveness_report_read_by_export_sft(self, generated, tmp_path,
                                                        capsys, text, message):
        config_path, _, out_dir = generated
        effectiveness = out_dir / "report" / "effectiveness.json"
        effectiveness.parent.mkdir()
        effectiveness.write_text(text)
        code, out, err = run_cli(["export-sft", "--config", str(config_path),
                                  "--out", str(tmp_path / "sft.jsonl")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {effectiveness}{message}\n"

    @pytest.mark.parametrize("change, message", [
        (truncated, " is not JSON: Expecting ',' delimiter"),
        (lambda row: [row], " must hold a JSON object"),
        (without("method"), " missing fields: ['method']"),
        (lambda row: {**row, "bug_id": 1.5}, ": bug_id must be str, got 1.5"),
        (lambda row: {**row, "method": True}, ": method must be str, got True"),
        (lambda row: {**row, "faulty_lines": [1.5]},
         ": faulty_lines must be tuple[int, ...], got (1.5,)"),
    ])
    def test_a_targets_row_read_by_generate(self, generated, capsys, change, message):
        config_path, targets_path, _ = generated
        rewrite_first_row(targets_path, change)
        code, out, err = run_cli(["generate", "--config", str(config_path),
                                  "--targets", str(targets_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {targets_path} line 1{message}\n"

    @pytest.mark.parametrize("change, message", [
        (truncated, " is not JSON: Expecting ',' delimiter"),
        (lambda row: [row], " must hold a JSON object"),
        (lambda row: 5, " must hold a JSON object"),
        (without("response_text"), " missing fields: ['response_text']"),
        (lambda row: {"prompt_digest": "abc"},
         " missing fields: ['response_text', 'prompt_tokens', 'completion_tokens']"),
        (lambda row: {**row, "prompt_digest": 5}, ": prompt_digest must be str, got 5"),
        (lambda row: {**row, "response_text": 5}, ": response_text must be str, got 5"),
        (lambda row: {**row, "prompt_tokens": "many"},
         ": prompt_tokens must be int, got 'many'"),
        (lambda row: {**row, "prompt_tokens": 1.5}, ": prompt_tokens must be int, got 1.5"),
        (lambda row: {**row, "prompt_tokens": True},
         ": prompt_tokens must be int, got True"),
        (lambda row: {**row, "completion_tokens": True},
         ": completion_tokens must be int, got True"),
    ])
    def test_a_mock_script_row_read_by_generate(self, generated, tmp_path, capsys,
                                                change, message):
        config_path, targets_path, _ = generated
        script = tmp_path / "script.jsonl"
        rewrite_first_row(script, change)
        code, out, err = run_cli(["generate", "--config", str(config_path),
                                  "--targets", str(targets_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {script} line 1{message}\n"


def test_entry_point_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# Every flag that overrides a config field, unset and then set.
CONFIG_UNSET = {
    "config": None, "corpus": None, "index": None, "output_dir": None,
    "metric": None, "key_side": None, "dimension": None, "mode": None,
    "retrieval_n": None, "no_retrieval": False, "no_chunking": False,
    "compile_command": None, "test_command": None, "workers": None,
    "seed": None, "sample_targets": None, "hyb_weight": None,
}
CONFIG_ARGV = [
    "--config", "c.json", "--corpus", "k.jsonl", "--index", "x.idx",
    "--output-dir", "o", "--metric", "cosine", "--key-side", "pre_fix",
    "--dimension", "64", "--mode", "buggy", "--retrieval-n", "3",
    "--no-retrieval", "--no-chunking", "--compile-command", "cc {source}",
    "--test-command", "tc {source}", "--workers", "2", "--seed", "9",
    "--sample-targets", "4", "--hyb-weight", "0.25",
]
CONFIG_SET = {
    "config": "c.json", "corpus": "k.jsonl", "index": "x.idx",
    "output_dir": "o", "metric": "cosine", "key_side": "pre_fix",
    "dimension": 64, "mode": "buggy", "retrieval_n": 3, "no_retrieval": True,
    "no_chunking": True, "compile_command": "cc {source}",
    "test_command": "tc {source}", "workers": 2, "seed": 9,
    "sample_targets": 4, "hyb_weight": 0.25,
}
EVALUATE_OWN = {"targets": "t.jsonl", "artifacts": None, "report_dir": None}
SUBCOMMAND_NAMESPACES = [
    (["ingest"], True, {"command": "ingest"}),
    (["rag", "build"], True, {"command": "rag", "rag_command": "build"}),
    (["rag", "query", "--code", "x"], True,
     {"command": "rag", "rag_command": "query", "code": "x", "code_file": None,
      "n": None}),
    (["generate", "--targets", "t.jsonl"], True,
     {"command": "generate", "targets": "t.jsonl"}),
    (["validate", "--targets", "t.jsonl"], True,
     {"command": "validate", **EVALUATE_OWN}),
    (["execute", "--targets", "t.jsonl"], True,
     {"command": "execute", **EVALUATE_OWN}),
    (["report", "--targets", "t.jsonl"], True,
     {"command": "report", **EVALUATE_OWN}),
    (["export-sft", "--out", "s.jsonl"], True,
     {"command": "export-sft", "artifacts": None, "report_dir": None,
      "out": "s.jsonl", "grouped": False, "exclude_projects": ()}),
    (["chunk", "m.java"], False, {"command": "chunk", "source": "m.java"}),
    (["metrics", "--matrices", "m", "--revealing", "r.json"], False,
     {"command": "metrics", "matrices": "m", "revealing": "r.json", "out": None}),
    (["tcp", "--matrix", "b.matrix", "--detection", "d.json"], False,
     {"command": "tcp", "matrix": "b.matrix", "detection": "d.json",
      "weight": 0.5, "out": None}),
    (["mbfl", "--matrices", "m", "--statements", "s.json", "--faulty", "f.json"],
     False, {"command": "mbfl", "matrices": "m", "statements": "s.json",
             "faulty": "f.json", "statement_space": None, "out": None}),
]


@pytest.mark.parametrize("argv, takes_config, own", SUBCOMMAND_NAMESPACES,
                         ids=[" ".join(case[0][:2]) for case in SUBCOMMAND_NAMESPACES])
def test_every_subcommand_parses_to_its_namespace(argv, takes_config, own):
    def parsed(extra):
        namespace = vars(build_parser().parse_args(argv + extra))
        assert callable(namespace.pop("handler"))
        return namespace

    config = CONFIG_UNSET if takes_config else {}
    assert parsed([]) == {"verbose": False, **own, **config}
    if takes_config:
        assert parsed(CONFIG_ARGV) == {"verbose": False, **own, **CONFIG_SET}
    else:
        with pytest.raises(SystemExit):
            parsed(["--workers", "2"])


class TestRepeatedMain:
    """main builds its parser once per process; one call leaks nothing into
    the next, and each call runs the cmd_* function the module holds then."""

    @staticmethod
    def analysis_argvs(tmp_path):
        matrices = write_analysis_inputs(tmp_path, seed=29)
        revealing = str(tmp_path / "revealing.json")
        tcp = ["tcp", "--matrix", str(matrices / "G-1.matrix"), "--detection", revealing]
        return [tcp, ["metrics", "--matrices", str(matrices), "--revealing", revealing],
                tcp + ["--weight", "0.3"]]

    def test_calls_in_one_process_print_what_each_prints_alone(self, tmp_path, capsys):
        argvs = self.analysis_argvs(tmp_path)
        together = []
        for argv in argvs:
            code, out, err = run_cli(argv, capsys)
            assert code == 0 and err == "", err
            together.append(out)
        assert together[0] != together[2]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv, out in zip(argvs, together):
            alone = subprocess.run([sys.executable, "-m", "mutkit.cli", *argv],
                                   capture_output=True, env=env, check=True)
            assert alone.stdout == out.encode("utf-8")

    def test_a_handler_rebound_after_the_first_call_runs(self, tmp_path, capsys,
                                                        monkeypatch):
        tcp = self.analysis_argvs(tmp_path)[0]
        assert run_cli(tcp, capsys)[0] == 0
        seen = []

        def fake_tcp(args):
            seen.append((args.command, args.weight))
            return 7

        monkeypatch.setattr(cli, "cmd_tcp", fake_tcp)
        assert run_cli(tcp + ["--weight", "0.25"], capsys) == (7, "", "")
        assert seen == [("tcp", 0.25)]

    @pytest.mark.parametrize("flags", [["", "-v", ""], ["-v", "", "-v"]])
    def test_each_call_logs_at_its_own_level(self, tmp_path, capsys, flags):
        source = tmp_path / "m.java"
        source.write_text(CLAMP_FIXED, encoding="utf-8")
        root = logging.getLogger()
        saved = root.level
        try:
            levels = []
            for flag in flags:
                assert run_cli([flag, "chunk", str(source)] if flag
                               else ["chunk", str(source)], capsys)[0] == 0
                levels.append(root.level)
        finally:
            root.setLevel(saved)
        assert levels == [logging.INFO if flag else logging.WARNING for flag in flags]
