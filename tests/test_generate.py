"""Tests for the generate stage: the backend it builds, its accounting
and artifacts, and retrieval."""

import hashlib
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from mutkit.config import (
    PipelineConfig,
    PipelineError,
    TargetSpec,
    load_mutants,
    read_generation,
)
from mutkit.generate import make_backend, run_generate
from mutkit.llm import BackendConfig, HttpChatBackend, MockBackend
from test_pipeline import (
    CLAMP_FIXED,
    SUM_BUGGY,
    SUM_FIXED,
    build_index_file,
    craft_response,
    read_tree,
    requested_chunk,
    script_backend,
    scripted_generate,
    write_corpus,
)


class TestMakeBackend:
    def test_mock_default(self):
        backend = make_backend(PipelineConfig())
        assert isinstance(backend, MockBackend)

    def test_mock_rejects_unknown_keys(self):
        config = PipelineConfig(backend={"mode": "mock", "script": None,
                                         "temperature": 0.2})
        with pytest.raises(PipelineError, match="unknown mock backend keys"):
            make_backend(config)

    @pytest.mark.parametrize("key, value", [("script", {}), ("record", 5)])
    def test_mock_paths_of_the_wrong_type_rejected(self, key, value):
        config = PipelineConfig(backend={"mode": "mock", key: value})
        with pytest.raises(PipelineError, match=f"^mock backend {key} must be"):
            make_backend(config)

    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError, match="mock or http"):
            make_backend(PipelineConfig(backend={"mode": "grpc"}))

    def test_http_backend_built(self):
        config = PipelineConfig(backend={
            "mode": "http", "endpoint": "http://localhost:1", "model": "m"})
        backend = make_backend(config)
        assert backend.config.model == "m"

    def test_http_concurrency_key_rejected(self):
        config = PipelineConfig(backend={"mode": "http", "concurrency": 8})
        with pytest.raises(PipelineError, match="bad http backend settings"):
            make_backend(config)

    @pytest.mark.parametrize("key, value", [
        ("backoff_base", "0.5"),
        ("timeout", "30"),
        ("temperature", "hot"),
        ("endpoint", 5),
        ("max_retries", "3"),
        ("max_tokens", 1.5),
        ("api_key_env", None),
    ])
    def test_http_settings_of_the_wrong_type_rejected(self, key, value):
        config = PipelineConfig(backend={
            "mode": "http", "endpoint": "http://localhost:1", key: value})
        with pytest.raises(PipelineError) as caught:
            make_backend(config)
        hint = typing.get_type_hints(BackendConfig)[key]
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        assert str(caught.value) == (
            f"bad http backend settings: {key} must be {name}, got {value!r}")

    def test_http_settings_of_the_right_type_accepted(self):
        backend = make_backend(PipelineConfig(backend={
            "mode": "http", "endpoint": "http://localhost:1", "backoff_base": 1,
            "timeout": 5, "temperature": None, "max_tokens": 64}))
        assert (backend.config.backoff_base, backend.config.max_tokens) == (1, 64)


class TestRunGenerate:
    def fixed_config(self, tmp_path, **kwargs) -> PipelineConfig:
        corpus_path = tmp_path / "corpus.jsonl"
        index_path = tmp_path / "corpus.index"
        write_corpus(corpus_path)
        build_index_file(corpus_path, index_path)
        defaults = {"corpus": str(corpus_path), "index": str(index_path),
                    "output_dir": str(tmp_path / "out"), "dimension": 64}
        defaults.update(kwargs)
        return PipelineConfig(**defaults)

    def test_generate_accounting_and_artifacts(self, tmp_path):
        config = self.fixed_config(tmp_path)
        targets = [
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED, project="Alpha",
                       bug_revealing_tests=("t_above",)),
            TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                       buggy_method=SUM_BUGGY),
        ]
        outcome = scripted_generate(config, targets, tmp_path)
        assert outcome.succeeded == 2
        assert outcome.failed == 0

        clamp = outcome.summary["targets"]["Clamp-1"]
        assert clamp["expected"] == 7
        assert clamp["chunks"] == 3
        assert clamp["prompts_total"] == 3
        assert clamp["prompts_completed"] == 3
        assert clamp["pairs_parsed"] == 7
        assert clamp["pairs_dropped"] == 3
        assert clamp["materialized"] == 6
        assert clamp["rejected"] == 1
        assert clamp["errors"] == []

        totals = outcome.summary["totals"]
        assert totals["targets"] == 2
        assert totals["pairs_parsed"] == 11
        assert totals["usage"]["prompt_tokens"] == 11 * 6

        out_dir = Path(config.output_dir)
        assert (out_dir / "manifest.jsonl").exists()
        assert (out_dir / "prompts.jsonl").exists()
        assert (out_dir / "summary.json").exists()
        assert sorted(p.name for p in (out_dir / "mutants").iterdir()) == sorted(
            f"{mid}.java" for mid in outcome.mutants)

        manifest = [json.loads(line) for line in
                    (out_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
        rejected = [row for row in manifest if row["rejection"]]
        assert [row["mutant_id"] for row in rejected] == ["Clamp-1-c01-m005"]
        assert rejected[0]["rejection"] == "out-of-chunk"

    def test_a_crlf_target_s_mutants_load_back_as_generated(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED.replace("\n", "\r\n"))]
        outcome = scripted_generate(config, targets, tmp_path)
        assert outcome.mutants
        assert all("\r\n" in mutant.source for mutant in outcome.mutants.values())
        loaded = load_mutants(Path(config.output_dir),
                              read_generation(Path(config.output_dir))[1])
        assert ({mutant_id: mutant.source for mutant_id, mutant in loaded.items()}
                == {mutant_id: mutant.source for mutant_id, mutant in outcome.mutants.items()})

    def test_a_crlf_target_s_mutants_change_only_their_line_and_keep_its_ending(
            self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False)
        method = CLAMP_FIXED.replace("\n", "\r\n")
        outcome = scripted_generate(config, [TargetSpec(bug_id="Clamp-1", method=method)],
                                    tmp_path)
        original = method.split("\n")
        assert outcome.mutants
        for mutant in outcome.mutants.values():
            lines = mutant.source.split("\n")
            assert [n for n, line in enumerate(lines, 1)
                    if n > len(original) or line != original[n - 1]] == [mutant.target_line]
            assert [line.endswith("\r") for line in lines] == [
                line.endswith("\r") for line in original]
            assert mutant.original_line_text.endswith("\r") \
                == mutant.mutated_line_text.endswith("\r")

    def test_generate_retrieval_examples_recorded(self, tmp_path):
        config = self.fixed_config(tmp_path, retrieval_n=4)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        outcome = scripted_generate(config, targets, tmp_path)
        for row in outcome.prompts:
            assert len(row["examples"]) == 4
            assert all(e.startswith("pair-") for e in row["examples"])
            assert "[Few-Shot Examples]" in row["prompt"]

    def test_generate_without_retrieval_or_chunking(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, chunking=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        outcome = scripted_generate(config, targets, tmp_path)
        assert outcome.succeeded == 1
        clamp = outcome.summary["targets"]["Clamp-1"]
        assert clamp["chunks"] == 1
        assert clamp["prompts_total"] == 1
        ids = sorted(outcome.mutants)
        assert all(mid.startswith("Clamp-1-c00-m") for mid in ids)

    def test_generate_isolates_unparseable_target(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False)
        targets = [
            TargetSpec(bug_id="Bad-1", method="int x = ;;;"),
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED),
        ]
        outcome = scripted_generate(config, targets, tmp_path)
        assert outcome.succeeded == 1
        assert outcome.failed == 1
        bad = outcome.summary["targets"]["Bad-1"]
        assert bad["errors"] and bad["errors"][0].startswith("parse:")

    def test_a_null_reply_content_fails_its_prompt_not_the_run(self, tmp_path):
        def transport(url, payload, headers, timeout):
            return 200, json.dumps({"choices": [{"message": {"content": None}}]})

        backend = HttpChatBackend(BackendConfig(endpoint="http://llm/v1/chat"),
                                  transport=transport)
        config = self.fixed_config(tmp_path)
        outcome = run_generate(config, [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)],
                               backend=backend)
        assert (outcome.succeeded, outcome.failed) == (0, 1)
        assert outcome.prompts and all(
            row["error"].startswith("malformed server reply: message content is None")
            for row in outcome.prompts)

    def test_malformed_replies_are_parse_failures_not_crashes(self, tmp_path):
        # One reply per Clamp-1 chunk, each failing parse_response differently.
        malformed = {"clamp(int value)": "mutants below, but no tags",
                     "int limit = 10;": '<json>[{"precode": </json>',
                     "return value;": '<json>{"precode": "return value;"}</json>'}

        def respond(prompt):
            chunk = requested_chunk(prompt)
            return next((reply for line, reply in malformed.items() if line in chunk),
                        None) or craft_response(prompt)

        config = self.fixed_config(tmp_path)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED),
                   TargetSpec(bug_id="Sum-1", method=SUM_FIXED)]
        outcome = scripted_generate(config, targets, tmp_path, respond=respond)
        clamp = outcome.summary["targets"]["Clamp-1"]
        assert (clamp["prompts_completed"], clamp["parse_failures"]) == (3, 3)
        assert (clamp["pairs_parsed"], clamp["materialized"], clamp["errors"]) == (0, 0, [])
        assert outcome.summary["targets"]["Sum-1"]["parse_failures"] == 0
        assert outcome.summary["targets"]["Sum-1"]["materialized"] > 0
        assert (outcome.succeeded, outcome.failed) == (2, 0)
        assert not any(mutant_id.startswith("Clamp-1") for mutant_id in outcome.mutants)

        first = read_tree(Path(config.output_dir))
        run_generate(config, targets,
                     backend=script_backend(tmp_path / "script.jsonl"))
        assert read_tree(Path(config.output_dir)) == first

    def test_generate_is_deterministic(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        index_path = tmp_path / "corpus.index"
        write_corpus(corpus_path)
        build_index_file(corpus_path, index_path)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                              bug_revealing_tests=("t_above",))]
        trees = []
        for name in ("one", "two"):
            config = PipelineConfig(corpus=str(corpus_path),
                                    index=str(index_path), dimension=64,
                                    output_dir=str(tmp_path / name))
            aux = tmp_path / f"aux-{name}"
            aux.mkdir()
            scripted_generate(config, targets, aux)
            trees.append(read_tree(Path(config.output_dir)))
        assert trees[0] == trees[1]


def write_tied_corpus(path: Path) -> None:
    """The 20-pair corpus plus identical twins of two records (tied scores
    under every metric) and one multi-hunk record that ingest skips."""
    write_corpus(path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for source in (records[1], records[13]):
        records.append({**source, "id": source["id"].replace("pair", "twin")})
    records.append({"id": "multi-000", "project": "Lang",
                    "pre_fix_code": "int a = 1;\nint b = 2;\nint c = 3;",
                    "post_fix_code": "int a = 9;\nint b = 2;\nint c = 9;"})
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def generation_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each generation artifact, and of the sorted mutants tree."""
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ("prompts.jsonl", "manifest.jsonl", "summary.json")}
    tree = hashlib.sha256()
    for path in sorted((out_dir / "mutants").iterdir()):
        tree.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    digests["mutants/"] = tree.hexdigest()
    return digests


class TestGenerateRetrieval:
    # Recorded before retrieval became one batched query over the chunks;
    # batching must not change a byte.
    GOLDEN = {
        "prompts.jsonl":
            "c1b109617e632f29802e7e2cbf29daa7889f76a8a86857610a23b430730b6533",
        "manifest.jsonl":
            "549dd163e416cb6fa6f03a06f07d20aa44c9f09ee7a8110885c5f17ff546a8b8",
        "summary.json":
            "c004237c8714c5e344802fb4d21ebee1799f21cd0e22162840b458880e65bb9b",
        "mutants/":
            "89e243aed85459a13ebbf9d10cafd43fc9bd334f0ad390297c6a69ebe388763e",
    }

    def config(self, tmp_path, **kwargs) -> PipelineConfig:
        corpus_path = tmp_path / "corpus.jsonl"
        index_path = tmp_path / "corpus.index"
        write_tied_corpus(corpus_path)
        build_index_file(corpus_path, index_path)
        return PipelineConfig(corpus=str(corpus_path), index=str(index_path),
                              dimension=64, retrieval_n=6,
                              output_dir=str(tmp_path / "out"), **kwargs)

    def targets(self) -> list[TargetSpec]:
        return [
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED, project="Alpha",
                       bug_revealing_tests=("t_above",)),
            TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                       buggy_method=SUM_BUGGY),
        ]

    def test_the_fixture_index_ties_across_the_cut(self, tmp_path):
        from mutkit.chunker import chunk_method, parse_method
        from mutkit.embedder import LexicalEmbedder, VectorIndex

        config = self.config(tmp_path)
        index = VectorIndex.load(config.index)
        assert "multi-000" not in index.ids
        chunk = chunk_method(parse_method(CLAMP_FIXED))[0]
        probe = LexicalEmbedder(dimension=64).embed(chunk.text)
        ranked = index.query(probe, n=8)
        assert ranked[0][1] == ranked[1][1] and ranked[1][0] == "twin-001"
        assert ranked[5][1] == ranked[6][1]

    def test_artifacts_match_the_golden_digests(self, tmp_path):
        config = self.config(tmp_path)
        outcome = scripted_generate(config, self.targets(), tmp_path)
        assert outcome.succeeded == 2
        assert generation_digests(Path(config.output_dir)) == self.GOLDEN

    def rewrite_corpus(self, config, change) -> None:
        """Apply ``change`` (id -> record or None to drop) after the index build."""
        path = Path(config.corpus)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        kept = [change(record) for record in records]
        path.write_text("".join(json.dumps(record) + "\n" for record in kept if record),
                        encoding="utf-8")

    def assert_pair_001_failed_its_chunks(self, outcome, message):
        # pair-001 is among the six neighbours of every chunk but Sum-1/c01.
        assert outcome.summary["targets"]["Clamp-1"]["errors"] == [
            f"retrieval c0{i}: {message}" for i in range(3)]
        assert outcome.summary["targets"]["Sum-1"]["errors"] == [
            f"retrieval c00: {message}", f"retrieval c02: {message}"]
        assert (outcome.succeeded, outcome.failed) == (0, 2)
        assert [row["prompt_id"] for row in outcome.prompts] == ["Sum-1/c01"]
        assert outcome.prompts[0]["error"] is None
        assert "pair-001" not in outcome.prompts[0]["examples"]

    def test_an_index_id_the_corpus_lost_is_a_recorded_error(self, tmp_path):
        config = self.config(tmp_path)
        self.rewrite_corpus(config, lambda record: None if record["id"].endswith("-001")
                            else record)
        outcome = scripted_generate(config, self.targets(), tmp_path)
        self.assert_pair_001_failed_its_chunks(
            outcome, "index entry 'pair-001' is not in the corpus")

    def test_an_index_id_no_longer_single_hunk_is_a_recorded_error(self, tmp_path):
        config = self.config(tmp_path)

        def two_hunks(record):
            if record["id"] == "pair-001":
                record["pre_fix_code"] = "// old\n" + record["pre_fix_code"]
            return record

        self.rewrite_corpus(config, two_hunks)
        outcome = scripted_generate(config, self.targets(), tmp_path)
        self.assert_pair_001_failed_its_chunks(
            outcome, "corpus record 'pair-001' is not single-hunk: multi-hunk edit (2 regions)")

    def test_a_chunk_that_cannot_be_embedded_sends_no_prompt(self, tmp_path, monkeypatch):
        from mutkit.embedder import EmbeddingError, LexicalEmbedder

        real_embed_many = LexicalEmbedder.embed_many

        def embed_many(self, texts):
            if any("return limit;" in text for text in texts):
                raise EmbeddingError("cannot embed this chunk")
            return real_embed_many(self, texts)

        monkeypatch.setattr(LexicalEmbedder, "embed_many", embed_many)
        outcome = run_generate(self.config(tmp_path), self.targets(),
                               backend=MockBackend({}, record_path=str(tmp_path / "r.jsonl")))
        # All chunks are embedded together, so the one error fails them all.
        for bug_id in ("Clamp-1", "Sum-1"):
            assert outcome.summary["targets"][bug_id]["errors"] == [
                f"retrieval c0{i}: cannot embed this chunk" for i in range(3)]
        assert outcome.prompts == []
        assert (outcome.succeeded, outcome.failed) == (0, 2)

    def test_no_embeddable_chunk_sends_no_prompt(self, tmp_path, monkeypatch):
        from mutkit.embedder import EmbeddingError, LexicalEmbedder, VectorIndex

        def embed_many(self, texts):
            raise EmbeddingError("cannot embed")

        def query_many(self, probes, n):
            raise AssertionError("queried without probes")

        config = self.config(tmp_path)
        monkeypatch.setattr(LexicalEmbedder, "embed_many", embed_many)
        monkeypatch.setattr(VectorIndex, "query_many", query_many)
        outcome = run_generate(config, self.targets(),
                               backend=MockBackend({}, record_path=str(tmp_path / "r.jsonl")))
        assert outcome.summary["targets"]["Sum-1"]["errors"] == [
            f"retrieval c0{i}: cannot embed" for i in range(3)]
        assert outcome.prompts == [] and outcome.failed == 2
        assert not (tmp_path / "r.jsonl").exists()

    def test_a_blank_line_chunk_gets_the_prompt_it_gets_without_retrieval(self, tmp_path):
        method = CLAMP_FIXED.replace("int limit = 10;\n", "int limit = 10;\n\n")
        targets = [TargetSpec(bug_id="Clamp-1", method=method)]
        with_retrieval = scripted_generate(self.config(tmp_path), targets, tmp_path)
        assert with_retrieval.summary["targets"]["Clamp-1"]["errors"] == []
        assert with_retrieval.succeeded == 1
        blank = next(row for row in with_retrieval.prompts
                     if row["prompt_id"] == "Clamp-1/c02")
        assert blank["examples"] == [] and blank["error"] is None

        plain = tmp_path / "plain"
        plain.mkdir()
        config = PipelineConfig(output_dir=str(plain / "out"), retrieval=False)
        without = run_generate(config, targets,
                               backend=MockBackend({}, record_path=str(plain / "r.jsonl")))
        assert blank["prompt"] == next(row["prompt"] for row in without.prompts
                                       if row["prompt_id"] == "Clamp-1/c02")

    # Today a blank line is a chunk of its own, and generate sends it a
    # prompt whose replies cannot materialize; a change to that decision
    # changes this digest and goes into CHANGES.md.
    BLANK_CHUNK_DIGEST = "47e5c19557a49c9d577fb42ffac54a99e72862bc3518bc98af293a982e96b119"

    def test_a_blank_line_chunk_is_still_prompted_and_retrieves_nothing(self, tmp_path):
        from mutkit.chunker import chunk_method, parse_method

        method = CLAMP_FIXED.replace("int limit = 10;\n", "int limit = 10;\n\n")
        blank = chunk_method(parse_method(method))[2]
        assert (blank.text, blank.line_numbers) == ("", (3,))
        record = tmp_path / "r.jsonl"
        outcome = run_generate(self.config(tmp_path),
                               [TargetSpec(bug_id="Clamp-1", method=method)],
                               backend=MockBackend({}, record_path=str(record)))
        row = next(row for row in outcome.prompts if row["chunk_id"] == "c02")
        assert (row["n"], row["digest"], row["examples"]) == (
            1, self.BLANK_CHUNK_DIGEST, [])
        assert "Only mutate these lines: \n\n" in row["prompt"]
        sent = [json.loads(line)["prompt_digest"] for line in record.read_text().splitlines()]
        assert self.BLANK_CHUNK_DIGEST in sent and len(sent) == len(outcome.prompts) == 4

    def test_a_failed_query_fails_every_chunk(self, tmp_path):
        from mutkit.embedder import VectorIndex

        config = self.config(tmp_path)
        VectorIndex(["pair-000"], np.ones((1, 8), dtype=np.float32),
                    backend_id="lexical-trigram-64").save(config.index)
        outcome = run_generate(config, self.targets(),
                               backend=MockBackend({}, record_path=str(tmp_path / "r.jsonl")))
        message = "probe dimension (64,) does not match index (8)"
        assert outcome.summary["targets"]["Clamp-1"]["errors"] == [
            f"retrieval c0{i}: {message}" for i in range(3)]
        assert outcome.prompts == []

    def test_only_retrieved_records_are_diffed_in_one_query(self, tmp_path, monkeypatch):
        from mutkit import corpus
        from mutkit.embedder import VectorIndex

        config = self.config(tmp_path)
        diffs, queries = [], []
        real_diff, real_query_many = corpus.diff_hunk, VectorIndex.query_many

        def counting_diff(pre, post):
            diffs.append(pre)
            return real_diff(pre, post)

        def counting_query_many(self, probes, n):
            probes = list(probes)
            queries.append(len(probes))
            return real_query_many(self, probes, n)

        monkeypatch.setattr(corpus, "diff_hunk", counting_diff)
        monkeypatch.setattr(VectorIndex, "query_many", counting_query_many)
        outcome = run_generate(config, self.targets(),
                               backend=MockBackend({}, record_path=str(tmp_path / "r.jsonl")))
        retrieved = {pair_id for row in outcome.prompts for pair_id in row["examples"]}
        assert queries == [6]  # one call for the six chunks of both targets
        assert len(diffs) == len(retrieved) < 23
