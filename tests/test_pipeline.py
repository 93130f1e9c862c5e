"""Tests for the pipeline orchestration layer.

The end-to-end cases run fully offline: a scripted mock backend answers
the prompts and a toy runner (tests/toyrunner.py) interprets the Java-ish
sources so mutants genuinely pass or fail the emulated suites.
"""

import hashlib
import json
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit import pipeline
from mutkit.llm import BackendConfig, HttpChatBackend, MockBackend, write_mock_script
from mutkit.pipeline import (
    GenerateOutcome,
    PipelineConfig,
    PipelineError,
    TargetSpec,
    load_config,
    load_targets,
    make_backend,
    pick_targets,
    read_generation,
    run_evaluate,
    run_generate,
)
from oracles import oracle_has_type

RUNNER = Path(__file__).parent / "toyrunner.py"
TEST_COMMAND = f"{sys.executable} {RUNNER} {{source}}"
COMPILE_COMMAND = f"{sys.executable} {RUNNER} --check {{source}}"

CLAMP_FIXED = """public static int clamp(int value) {
    int limit = 10;
    if (value > limit) {
        return limit;
    }
    return value;
}"""

SUM_FIXED = """public static int sumTo(int n) {
    int total = 0;
    for (int i = 1; i <= n; i++) {
        total += i;
    }
    return total;
}"""

SUM_BUGGY = """public static int sumTo(int n) {
    int total = 1;
    for (int i = 1; i <= n; i++) {
        total += i;
    }
    return total;
}"""

# The buggy sumTo again, in lines the mutation table has no entry for.
SUM_BUGGY_UNMUTATED = """public static int sumTo(int n) {
    int sum = 1;
    for (int k = 1; k <= n; k++) {
        sum += k;
    }
    return sum;
}"""

MUTATION_TABLE = {
    "int limit = 10;": ["int limit = 11;", "int limit = 11;", "int limit = @@;"],
    "if (value > limit) {": ["if (value >= limit) {"],
    "return limit;": ["return value;"],
    "return value;": ["return limit;"],
    "int total = 0;": ["int total = 1;"],
    "int total = 1;": ["int total = 0;"],
    "for (int i = 1; i <= n; i++) {": ["for (int i = 1; i < n; i++) {"],
    "total += i;": ["total += 2;"],
    "return total;": ["return 0;"],
}


def requested_chunk(prompt: str) -> str:
    marker = "Only mutate these lines: "
    start = prompt.index(marker) + len(marker)
    return prompt[start:prompt.index("\n\n[Few-Shot Examples]")]


def craft_response(prompt: str) -> str:
    """Reply to one prompt the way the e2e fixtures expect.

    Proposes the table's mutations for every line of the requested chunk,
    always appends one schema-violating object, and, for the chunk holding
    the clamp limit, one pair whose precode lives outside the chunk.
    """
    chunk_text = requested_chunk(prompt)
    objects = []
    for line in chunk_text.split("\n"):
        for aftercode in MUTATION_TABLE.get(line.strip(), ()):
            objects.append({"precode": line.strip(), "aftercode": aftercode})
    objects.append({"precode": 42})
    if "int limit = 10;" in chunk_text:
        objects.append({"precode": "return value;", "aftercode": "return 0;"})
    return "<json>" + json.dumps(objects) + "</json>"


def write_corpus(path: Path, pairs: int = 20) -> None:
    projects = ("Lang", "Math", "Chart", "Time")
    records = []
    for i in range(pairs):
        fixed = (f"public static int scale{i}(int x) {{\n"
                 f"    int factor = {i + 2};\n"
                 f"    return x * factor;\n"
                 f"}}")
        buggy = fixed.replace(f"int factor = {i + 2};", f"int factor = {i + 3};")
        records.append({
            "id": f"pair-{i:03d}",
            "project": projects[i % len(projects)],
            "pre_fix_code": buggy,
            "post_fix_code": fixed,
        })
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def build_index_file(corpus_path: Path, index_path: Path,
                     dimension: int = 64) -> None:
    from mutkit.corpus import ingest_corpus
    from mutkit.embedder import LexicalEmbedder, build_index

    corpus = ingest_corpus(str(corpus_path))
    index = build_index(corpus.pairs, backend=LexicalEmbedder(dimension=dimension))
    index.save(str(index_path))


def scripted_generate(config: PipelineConfig,
                      targets: list[TargetSpec],
                      tmp_path: Path, respond=craft_response) -> GenerateOutcome:
    """Author the mock script in record mode (replies from ``respond``),
    then run for real."""
    record_path = tmp_path / "record.jsonl"
    recorder = MockBackend(record_path=str(record_path))
    first = run_generate(config, targets, backend=recorder)
    assert first.succeeded == 0
    records = []
    for line in record_path.read_text(encoding="utf-8").splitlines():
        item = json.loads(line)
        records.append({
            "prompt_digest": item["prompt_digest"],
            "response_text": respond(item["prompt"]),
            "prompt_tokens": 11,
            "completion_tokens": 7,
        })
    script_path = tmp_path / "script.jsonl"
    write_mock_script(records, str(script_path))
    return run_generate(config, targets, backend=MockBackend(script=str(script_path)))


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in read_tree(root).items()}


class TestPipelineConfig:
    def test_defaults_and_variant(self):
        config = PipelineConfig()
        assert config.retrieval_n == 6
        assert config.variant_label() == "rag+chunk"
        assert PipelineConfig(retrieval=False).variant_label() == "chunk"
        assert PipelineConfig(chunking=False).variant_label() == "rag"
        assert PipelineConfig(retrieval=False,
                              chunking=False).variant_label() == "plain"

    @pytest.mark.parametrize("kwargs", [
        {"retrieval_n": 0},
        {"metric": "manhattan"},
        {"key_side": "both"},
        {"mode": "patched"},
        {"workers": 0},
        {"dimension": 0},
        {"hyb_weight": 1.5},
        {"sample_targets": 0},
        {"timeout": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(PipelineError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"chunking": "false"},
        {"retrieval": 0},
        {"workers": 2.5},
        {"workers": True},
        {"retrieval_n": "3"},
        {"dimension": 64.0},
        {"hyb_weight": True},
        {"timeout": "30"},
        {"sample_targets": 1.5},
        {"corpus": 5},
        {"test_command": ["python", "run.py"]},
        {"backend": "mock"},
    ])
    def test_rejects_wrong_value_types(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(PipelineError, match=f"^{name} must be"):
            PipelineConfig(**kwargs)

    def test_ints_are_accepted_for_float_fields(self):
        config = PipelineConfig(timeout=5, hyb_weight=1, sample_targets=None)
        assert (config.timeout, config.hyb_weight) == (5, 1)

    def test_load_config_rejects_wrong_value_types(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"chunking": "false"}))
        with pytest.raises(PipelineError, match="chunking must be bool"):
            load_config(path)

    def test_load_config_merges_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"retrieval_n": 3, "mode": "buggy"}))
        config = load_config(path, overrides={"mode": "fixed", "seed": None})
        assert config.retrieval_n == 3
        assert config.mode == "fixed"
        assert config.seed == 0

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"retreival_n": 3}))
        with pytest.raises(PipelineError, match="unknown keys"):
            load_config(path)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(PipelineError, match="JSON object"):
            load_config(path)


class TestTargets:
    def test_load_targets_sorts_and_validates(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        rows = [
            {"bug_id": "B-2", "method": CLAMP_FIXED, "project": "Alpha"},
            {"bug_id": "B-1", "method": SUM_FIXED,
             "bug_revealing_tests": ["t_one"], "faulty_lines": [2]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        targets = load_targets(path)
        assert [t.bug_id for t in targets] == ["B-1", "B-2"]
        assert targets[0].bug_revealing_tests == ("t_one",)
        assert targets[0].faulty_lines == (2,)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_a_unicode_line_break_inside_a_method_is_kept(self, tmp_path, separator):
        method = CLAMP_FIXED.replace("int limit = 10;",
                                     f'String s = "a{separator}b"; int limit = 10;')
        rows = [{"bug_id": "B-1", "method": method},
                {"bug_id": "B-2", "method": SUM_FIXED}]
        path = tmp_path / "targets.jsonl"
        path.write_text("\n".join(json.dumps(row, ensure_ascii=False) for row in rows)
                        + "\n", encoding="utf-8")
        assert separator in path.read_text(encoding="utf-8")
        targets = load_targets(path)
        assert [(t.bug_id, t.method) for t in targets] == [
            ("B-1", method), ("B-2", SUM_FIXED)]

    def test_load_targets_rejects_duplicates(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        row = json.dumps({"bug_id": "B-1", "method": CLAMP_FIXED})
        path.write_text(row + "\n" + row)
        with pytest.raises(PipelineError, match="duplicate"):
            load_targets(path)

    def test_load_targets_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text(json.dumps({"bug_id": "B-1"}))
        with pytest.raises(PipelineError, match="bug_id and method"):
            load_targets(path)

    @pytest.mark.parametrize("field, value", [
        ("faulty_lines", ["x"]),
        ("faulty_lines", [True]),
        ("faulty_lines", [2.0]),
        ("faulty_lines", 2),
        ("bug_revealing_tests", "t1"),
        ("bug_revealing_tests", [1]),
        ("bug_id", 5),
        ("method", ["int x;"]),
        ("project", None),
        ("buggy_method", 3),
    ])
    def test_load_targets_rejects_wrong_value_types(self, tmp_path, field,
                                                    value):
        row = {"bug_id": "B-1", "method": CLAMP_FIXED, field: value}
        path = tmp_path / "targets.jsonl"
        path.write_text(json.dumps(row))
        with pytest.raises(PipelineError,
                           match=f"^targets line 1: {field} must be"):
            load_targets(path)

    def test_target_spec_rejects_wrong_value_types(self):
        with pytest.raises(PipelineError, match="faulty_lines must be"):
            TargetSpec(bug_id="B-1", method=CLAMP_FIXED, faulty_lines=("2",))

    def test_bad_bug_id_rejected(self):
        with pytest.raises(PipelineError, match="bug id"):
            TargetSpec(bug_id="has space", method=CLAMP_FIXED)

    def test_pick_targets_is_seeded_and_sorted(self):
        targets = [TargetSpec(bug_id=f"B-{i:02d}", method=CLAMP_FIXED)
                   for i in range(10)]
        config = PipelineConfig(sample_targets=4, seed=7)
        first = pick_targets(targets, config)
        second = pick_targets(list(reversed(targets)), config)
        assert [t.bug_id for t in first] == [t.bug_id for t in second]
        assert len(first) == 4
        assert [t.bug_id for t in first] == sorted(t.bug_id for t in first)
        other = pick_targets(targets, PipelineConfig(sample_targets=4, seed=8))
        assert {t.bug_id for t in other} != {t.bug_id for t in first} or True
        assert len(other) == 4


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


# Every hint the product checks values against.
CHECKED_HINTS = (str, int, float, bool, dict, str | None, int | None,
                 float | None, list[str], list[int], dict[str, int],
                 tuple[str, ...], tuple[int, ...])

_LEAVES = (st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
JSON_LIKE = st.one_of(
    *_LEAVES,
    st.recursive(st.one_of(_LEAVES), lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=2), children, max_size=4)), max_leaves=12),
    # Containers of one leaf type, so the sequence hints also accept.
    *(st.lists(leaf, max_size=5) for leaf in _LEAVES),
    *(st.lists(leaf, max_size=5).map(tuple) for leaf in _LEAVES),
    *(st.dictionaries(st.text(max_size=2), leaf, max_size=5) for leaf in _LEAVES))


class TestTypeCheck:
    def test_the_hint_list_covers_every_checked_dataclass_field(self):
        for cls in (PipelineConfig, TargetSpec, BackendConfig):
            assert set(typing.get_type_hints(cls).values()) <= set(CHECKED_HINTS)

    @settings(max_examples=400, deadline=None)
    @given(value=JSON_LIKE)
    def test_the_built_checker_agrees_with_the_oracle(self, value):
        for hint in CHECKED_HINTS:
            assert pipeline._type_check(hint)(value) == oracle_has_type(value, hint), hint

    def test_field_hints_are_resolved_once_per_class(self, monkeypatch):
        PipelineConfig()
        TargetSpec(bug_id="B-1", method=CLAMP_FIXED)

        def resolve_again(cls):
            raise AssertionError(f"hints of {cls.__name__} resolved again")

        monkeypatch.setattr(pipeline.typing, "get_type_hints", resolve_again)
        PipelineConfig(workers=2)
        TargetSpec(bug_id="B-2", method=CLAMP_FIXED)
        with pytest.raises(PipelineError, match="^workers must be int, got '2'$"):
            PipelineConfig(workers="2")


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
                     backend=MockBackend(script=str(tmp_path / "script.jsonl")))
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


class TestReadGeneration:
    @pytest.fixture
    def generated(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        return Path(config.output_dir), scripted_generate(config, targets, tmp_path)

    def test_the_manifest_reads_back_as_generate_wrote_it(self, generated):
        out_dir, outcome = generated
        summary, rows = read_generation(out_dir)
        assert summary == outcome.summary
        assert rows == [json.loads(line) for line in
                        (out_dir / "manifest.jsonl").read_text().splitlines()]
        assert {row["mutant_id"]: row["target_line"] for row in rows
                if row["rejection"] is None} == {
            mutant_id: mutant.target_line for mutant_id, mutant in outcome.mutants.items()}
        assert [(row["mutant_id"], row["target_line"], row["rejection"]) for row in rows
                if row["rejection"] is not None] == [
            ("Clamp-1-c01-m005", None, "out-of-chunk")]

    def test_a_manifest_row_missing_a_field_is_rejected(self, generated):
        out_dir, _ = generated
        manifest = out_dir / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        row = json.loads(lines[1])
        del row["chunk_id"], row["rejection"]
        manifest.write_text("\n".join([lines[0], "", json.dumps(row)]) + "\n")
        with pytest.raises(PipelineError, match=re.escape(
                f"{manifest} line 3 missing fields: ['chunk_id', 'rejection']")):
            read_generation(out_dir)


def section_warnings(outcome, prefix: str) -> list[str]:
    """The report's warnings of the section whose warnings start with prefix."""
    return [warning for warning in outcome.sections["warnings"]
            if warning.startswith(prefix)]


@pytest.fixture
def fixed_run(tmp_path):
    """Generate plus evaluate for the two fixed-mode bugs."""
    corpus_path = tmp_path / "corpus.jsonl"
    index_path = tmp_path / "corpus.index"
    write_corpus(corpus_path)
    build_index_file(corpus_path, index_path)
    config = PipelineConfig(corpus=str(corpus_path), index=str(index_path),
                            dimension=64, output_dir=str(tmp_path / "out"),
                            test_command=TEST_COMMAND,
                            compile_command=COMPILE_COMMAND)
    targets = [
        TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED, project="Alpha",
                   bug_revealing_tests=("t_above",)),
        TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                   buggy_method=SUM_BUGGY),
    ]
    scripted_generate(config, targets, tmp_path)
    outcome = run_evaluate(config, targets)
    return config, targets, outcome


class TestEvaluateFixedMode:
    # The report tree of the criterion-8 fixture; a refactor of the
    # analysis modules must not change a byte of it.
    GOLDEN_REPORT = {
        "effectiveness.json":
            "270b0ad933aace648d6a4db4b2634ee6cbc554bb0f37fc67140e570cf4838ef1",
        "effectiveness.txt":
            "1a2a900c7ad8b2179436dff34448ef9a3778eb7039cc5cf1cf87d3042d0db447",
        "report.json":
            "bad44b88bdb8ef8a6a820de4465de3397f63668eba41b7a14abc2a9f94c5501c",
        "tcp.json":
            "fb8c54026df6009275f312810d983119e94d1ab580d1cd5d3cc735a84b580f0d",
        "tcp.txt":
            "694787c7aecee80258eee0e4ccad82383c70c424ad176852f199a88ecc08dc16",
        "validity.json":
            "522172598c2bab681c40701d0982ca33b4cb57ecf7f75266a9e350d9daab1d38",
        "validity.txt":
            "928ecc9496eb2065b77b394b2870e30394880546eb65d36cf9d8e1113c2955ce",
    }

    def test_report_tree_matches_the_golden_digests(self, fixed_run):
        _, _, outcome = fixed_run
        assert tree_digests(outcome.out_dir) == self.GOLDEN_REPORT

    def test_validity_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["validity"]
        clamp = section["per_bug"]["Clamp-1"]
        assert clamp == {
            "project": "Alpha", "expected": 7, "generated": 7,
            "duplicates": 1, "compilable": 5, "useful": 4,
            "generation_rate": 1.0, "nonduplicate_rate": 6 / 7,
            "compilable_rate": 5 / 7,
        }
        sum_bug = section["per_bug"]["Sum-1"]
        assert sum_bug["generated"] == 4
        assert sum_bug["useful"] == 4
        overall = section["overall"]
        assert overall["expected"] == 14
        assert overall["generated"] == 11
        assert overall["generation_rate"] == 11 / 14

    def test_effectiveness_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["metrics"]
        assert section["per_bug_mutation_score"]["Clamp-1"] == 0.75
        assert section["per_bug_mutation_score"]["Sum-1"] == 1.0
        assert section["mutation_score"]["micro"] == 7 / 8
        clamp_ochiai = (1 / 2 ** 0.5 + 0 + 1 / 2 ** 0.5 + 0) / 4
        sum_ochiai = (1.0 + 3 * (2 / 8 ** 0.5)) / 4
        assert section["bug_ochiai"]["Clamp-1"] == pytest.approx(clamp_ochiai)
        assert section["bug_ochiai"]["Sum-1"] == pytest.approx(sum_ochiai)
        assert section["aoc"] == pytest.approx((clamp_ochiai + sum_ochiai) / 2)
        assert section["high_similarity_count"] == 0
        assert section["real_bug_detection"]["macro"] == 1.0
        assert section["coupling_rate"]["macro"] == pytest.approx(0.75)
        assert set(section["coupled_mutants"]["Sum-1"]) == {
            "Sum-1-c01-m000", "Sum-1-c01-m001", "Sum-1-c01-m002",
            "Sum-1-c02-m000"}

    def test_tcp_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["tcp"]
        clamp = section["per_bug"]["Clamp-1"]["GRK"]
        assert clamp["order"] == ["t_above", "t_small", "t_big", "t_at_limit"]
        assert clamp["step_kills"] == [2, 1, 2, 0]
        assert clamp["apfd"] == pytest.approx(0.875)
        assert section["mean_apfd"]["GRK"] == pytest.approx(0.875)
        assert set(section["mean_apfd"]) == {"GRK", "GRD", "HYB(0.5)"}

    def test_unrevealed_bug_warns_once_not_per_strategy(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                              bug_revealing_tests=("t_gone",))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        expected = ["tcp: bug Clamp-1 has no revealing test in the matrix; "
                    "APFD skipped"]
        assert section_warnings(outcome, "tcp: ") == expected
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert report["warnings"] == outcome.sections["warnings"]
        per_strategy = outcome.sections["tcp"]["per_bug"]["Clamp-1"]
        assert len(per_strategy) == 3
        assert all("apfd" not in record for record in per_strategy.values())

    def test_a_matrix_without_tests_is_left_out_of_tcp(self, fixed_run):
        # A matrix given without a test_command may name no tests, as one
        # for a bug with no useful mutant can.
        config, targets, _ = fixed_run
        clamp = [target for target in targets if target.bug_id == "Clamp-1"]
        (Path(config.output_dir) / "matrices" / "Clamp-1.matrix").write_text(
            "MUTANTS\nTESTS\n", encoding="utf-8")
        failing = f'{sys.executable} -c "raise SystemExit(1)" {{source}}'
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  compile_command=failing)
        outcome = run_evaluate(external, clamp)
        assert section_warnings(outcome, "tcp: ") == [
            "tcp: bug Clamp-1 has no kill matrix tests"]
        assert outcome.sections["tcp"]["per_bug"] == {}

    def test_mbfl_skipped_in_fixed_mode(self, fixed_run):
        _, _, outcome = fixed_run
        assert "mbfl" not in outcome.sections or outcome.sections.get(
            "mbfl") is None
        assert any("mbfl" in w for w in outcome.sections["warnings"])

    def test_report_files_written(self, fixed_run):
        config, _, outcome = fixed_run
        names = {p.name for p in outcome.out_dir.iterdir()}
        assert {"validity.json", "validity.txt", "effectiveness.json",
                "effectiveness.txt", "tcp.json", "tcp.txt",
                "report.json"} <= names
        matrices = Path(config.output_dir) / "matrices"
        assert (matrices / "Clamp-1.matrix").exists()
        assert (matrices / "Clamp-1.original.txt").exists()
        text = (outcome.out_dir / "validity.txt").read_text(encoding="utf-8")
        assert "100.00%" in text
        assert "Overall" in text

    def test_reevaluate_loads_matrices_and_is_byte_identical(self, fixed_run):
        config, targets, outcome = fixed_run
        before = read_tree(outcome.out_dir)
        second = run_evaluate(config, targets)
        assert read_tree(second.out_dir) == before

    @pytest.mark.parametrize("through", ["validity", "tcp", "", None])
    def test_a_depth_other_than_the_three_commands_raises(self, tmp_path, through):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        with pytest.raises(PipelineError, match=f"got {through!r}"):
            run_evaluate(config, targets, through=through)
        assert not (tmp_path / "out").exists()


class TestEvaluateRunCache:
    def test_warm_evaluate_starts_no_process(self, fixed_run, process_count):
        config, targets, _ = fixed_run
        before = read_tree(Path(config.output_dir))
        run_evaluate(config, targets)
        assert process_count == []
        assert read_tree(Path(config.output_dir)) == before

    def test_warm_evaluate_without_matrices_starts_no_process(self, fixed_run,
                                                              process_count):
        config, targets, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        before = read_tree(Path(config.output_dir))
        for path in matrices.glob("*.*"):
            path.unlink()
        run_evaluate(config, targets)
        assert process_count == []
        assert read_tree(Path(config.output_dir)) == before

    def test_identical_sources_in_two_bugs_start_one_process(self, tmp_path,
                                                             process_count):
        counts = []
        for bug_ids in (("Clamp-1",), ("Clamp-1", "Clamp-2")):
            base = tmp_path / str(len(bug_ids))
            base.mkdir()
            config = PipelineConfig(output_dir=str(base / "out"), retrieval=False,
                                    test_command=TEST_COMMAND,
                                    compile_command=COMPILE_COMMAND)
            targets = [TargetSpec(bug_id=bug_id, method=CLAMP_FIXED,
                                  bug_revealing_tests=("t_above",))
                       for bug_id in bug_ids]
            scripted_generate(config, targets, base)
            process_count.clear()
            outcome = run_evaluate(config, targets)
            counts.append(len(process_count))
        # per bug: 6 mutant sources, 5 of them distinct; 1 original; 4 useful
        assert counts == [5 + 1 + 4] * 2
        scores = outcome.sections["metrics"]["per_bug_mutation_score"]
        assert scores == {"Clamp-1": 0.75, "Clamp-2": 0.75}

    def test_new_sources_under_old_mutant_ids_rebuild_the_matrix(self, fixed_run):
        config, targets, _ = fixed_run
        out = Path(config.output_dir)
        matrix_path = out / "matrices" / "Clamp-1.matrix"
        lines = matrix_path.read_text().splitlines()
        mutant_ids = lines[0].split()[1:]
        killed = next(mid for mid, row in zip(mutant_ids, lines[2:]) if "1" in row)
        # A second generate reuses the id with another source: here the
        # unchanged method, which compiles and kills no test.
        (out / "mutants" / f"{killed}.java").write_text(CLAMP_FIXED)
        outcome = run_evaluate(config, targets)
        rows = dict(zip(mutant_ids, matrix_path.read_text().splitlines()[2:]))
        assert set(rows[killed]) == {"0"}
        assert outcome.sections["metrics"]["per_bug_mutation_score"]["Clamp-1"] == 0.5

    def test_matrices_load_as_given_without_a_test_command(self, fixed_run,
                                                           process_count):
        config, targets, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        before = read_tree(matrices)
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  compile_command=COMPILE_COMMAND)
        outcome = run_evaluate(external, targets, through="execute")
        assert process_count == []
        assert read_tree(matrices) == before
        assert "validity" in outcome.sections

    def test_evaluate_with_a_test_command_writes_no_key_file(self, fixed_run):
        config, _, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        assert sorted(path.name for path in matrices.glob("Clamp-1.*")) == [
            "Clamp-1.matrix", "Clamp-1.original.txt"]
        assert list(matrices.glob("*.key")) == []

    def test_without_runs_the_suites_rerun_and_rewrite_the_same_bytes(
            self, process_count, fixed_run):
        # process_count comes first, so it also counts fixed_run's cold evaluate.
        config, targets, _ = fixed_run
        cold = len(process_count)
        out = Path(config.output_dir)
        before = read_tree(out)
        for path in (out / "matrices" / "runs").iterdir():
            path.unlink()
        process_count.clear()
        run_evaluate(config, targets)
        assert cold > 0
        assert len(process_count) == cold
        assert read_tree(out) == before

    def test_edited_matrices_are_rebuilt_with_a_test_command(self, fixed_run):
        config, targets, outcome = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        report_before = read_tree(outcome.out_dir)
        saved = {}
        for name in ("Clamp-1.matrix", "Clamp-1.original.txt"):
            saved[name] = (matrices / name).read_bytes()
        lines = saved["Clamp-1.matrix"].decode().splitlines()
        (matrices / "Clamp-1.matrix").write_text("\n".join(
            lines[:2] + ["1" * len(row) for row in lines[2:]]) + "\n")
        (matrices / "Clamp-1.original.txt").write_text(
            saved["Clamp-1.original.txt"].decode().replace("PASS", "FAIL"))
        second = run_evaluate(config, targets)
        assert read_tree(second.out_dir) == report_before
        for name, data in saved.items():
            assert (matrices / name).read_bytes() == data

    def test_worker_count_does_not_change_any_byte(self, tmp_path):
        trees = []
        for workers in (1, 4):
            base = tmp_path / f"w{workers}"
            base.mkdir()
            config = PipelineConfig(output_dir=str(base / "out"), retrieval=False,
                                    test_command=TEST_COMMAND,
                                    compile_command=COMPILE_COMMAND,
                                    workers=workers)
            targets = [
                TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                           bug_revealing_tests=("t_above",)),
                TargetSpec(bug_id="Sum-1", method=SUM_FIXED, buggy_method=SUM_BUGGY),
                TargetSpec(bug_id="Sum-3", method=SUM_FIXED, buggy_method=SUM_BUGGY),
            ]
            scripted_generate(config, targets, base)
            run_evaluate(config, targets)
            trees.append(read_tree(base / "out"))
        assert trees[0] == trees[1]
        assert any(name.startswith("matrices/runs/") for name in trees[0])


class _RecordedRun:
    """A run's future that logs when the evaluation waits for it."""

    def __init__(self, future, label, events):
        self._future, self._label, self._events = future, label, events

    def result(self):
        self._events.append(("result", self._label))
        return self._future.result()


class _RecordingQueue:
    """The real run queue, logging each submission, whether validity.json
    exists at that moment, and each wait."""

    def __init__(self, queue, validity_path: Path, events: list):
        self._queue, self._validity_path, self._events = queue, validity_path, events

    def __enter__(self):
        self._queue.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._queue.__exit__(*exc_info)

    def compile(self, source, command, *, timeout):
        label = ("compile", source)
        self._events.append(("submit", label, self._validity_path.exists()))
        return _RecordedRun(self._queue.compile(source, command, timeout=timeout),
                            label, self._events)

    def suite(self, source, command, *, program_id, **kwargs):
        label = ("suite", program_id)
        self._events.append(("submit", label, self._validity_path.exists()))
        return _RecordedRun(self._queue.suite(source, command, program_id=program_id,
                                              **kwargs), label, self._events)


class TestEvaluateRunOrder:
    """Evaluate submits to its run queue in two waves across all bugs:
    compiles and original runs, then mutant suites and buggy runs."""

    @pytest.fixture
    def recorded(self, tmp_path, monkeypatch):
        from mutkit import execution

        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False,
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND, workers=2)
        targets = [
            TargetSpec(bug_id="Sum-2", method=SUM_FIXED, bug_revealing_tests=("t_five",)),
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                       bug_revealing_tests=("t_above",)),
            TargetSpec(bug_id="Sum-1", method=SUM_FIXED, buggy_method=SUM_BUGGY),
        ]
        scripted_generate(config, targets, tmp_path)
        out = Path(config.output_dir)
        events: list = []
        real_queue = execution.run_queue
        monkeypatch.setattr(execution, "run_queue", lambda directory, workers: (
            _RecordingQueue(real_queue(directory, workers),
                            out / "report" / "validity.json", events)))
        run_evaluate(config, targets)
        return out, events

    def test_the_queue_receives_two_waves_in_sorted_bug_order(self, recorded):
        out, events = recorded
        bug_ids = ["Clamp-1", "Sum-1", "Sum-2"]
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in (out / "mutants").glob("*.java")}
        first_wave = [label for bug_id in bug_ids
                      for label in [("compile", sources[mid]) for mid in sorted(sources)
                                    if mid.startswith(f"{bug_id}-")]
                      + [("suite", bug_id)]]
        rows = {bug_id: (out / "matrices" / f"{bug_id}.matrix").read_text(
            encoding="utf-8").splitlines()[0].split()[1:] for bug_id in bug_ids}
        second_wave = [("suite", program_id) for bug_id in bug_ids
                       for program_id in rows[bug_id]
                       + (["Sum-1-buggy"] if bug_id == "Sum-1" else [])]
        assert all(rows.values())

        submits = [index for index, event in enumerate(events) if event[0] == "submit"]
        waits = [index for index, event in enumerate(events) if event[0] == "result"]
        assert [events[index][1] for index in submits] == first_wave + second_wave
        assert submits[len(first_wave) - 1] < waits[0]
        # validity.json is written between the waves.
        assert [events[index][2] for index in submits] == (
            [False] * len(first_wave) + [True] * len(second_wave))
        second_waits = [index for index in waits if events[index][1] in second_wave]
        assert second_waits and min(second_waits) > submits[-1]


class TestEvaluateBuggyMode:
    # The report tree of the buggy fixture, mbfl section included.
    GOLDEN_REPORT = {
        "effectiveness.json":
            "169b92af0470195386847819de7b86dbf309f4d2963edc700ff947dd139ba200",
        "effectiveness.txt":
            "5b05af20f2e0a6d0acaf30b1715b86160986642e25374b7495b09583292368e7",
        "mbfl.json":
            "3906fe4277167df7555cef9de44a79f343ec783a24cd601d4fbc769c4c411d6b",
        "mbfl.txt":
            "cff2f15c6a27245022ebabd156883013e466ca2629405ad077cd6496c7723548",
        "report.json":
            "bb9785f1f487542509ee6b157d468c83488ced95e7b078d9eef07eed456f6e6d",
        "tcp.json":
            "f64b1dcfa813e46d92ba847f03bc89436c72603874b508426c8f9a73c191b4c9",
        "tcp.txt":
            "169c36484e3bcbdf87e3bf257e0ec9b2af97ca6d746942ba3a9e6c5853c17ca4",
        "validity.json":
            "493b6a6bd16778ae6bd45654ef337ce57a7f7c6ddf3977e5e40ff80ca56587af",
        "validity.txt":
            "735ff36dc6563610b47bf12e3096efe0340c301e6c08b49069494afaa4f1630c",
    }

    @pytest.fixture
    def buggy_run(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Sum-2", method=SUM_BUGGY,
                              project="Alpha", faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        return config, targets, outcome

    def test_mbfl_localizes_the_seeded_fault(self, buggy_run):
        _, _, outcome = buggy_run
        section = outcome.sections["mbfl"]
        per_bug = section["per_bug"]["Sum-2"]
        assert per_bug["muse"]["scores"]["2"] == 4.0
        assert per_bug["muse"]["scores"]["6"] == 2.0
        assert per_bug["muse"]["expected_ranks"]["2"] == 1.0
        assert per_bug["muse"]["faulty_ranks"] == [1.0]
        assert per_bug["metallaxis"]["scores"]["2"] == 1.0
        assert per_bug["metallaxis"]["scores"]["3"] == pytest.approx(0.5)
        for method in ("muse", "metallaxis"):
            metrics = section["metrics"][method]
            assert metrics["top_k"] == {"1": 1, "3": 1, "5": 1}
            assert metrics["mar"] == 1.0
            assert metrics["mfr"] == 1.0
            assert metrics["first_rank_mean"] == metrics["mfr"]
            assert metrics["evaluated_bugs"] == 1

    def test_report_tree_matches_the_golden_digests(self, buggy_run):
        _, _, outcome = buggy_run
        assert tree_digests(outcome.out_dir) == self.GOLDEN_REPORT

    def test_buggy_mode_revealing_tests_are_original_failures(self, buggy_run):
        _, _, outcome = buggy_run
        metrics = outcome.sections["metrics"]
        expected = (1.0 + 0.5 + 0.0 + 2 / 8 ** 0.5) / 4
        assert metrics["bug_ochiai"]["Sum-2"] == pytest.approx(expected)
        assert metrics["per_bug_mutation_score"]["Sum-2"] == 0.75

    def test_outcomes_naming_other_tests_become_a_warning(self, buggy_run):
        config, targets, _ = buggy_run
        original = Path(config.output_dir) / "matrices" / "Sum-2.original.txt"
        lines = original.read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = lines[0].split()[0]
        original.write_text("".join(lines[1:]), encoding="utf-8")
        # With a test_command the original comes from its run, so only
        # external matrices can disagree with their outcome file.
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  mode="buggy", compile_command=COMPILE_COMMAND)
        outcome = run_evaluate(external, targets)
        assert outcome.sections["mbfl"]["per_bug"] == {}
        assert section_warnings(outcome, "mbfl: ") == [
            f"mbfl: bug Sum-2: the kill matrix and the original outcomes "
            f"name different tests: ['{dropped}']"]

    @pytest.mark.parametrize("method, faulty_lines, reason", [
        (CLAMP_FIXED, (2,), "lacks a failing original run"),
        (SUM_BUGGY, (), "has no faulty_lines ground truth"),
        (SUM_BUGGY_UNMUTATED, (2,), "has no useful mutants"),
    ])
    def test_mbfl_leaves_out_a_bug_it_cannot_localize(self, tmp_path, method,
                                                      faulty_lines, reason):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Sum-2", method=SUM_BUGGY, faulty_lines=(2,)),
                   TargetSpec(bug_id="Weak-1", method=method,
                              faulty_lines=faulty_lines)]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert section_warnings(outcome, "mbfl: ") == [f"mbfl: bug Weak-1 {reason}"]
        assert list(outcome.sections["mbfl"]["per_bug"]) == ["Sum-2"]

    def test_a_bug_without_revealing_tests_is_left_out_of_effectiveness(
            self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        # The fixed clamp fails no test, so its original run reveals none.
        targets = [TargetSpec(bug_id="Clamp-2", method=CLAMP_FIXED,
                              faulty_lines=(2,)),
                   TargetSpec(bug_id="Sum-2", method=SUM_BUGGY,
                              project="Alpha", faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert "metrics: bug Clamp-2 has no bug-revealing test" in \
            outcome.sections["warnings"]
        assert list(outcome.sections["metrics"]["bug_ochiai"]) == ["Sum-2"]
        digests = tree_digests(outcome.out_dir)
        assert digests["effectiveness.json"] == \
            self.GOLDEN_REPORT["effectiveness.json"]
        assert {"tcp.json", "mbfl.json", "report.json"} <= set(digests)

    def test_effectiveness_is_skipped_when_no_bug_reveals_itself(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-2", method=CLAMP_FIXED,
                              faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert section_warnings(outcome, "metrics: ") == [
            "metrics: bug Clamp-2 has no bug-revealing test",
            "metrics: skipped (no bug has a bug-revealing test)"]
        assert "metrics" not in outcome.sections
        assert not (outcome.out_dir / "effectiveness.json").exists()
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert report["warnings"] == outcome.sections["warnings"]

    def test_effectiveness_is_skipped_when_no_bug_has_a_useful_mutant(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        # The buggy sum reveals itself, but no reply mutates its lines.
        targets = [TargetSpec(bug_id="Sum-3", method=SUM_BUGGY_UNMUTATED,
                              faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert "metrics: skipped (no bug has a useful mutant)" in \
            outcome.sections["warnings"]
        assert "mbfl: bug Sum-3 has no useful mutants" in outcome.sections["warnings"]
        assert "metrics" not in outcome.sections
        assert not (outcome.out_dir / "effectiveness.json").exists()
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert {"validity", "tcp", "mbfl"} <= set(report)
        assert report["warnings"] == outcome.sections["warnings"]

    def test_mbfl_report_files(self, buggy_run):
        _, _, outcome = buggy_run
        assert (outcome.out_dir / "mbfl.json").exists()
        text = (outcome.out_dir / "mbfl.txt").read_text(encoding="utf-8")
        assert "muse" in text and "metallaxis" in text
        payload = json.loads(
            (outcome.out_dir / "mbfl.json").read_text(encoding="utf-8"))
        assert payload["metrics"]["muse"]["top_k"]["1"] == 1


class TestEvaluateErrors:
    def test_missing_artifacts_rejected(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "missing"),
                                retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        with pytest.raises(PipelineError, match="run generate first"):
            run_evaluate(config, targets)

    def test_execution_requires_matrix_or_runner(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                              bug_revealing_tests=("t_above",))]
        scripted_generate(config, targets, tmp_path)
        with pytest.raises(PipelineError, match="no test_command"):
            run_evaluate(config, targets)

    def test_fixed_mode_requires_ground_truth(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, test_command=TEST_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        scripted_generate(config, targets, tmp_path)
        with pytest.raises(PipelineError, match="bug-revealing"):
            run_evaluate(config, targets)


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
                               backend=MockBackend(record_path=str(tmp_path / "r.jsonl")))
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
                               backend=MockBackend(record_path=str(tmp_path / "r.jsonl")))
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
                               backend=MockBackend(record_path=str(plain / "r.jsonl")))
        assert blank["prompt"] == next(row["prompt"] for row in without.prompts
                                       if row["prompt_id"] == "Clamp-1/c02")

    def test_a_failed_query_fails_every_chunk(self, tmp_path):
        from mutkit.embedder import VectorIndex

        config = self.config(tmp_path)
        VectorIndex(["pair-000"], np.ones((1, 8), dtype=np.float32),
                    backend_id="lexical-trigram-64").save(config.index)
        outcome = run_generate(config, self.targets(),
                               backend=MockBackend(record_path=str(tmp_path / "r.jsonl")))
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
                               backend=MockBackend(record_path=str(tmp_path / "r.jsonl")))
        retrieved = {pair_id for row in outcome.prompts for pair_id in row["examples"]}
        assert queries == [6]  # one call for the six chunks of both targets
        assert len(diffs) == len(retrieved) < 23
