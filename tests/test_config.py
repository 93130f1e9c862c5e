"""Tests for the pipeline configuration, the targets and the checked
readers of the JSON and JSON Lines inputs."""

import json
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit.config import (
    PipelineConfig,
    PipelineError,
    TargetSpec,
    _type_check,
    load_config,
    load_targets,
    pick_targets,
    read_generation,
)
from mutkit.llm import BackendConfig
from oracles import oracle_has_type
from test_pipeline import CLAMP_FIXED, SUM_FIXED, scripted_generate


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

    @pytest.mark.parametrize("name", ["compile_command", "test_command"])
    def test_a_command_template_requires_a_placeholder(self, name):
        with pytest.raises(PipelineError, match=f"^{name} must contain a {{source}} "
                                                f"placeholder, got 'javac'$"):
            PipelineConfig(**{name: "javac"})

    @pytest.mark.parametrize("template", [None, ""])
    def test_an_unset_or_empty_command_template_means_no_command(self, template):
        config = PipelineConfig(compile_command=template, test_command=template)
        assert (config.compile_command, config.test_command) == (template, template)

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
        with pytest.raises(PipelineError, match=re.escape(f"{path} must be dict, got [1, 2]")):
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
        with pytest.raises(PipelineError,
                           match=re.escape(f"{path} line 1 missing fields: ['method']")):
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
                           match=f"^{re.escape(str(path))} line 1: {field} must be"):
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
            assert _type_check(hint)(value) == oracle_has_type(value, hint), hint

    def test_field_hints_are_resolved_once_per_class(self, monkeypatch):
        PipelineConfig()
        TargetSpec(bug_id="B-1", method=CLAMP_FIXED)

        def resolve_again(cls):
            raise AssertionError(f"hints of {cls.__name__} resolved again")

        monkeypatch.setattr(typing, "get_type_hints", resolve_again)
        PipelineConfig(workers=2)
        TargetSpec(bug_id="B-2", method=CLAMP_FIXED)
        with pytest.raises(PipelineError, match="^workers must be int, got '2'$"):
            PipelineConfig(workers="2")


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
