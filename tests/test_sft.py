"""Tests for the supervised fine-tuning export."""

import json

import pytest

from mutkit.chunker import parse_method, whole_method_chunk
from mutkit.promptgen import Mutant, materialize, parse_response, render_prompt
from mutkit.sft import (
    SftContext,
    SftError,
    TrainingInstance,
    export,
    render_response,
    write_instances,
)

METHOD_SOURCE = """public int clamp(int value) {
    int limit = 10;
    if (value > limit) {
        return limit;
    }
    return value;
}"""

PROMPT = render_prompt(parse_method(METHOD_SOURCE),
                       whole_method_chunk(parse_method(METHOD_SOURCE)), [], n=7)


def make_mutant(mutant_id, bug_id="bug-a", chunk_id="c00", project=""):
    return Mutant(id=mutant_id, bug_id=bug_id, source=METHOD_SOURCE,
                  target_line=2, original_line_text="    int limit = 10;",
                  mutated_line_text="    int limit = 11;", chunk_id=chunk_id)


def make_context(bug_id="bug-a", chunk_id="c00", project=""):
    return SftContext(bug_id=bug_id, chunk_id=chunk_id, prompt=PROMPT,
                      project=project)


class TestExportFiltering:
    def test_coupled_mutant_is_emitted(self):
        result = export([make_mutant("m1")], {"m1"},
                        {("bug-a", "c00"): make_context()})
        assert len(result.instances) == 1
        assert result.instances[0].mutant_ids == ("m1",)

    def test_uncoupled_mutants_are_excluded(self):
        mutants = [make_mutant(f"m{i}") for i in range(10)]
        coupled = {"m1", "m4", "m6", "m9"}
        result = export(mutants, coupled, {("bug-a", "c00"): make_context()})
        assert len(result.instances) == 4
        assert result.excluded_uncoupled == 6
        assert {i.mutant_ids[0] for i in result.instances} == coupled

    def test_missing_context_skips_with_reason(self):
        result = export([make_mutant("m1")], {"m1"}, {})
        assert result.instances == []
        assert result.skipped[0].mutant_id == "m1"
        assert result.skipped[0].reason == "missing-context"

    def test_excluded_projects_are_held_out(self):
        contexts = {
            ("bug-a", "c00"): make_context("bug-a", project="Lang"),
            ("bug-b", "c00"): make_context("bug-b", project="Math"),
        }
        mutants = [make_mutant("m1", "bug-a"), make_mutant("m2", "bug-b")]
        result = export(mutants, {"m1", "m2"}, contexts,
                        exclude_projects=["Lang", "Cli"])
        assert [i.bug_id for i in result.instances] == ["bug-b"]
        assert result.excluded_projects == 1

    def test_instances_ordered_by_bug_chunk_mutant(self):
        contexts = {
            ("bug-a", "c00"): make_context("bug-a", "c00"),
            ("bug-a", "c01"): make_context("bug-a", "c01"),
            ("bug-b", "c00"): make_context("bug-b", "c00"),
        }
        mutants = [
            make_mutant("m3", "bug-b", "c00"),
            make_mutant("m2", "bug-a", "c01"),
            make_mutant("m1", "bug-a", "c00"),
            make_mutant("m0", "bug-a", "c00"),
        ]
        result = export(mutants, {m.id for m in mutants}, contexts)
        assert [i.mutant_ids[0] for i in result.instances] == \
            ["m0", "m1", "m2", "m3"]


class TestResponseRoundTrip:
    def test_response_parses_to_exactly_one_pair(self):
        result = export([make_mutant("m1")], {"m1"},
                        {("bug-a", "c00"): make_context()})
        parsed = parse_response(result.instances[0].response)
        assert parsed.failure is None
        assert len(parsed.pairs) == 1
        assert parsed.pairs[0].precode == "int limit = 10;"
        assert parsed.pairs[0].aftercode == "int limit = 11;"

    def test_full_rematerialization_round_trip(self):
        method = parse_method(METHOD_SOURCE)
        chunk = whole_method_chunk(method)
        pair = parse_response(render_response([make_mutant("m1")])).pairs[0]
        rebuilt = materialize(METHOD_SOURCE, chunk, pair,
                              mutant_id="m1", bug_id="bug-a", chunk_id="c00")
        assert rebuilt.target_line == 2
        assert "int limit = 11;" in rebuilt.source
        assert rebuilt.source.count("11") == 1

    def test_render_response_requires_mutants(self):
        with pytest.raises(SftError, match="no mutants"):
            render_response([])


class TestGroupedMode:
    def build(self):
        mutants = [make_mutant("m1"), make_mutant("m2"),
                   make_mutant("m3", "bug-b")]
        contexts = {("bug-a", "c00"): make_context("bug-a"),
                    ("bug-b", "c00"): make_context("bug-b")}
        return mutants, contexts

    def test_grouped_emits_one_instance_per_chunk(self):
        mutants, contexts = self.build()
        result = export(mutants, {"m1", "m2", "m3"}, contexts, grouped=True)
        assert len(result.instances) == 2
        first = result.instances[0]
        assert first.mutant_ids == ("m1", "m2")
        parsed = parse_response(first.response)
        assert len(parsed.pairs) == 2

    def test_grouping_respects_coupling_filter(self):
        mutants, contexts = self.build()
        result = export(mutants, {"m2", "m3"}, contexts, grouped=True)
        assert result.instances[0].mutant_ids == ("m2",)


class TestDeterminism:
    def test_export_is_stable_under_rerun(self, tmp_path):
        mutants = [make_mutant(f"m{i}") for i in range(6)]
        coupled = {"m0", "m2", "m5"}
        contexts = {("bug-a", "c00"): make_context()}
        paths = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            write_instances(export(mutants, coupled, contexts).instances, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_write_read_round_trip(self, tmp_path):
        result = export([make_mutant("m1")], {"m1"},
                        {("bug-a", "c00"): make_context(project="Chart")})
        path = tmp_path / "sft.jsonl"
        count = write_instances(result.instances, path)
        assert count == 1
        [line] = path.read_text(encoding="utf-8").splitlines()
        [instance] = result.instances
        assert json.loads(line) == {
            "prompt": instance.prompt,
            "response": instance.response,
            "provenance": {"bug_id": "bug-a", "chunk_id": "c00",
                           "mutant_ids": ["m1"], "project": "Chart"},
        }


class TestInstanceValidation:
    def test_prompt_must_contain_required_sections(self):
        with pytest.raises(SftError, match="prompt lacks"):
            TrainingInstance(prompt="just text", response=render_response(
                [make_mutant("m1")]), bug_id="bug-a", chunk_id="c00",
                mutant_ids=("m1",))

    def test_response_must_parse(self):
        with pytest.raises(SftError, match="parse cleanly"):
            TrainingInstance(prompt=PROMPT, response="no tags here",
                             bug_id="bug-a", chunk_id="c00",
                             mutant_ids=("m1",))

    def test_context_rejects_empty_prompt(self):
        with pytest.raises(SftError, match="empty prompt"):
            SftContext(bug_id="b", chunk_id="c", prompt="   ")
