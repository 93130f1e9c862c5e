"""Tests for prompt rendering, response parsing, and materialization."""

import json
import random

import pytest

from mutkit.chunker import CodeChunk, chunk_method, parse_method
from mutkit.corpus import BugFixPair, diff_hunk
from mutkit.promptgen import (
    FewShotExample,
    MaterializeError,
    MutationPair,
    materialize,
    parse_response,
    render_examples,
    render_prompt,
)

METHOD = "\n".join([
    "int total(int[] xs) {",
    "    int sum = 0;",
    "    for (int x : xs) {",
    "        sum += x;",
    "    }",
    "    return sum;",
    "}",
])


def make_pair(pair_id, pre, post):
    return BugFixPair(id=pair_id, hunk=diff_hunk(pre, post))


class TestRenderExamples:
    def test_direction_is_fixed_to_buggy(self):
        pre = "\n".join([
            "public int getItemCount(int series) {",
            "    int seriesCount = dataset.getColumnCount();",
            "    return seriesCount;",
            "}",
        ])
        post = pre.replace("getColumnCount", "getRowCount")
        examples = render_examples([make_pair("fix1", pre, post)])
        assert len(examples) == 1
        example = examples[0]
        assert example.precode == "int seriesCount = dataset.getRowCount();"
        assert example.aftercode == "int seriesCount = dataset.getColumnCount();"
        assert example.source_pair_id == "fix1"

    def test_insertion_only_hunk_skipped(self):
        pair = make_pair("ins", "a;\nc;", "a;\nb;\nc;")
        assert render_examples([pair]) == []

    def test_whitespace_only_hunk_skipped(self):
        assert render_examples([make_pair("ws", "a;\n    b;", "a;\nb;")]) == []

    def test_six_retrieved_one_skipped_gives_five_in_order(self):
        pairs = [make_pair(f"p{i}", f"int v = {i};\nuse(v);",
                           f"int v = {i + 100};\nuse(v);") for i in range(5)]
        pairs.insert(2, make_pair("bad", "a;\nz;", "a;\nb;\nz;"))
        examples = render_examples(pairs)
        assert [e.source_pair_id for e in examples] == ["p0", "p1", "p2", "p3", "p4"]


def segment(text: str) -> CodeChunk:
    """A segment chunk holding ``text`` from line 1 on."""
    return CodeChunk(line_numbers=tuple(range(1, text.count("\n") + 2)), text=text,
                     kind="segment")


class TestRenderPrompt:
    method = parse_method(METHOD)

    def examples(self):
        return [FewShotExample(precode="int x = 1;", aftercode="int x = 2;",
                               source_pair_id="p")]

    def test_contains_four_sections_and_rules(self):
        text = render_prompt(self.method, segment("    int sum = 0;"), self.examples(),
                             n=1)
        for section in ("[Instruction]:", "[Entire Focal Method]:",
                        "[The Current Chunk]:", "[Few-Shot Examples]:",
                        "[Output Instructions]:"):
            assert section in text
        assert "A mutation can only occur on one line." in text
        assert "wrapped in <json></json> tags" in text
        assert "Only mutate these lines:" in text

    def test_n_is_rendered(self):
        chunk_text = "a;\nb;\nc;"
        text = render_prompt(self.method, segment(chunk_text), [], n=3)
        assert "generate 3 mutant versions" in text
        assert "{N}" not in text

    def test_zero_examples_renders_empty_array(self):
        text = render_prompt(self.method, segment("    int sum = 0;"), [], n=1)
        assert "[Few-Shot Examples]: <json> [] </json>" in text

    def test_examples_serialized_as_json_array(self):
        text = render_prompt(self.method, segment("x;"), self.examples(), n=1)
        start = text.index("[Few-Shot Examples]: <json> ") + len("[Few-Shot Examples]: <json> ")
        end = text.index(" </json>", start)
        payload = json.loads(text[start:end])
        assert payload == [{"precode": "int x = 1;", "aftercode": "int x = 2;"}]

    def test_deterministic(self):
        args = (self.method, segment("x;"), self.examples(), 1)
        assert render_prompt(*args) == render_prompt(*args)


class TestParseResponse:
    def test_single_pair(self):
        parsed = parse_response('<json>[{"precode":"a;","aftercode":"b;"}]</json>')
        assert parsed.pairs == [MutationPair(precode="a;", aftercode="b;")]
        assert parsed.dropped == 0
        assert parsed.failure is None

    def test_prose_without_tags_flags_failure(self):
        parsed = parse_response("Here are some mutants: precode a; aftercode b;")
        assert parsed.pairs == []
        assert parsed.failure == "missing-tags"

    def test_an_unclosed_tag_flags_failure(self):
        parsed = parse_response('<json>[{"precode":"a;","aftercode":"b;"}]')
        assert parsed.pairs == []
        assert parsed.failure == "missing-tags"

    def test_invalid_json_flags_failure(self):
        parsed = parse_response("<json>[{not json]</json>")
        assert parsed.pairs == []
        assert parsed.failure == "invalid-json"

    def test_non_array_flags_failure(self):
        parsed = parse_response('<json>{"precode":"a;","aftercode":"b;"}</json>')
        assert parsed.failure == "not-an-array"

    def test_partial_schema_drops_individually(self):
        text = ('<json>[{"precode":"a;","aftercode":"b;"},'
                '{"precode":"c;"},'
                '{"precode":"","aftercode":"d;"}]</json>')
        parsed = parse_response(text)
        assert len(parsed.pairs) == 1
        assert parsed.dropped == 2

    def test_a_blank_precode_is_dropped(self):
        parsed = parse_response('<json>[{"precode":" \\t ","aftercode":"d;"}]</json>')
        assert (parsed.pairs, parsed.dropped, parsed.failure) == ([], 1, None)

    def test_surrounding_prose_tolerated(self):
        text = 'Sure!\n<json> [{"precode":"a;","aftercode":"b;"}] </json>\nDone.'
        parsed = parse_response(text)
        assert len(parsed.pairs) == 1

    def test_round_trip_with_rendered_examples(self):
        examples = [
            FewShotExample(precode=f"int x = {i};", aftercode=f"int x = {i + 1};",
                           source_pair_id=f"p{i}")
            for i in range(4)
        ]
        text = render_prompt(parse_method(METHOD), segment("x;"), examples, n=2)
        start = text.index("[Few-Shot Examples]: <json>")
        end = text.index("</json>", start) + len("</json>")
        parsed = parse_response(text[start:end])
        assert [(p.precode, p.aftercode) for p in parsed.pairs] == \
            [(e.precode, e.aftercode) for e in examples]


class TestMaterialize:
    def chunk(self):
        method = parse_method(METHOD)
        chunks = chunk_method(method)
        control = [c for c in chunks if c.kind == "control_flow"]
        assert control, "fixture must contain a control-flow chunk"
        return control[0]

    def test_replaces_matching_chunk_line(self):
        chunk = self.chunk()
        assert 4 in chunk.line_numbers
        pair = MutationPair(precode="sum += x;", aftercode="sum -= x;")
        mutant = materialize(METHOD, chunk, pair,
                             mutant_id="m1", bug_id="b1", chunk_id="c01")
        assert mutant.target_line == 4
        assert mutant.mutated_line_text == "        sum -= x;"
        original_lines = METHOD.split("\n")
        mutated_lines = mutant.source.split("\n")
        differing = [i for i, (a, b) in enumerate(zip(original_lines, mutated_lines))
                     if a != b]
        assert differing == [3]

    def test_indentation_preserved(self):
        chunk = self.chunk()
        pair = MutationPair(precode="sum += x;", aftercode="      sum *= x;")
        mutant = materialize(METHOD, chunk, pair,
                             mutant_id="m", bug_id="b", chunk_id="c")
        assert mutant.mutated_line_text == "        sum *= x;"

    def test_out_of_chunk_match_rejected(self):
        chunk = self.chunk()
        pair = MutationPair(precode="return sum;", aftercode="return 0;")
        with pytest.raises(MaterializeError) as err:
            materialize(METHOD, chunk, pair,
                        mutant_id="m", bug_id="b", chunk_id="c")
        assert err.value.reason == "out-of-chunk"

    def test_multi_line_aftercode_rejected(self):
        chunk = self.chunk()
        pair = MutationPair(precode="sum += x;", aftercode="x=1;\ny=2;")
        with pytest.raises(MaterializeError) as err:
            materialize(METHOD, chunk, pair,
                        mutant_id="m", bug_id="b", chunk_id="c")
        assert err.value.reason == "multi-line"

    def test_first_match_wins(self):
        source = "void a() {\n    x();\n    x();\n}"
        method = parse_method(source)
        chunk = chunk_method(method)[0]
        pair = MutationPair(precode="x();", aftercode="y();")
        mutant = materialize(source, chunk, pair,
                             mutant_id="m", bug_id="b", chunk_id="c")
        assert mutant.target_line == 2

    def test_one_hundred_random_fixtures_differ_on_exactly_one_chunk_line(self):
        rng = random.Random(99)
        for trial in range(100):
            body_lines = [f"    int v{i} = {rng.randint(0, 9)};" for i in range(rng.randint(2, 6))]
            body_lines.append("    if (v0 > 0) {")
            body_lines.append(f"        v1 = {rng.randint(10, 99)};")
            body_lines.append("    }")
            source = "void gen() {\n" + "\n".join(body_lines) + "\n}"
            method = parse_method(source)
            chunks = chunk_method(method)
            chunk = chunks[rng.randrange(len(chunks))]
            line_number = chunk.line_numbers[rng.randrange(len(chunk.line_numbers))]
            original_line = source.split("\n")[line_number - 1]
            if not original_line.strip():
                continue
            pair = MutationPair(precode=original_line,
                                aftercode=original_line.strip() + " // mutated")
            mutant = materialize(source, chunk, pair,
                                 mutant_id=f"m{trial}", bug_id="b", chunk_id="c")
            original_lines = source.split("\n")
            mutated_lines = mutant.source.split("\n")
            assert len(original_lines) == len(mutated_lines)
            differing = [i + 1 for i, (a, b) in
                         enumerate(zip(original_lines, mutated_lines)) if a != b]
            # The first trimmed-equal chunk line wins, so the differing line
            # is the first chunk line whose text matches the chosen one.
            expected = next(n for n in chunk.line_numbers
                            if original_lines[n - 1].strip() == original_line.strip())
            assert differing == [expected]
            assert expected in chunk.line_numbers

