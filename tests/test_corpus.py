"""Tests for corpus ingestion and single-hunk extraction."""

import difflib
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit import corpus as corpus_module
from mutkit.corpus import (
    _changed_regions,
    Corpus,
    CorpusError,
    CorpusRecord,
    HunkError,
    diff_hunk,
    ingest_corpus,
)
from oracles import apply_hunk, oracle_changed_regions


def oracle_region_count(pre: str, post: str) -> int:
    """Independent count of contiguous changed regions, via difflib."""
    matcher = difflib.SequenceMatcher(a=pre.split("\n"), b=post.split("\n"), autojunk=False)
    count = 0
    previous_equal = True
    for tag, *_ in matcher.get_opcodes():
        if tag == "equal":
            previous_equal = True
        else:
            if previous_equal:
                count += 1
            previous_equal = False
    return count


PRE = "\n".join([
    "int getRowCount() {",
    "    int count = 0;",
    "    for (Row r : rows) {",
    "        count += 1;",
    "    }",
    "    return count;",
    "}",
])
POST = PRE.replace("count += 1;", "count += r.span();")


class TestDiffHunk:
    def test_single_line_replacement(self):
        hunk = diff_hunk(PRE, POST)
        assert hunk.pre_lines == ((4, "        count += 1;"),)
        assert hunk.post_lines == ((4, "        count += r.span();"),)

    def test_insertion_and_deletion_hunks(self):
        base = "a\nb\nc"
        inserted = "a\nb\nx\nc"
        hunk = diff_hunk(base, inserted)
        assert hunk.pre_lines == ()
        assert hunk.post_lines == ((3, "x"),)
        deleted = "a\nc"
        hunk = diff_hunk(base, deleted)
        assert hunk.pre_lines == ((2, "b"),)
        assert hunk.post_lines == ()

    def test_identical_texts_rejected(self):
        with pytest.raises(HunkError, match="identical"):
            diff_hunk(PRE, PRE)

    def test_multi_hunk_rejected_lines_2_and_9(self):
        # Edits on lines 2 and 9 of a ten-line method: two regions.
        pre_lines = [f"line {i};" for i in range(1, 11)]
        post_lines = list(pre_lines)
        post_lines[1] = "changed 2;"
        post_lines[8] = "changed 9;"
        pre = "\n".join(pre_lines)
        post = "\n".join(post_lines)
        assert oracle_region_count(pre, post) == 2
        with pytest.raises(HunkError, match="multi-hunk"):
            diff_hunk(pre, post)

    def test_common_suffix_split_into_second_region_is_kept(self):
        # Trimming the common suffix would merge this into one hunk
        # (0, 1, 0, 2) and accept a record that is skipped today.
        assert _changed_regions(["y", "x"], ["z", "x", "x"]) == [(0, 1, 0, 1), (2, 2, 2, 3)]
        with pytest.raises(HunkError, match="multi-hunk"):
            diff_hunk("y\nx", "z\nx\nx")

    def test_region_count_matches_difflib_oracle_on_clean_fixtures(self):
        fixtures = [
            (PRE, POST, 1),
            ("a\nb\nc", "a\nB\nc", 1),
            ("a\nb\nc\nd", "a\nB\nc\nD", 2),
            ("a\nb", "a\nb\nc\nd", 1),
        ]
        for pre, post, expected in fixtures:
            assert oracle_region_count(pre, post) == expected
            if expected == 1:
                diff_hunk(pre, post)
            else:
                with pytest.raises(HunkError):
                    diff_hunk(pre, post)


class TestApplyHunk:
    def test_round_trip_on_fixture(self):
        hunk = diff_hunk(PRE, POST)
        assert apply_hunk(hunk, PRE) == POST

    def test_round_trip_preserves_trailing_newline_difference(self):
        pre = "a\nb\n"
        post = "a\nb"
        hunk = diff_hunk(pre, post)
        assert apply_hunk(hunk, pre) == post

    def test_mismatched_pre_text_rejected(self):
        hunk = diff_hunk(PRE, POST)
        with pytest.raises(ValueError, match="does not match"):
            apply_hunk(hunk, PRE.replace("count += 1;", "count += 2;"))

    def test_fifty_random_synthetic_edits_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(50):
            n = rng.randint(3, 30)
            pre_lines = [f"stmt_{rng.randint(0, 9)}_{i};" for i in range(n)]
            start = rng.randrange(n)
            width = rng.randint(0, min(4, n - start))
            replacement = [f"new_{rng.randint(0, 99)};" for _ in range(rng.randint(0, 4))]
            post_lines = pre_lines[:start] + replacement + pre_lines[start + width:]
            pre = "\n".join(pre_lines)
            post = "\n".join(post_lines)
            if pre == post:
                continue
            try:
                hunk = diff_hunk(pre, post)
            except HunkError:
                continue
            assert apply_hunk(hunk, pre) == post


@given(
    lines=st.lists(st.sampled_from(["a;", "b;", "c;", "d;"]), min_size=1, max_size=12),
    start=st.integers(min_value=0, max_value=11),
    width=st.integers(min_value=0, max_value=3),
    repl=st.lists(st.sampled_from(["x;", "y;"]), min_size=0, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_apply_round_trip_property(lines, start, width, repl):
    start = min(start, len(lines))
    post_lines = lines[:start] + repl + lines[start + width:]
    pre = "\n".join(lines)
    post = "\n".join(post_lines)
    if pre == post:
        return
    try:
        hunk = diff_hunk(pre, post)
    except HunkError:
        return
    assert apply_hunk(hunk, pre) == post


@given(
    a=st.lists(st.sampled_from("xyz"), max_size=10),
    b=st.lists(st.sampled_from("xyz"), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_prefix_trim_keeps_the_untrimmed_regions(a, b):
    assert _changed_regions(a, b) == oracle_changed_regions(a, b)


@given(
    base=st.lists(st.sampled_from(["a", "b", "c"]), max_size=12),
    start=st.integers(min_value=0, max_value=12),
    width=st.integers(min_value=0, max_value=4),
    repl=st.lists(st.sampled_from(["a", "b", "x"]), max_size=4),
    swap=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_edits_over_a_small_alphabet_keep_the_full_backtrack_regions(
        base, start, width, repl, swap):
    # Repeated lines inside and around the edit, empty sides included: the
    # shortcut must stand aside wherever a middle line recurs.
    start = min(start, len(base))
    edited = base[:start] + repl + base[start + width:]
    a, b = (edited, base) if swap else (base, edited)
    assert _changed_regions(a, b) == oracle_changed_regions(a, b)


@given(
    head=st.lists(st.sampled_from(["{", "}", "a;"]), max_size=8),
    tail=st.lists(st.sampled_from(["{", "}", "a;"]), max_size=8),
    removed=st.lists(st.sampled_from(["old0;", "old1;"]), max_size=3),
    added=st.lists(st.sampled_from(["new0;", "new1;"]), max_size=3),
    swap=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_unique_line_edits_are_one_region_without_the_table(head, tail, removed,
                                                            added, swap):
    # The edited lines occur nowhere else; the lines around them repeat.
    a, b = head + removed + tail, head + added + tail
    if swap:
        a, b = b, a
    with mock.patch.object(corpus_module, "_lcs_table",
                           side_effect=AssertionError("LCS table built")):
        regions = _changed_regions(a, b)
    assert regions == oracle_changed_regions(a, b)
    assert len(regions) == (a != b)


class TestIngestCorpus:
    def write(self, tmp_path, records):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return str(path)

    def record(self, rid, pre=PRE, post=POST, project="demo"):
        return {"id": rid, "project": project, "pre_fix_code": pre, "post_fix_code": post}

    def test_valid_corpus_round_trip(self, tmp_path):
        path = self.write(tmp_path, [self.record("p1"), self.record("p2")])
        corpus = ingest_corpus(path)
        assert isinstance(corpus, Corpus)
        assert [pair.id for pair in corpus.pairs] == ["p1", "p2"]
        assert corpus.pairs[1].project == "demo"
        assert not corpus.skipped

    def test_pairs_are_the_records_as_read_with_no_hunk(self, tmp_path):
        corpus = ingest_corpus(self.write(tmp_path, [self.record("p1")]))
        assert corpus.pairs == [CorpusRecord(id="p1", project="demo", pre_fix_code=PRE,
                                             post_fix_code=POST, line_no=1)]

    def test_unique_line_edits_build_no_lcs_table(self, tmp_path, monkeypatch):
        method = ["int f() {"] + [f"    step({i});" for i in range(318)] + ["}"]
        edited = list(method)
        edited[160] = "    step(-1);"
        records = [
            self.record("replace", "\n".join(method), "\n".join(edited)),
            self.record("insert", "\n".join(method), "\n".join(method[:9] + ["x;"] + method[9:])),
            self.record("delete", "\n".join(method), "\n".join(method[:-2] + method[-1:])),
            self.record("same", PRE, PRE),
        ]
        path = self.write(tmp_path, records)

        def no_table(a, b):
            raise AssertionError("LCS table built")

        monkeypatch.setattr(corpus_module, "_lcs_table", no_table)
        corpus = ingest_corpus(path)
        assert [pair.id for pair in corpus.pairs] == ["replace", "insert", "delete"]
        assert [(s.record_id, s.reason) for s in corpus.skipped] == [
            ("same", "texts are identical")]
        hunk = diff_hunk("\n".join(method), "\n".join(edited))
        assert hunk.pre_lines == ((161, "    step(159);"),)
        assert hunk.post_lines == ((161, "    step(-1);"),)

    def test_schema_violations_are_skipped_with_reasons(self, tmp_path):
        records = [
            self.record("ok"),
            {"id": "no_post", "project": "demo", "pre_fix_code": PRE},
            {"id": 7, "project": "demo", "pre_fix_code": PRE, "post_fix_code": POST},
        ]
        path = self.write(tmp_path, records)
        corpus = ingest_corpus(path)
        assert len(corpus.pairs) == 1
        reasons = [s.reason for s in corpus.skipped]
        assert "missing field: post_fix_code" in reasons
        assert any("not a string" in r for r in reasons)

    def test_multi_hunk_records_are_skipped_not_fatal(self, tmp_path):
        pre_lines = [f"line {i};" for i in range(1, 11)]
        post_lines = list(pre_lines)
        post_lines[1] = "x;"
        post_lines[8] = "y;"
        records = [
            self.record("multi", "\n".join(pre_lines), "\n".join(post_lines)),
            self.record("ok"),
        ]
        corpus = ingest_corpus(self.write(tmp_path, records))
        assert [pair.id for pair in corpus.pairs] == ["ok"]
        assert corpus.skipped[0].record_id == "multi"
        assert "multi-hunk" in corpus.skipped[0].reason

    def test_metadata_that_is_not_an_object_is_skipped(self, tmp_path):
        records = [dict(self.record("listed"), metadata=["a"]),
                   dict(self.record("kept"), metadata={"source": "x"})]
        corpus = ingest_corpus(self.write(tmp_path, records))
        assert [pair.id for pair in corpus.pairs] == ["kept"]
        assert [(s.record_id, s.reason) for s in corpus.skipped] == [
            ("listed", "metadata is not an object")]

    def test_duplicate_ids_fatal(self, tmp_path):
        path = self.write(tmp_path, [self.record("dup"), self.record("dup")])
        with pytest.raises(CorpusError, match="duplicate"):
            ingest_corpus(path)

    def test_zero_valid_records_fatal(self, tmp_path):
        path = self.write(tmp_path, [self.record("same", PRE, PRE)])
        with pytest.raises(CorpusError, match="no valid"):
            ingest_corpus(path)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            ingest_corpus(str(tmp_path / "missing.jsonl"))

    def test_file_that_is_not_utf8_fatal(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "\xff"}\n')
        with pytest.raises(CorpusError, match="^cannot read corpus file .*utf-8"):
            ingest_corpus(str(path))

    def test_blank_lines_are_passed_over_and_bad_records_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join([
            json.dumps(self.record("ok")),
            "   ",
            json.dumps(self.record("")),
            json.dumps([self.record("listed")]),
            "",
        ]), encoding="utf-8")
        corpus = ingest_corpus(str(path))
        assert [pair.id for pair in corpus.pairs] == ["ok"]
        assert [(s.record_id, s.line_no, s.reason) for s in corpus.skipped] == [
            ("", 3, "empty id"), (None, 4, "record is not an object")]

    def test_invalid_json_line_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps(self.record("ok")) + "\n")
        corpus = ingest_corpus(str(path))
        assert len(corpus.pairs) == 1
        assert corpus.skipped[0].line_no == 1
