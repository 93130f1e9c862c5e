"""Tests for dedup, compile checking, and the validity rates."""

import random
import sys

import pytest

from mutkit.promptgen import Mutant
from mutkit.validity import (
    CompileResult,
    ValidityError,
    ValidityLedger,
    check_compile,
    dedup,
    normalize_line,
    rates,
    substitute_command,
    validity_metrics,
)

ORIGINAL = "\n".join([
    "int f() {",
    "    int a = 1;",
    "    int b = 2;",
    "    return a + b;",
    "}",
])


def make_mutant(mutant_id, target_line, mutated_line):
    lines = ORIGINAL.split("\n")
    lines[target_line - 1] = mutated_line
    return Mutant(id=mutant_id, bug_id="b1", source="\n".join(lines),
                  target_line=target_line,
                  original_line_text=ORIGINAL.split("\n")[target_line - 1],
                  mutated_line_text=mutated_line, chunk_id="c00")


class TestNormalizeLine:
    def test_trims_and_collapses(self):
        assert normalize_line("   int  a =  1;  ") == "int a = 1;"

    def test_tabs_and_newlines_collapse_to_one_space(self):
        assert normalize_line("\tint\t\ta =\n1;\r\n") == "int a = 1;"


class TestDedup:
    def test_identical_to_original_is_duplicate(self):
        mutant = make_mutant("m1", 2, "    int a = 1;")
        assert dedup([mutant], ORIGINAL) == {"m1"}

    def test_whitespace_only_difference_from_original_is_duplicate(self):
        mutant = make_mutant("m1", 2, "    int  a  =  1;")
        assert dedup([mutant], ORIGINAL) == {"m1"}

    def test_second_mutant_differing_only_in_double_spaces_is_duplicate(self):
        first = make_mutant("m1", 2, "    int a = 5;")
        second = make_mutant("m2", 2, "    int a =  5;")
        assert dedup([first, second], ORIGINAL) == {"m2"}
        assert dedup([second, first], ORIGINAL) == {"m1"}

    def test_same_aftercode_on_different_lines_both_kept(self):
        first = make_mutant("m1", 2, "    int z = 9;")
        second = make_mutant("m2", 3, "    int z = 9;")
        assert dedup([first, second], ORIGINAL) == set()

    def test_duplicate_count_is_order_independent(self):
        mutants = [
            make_mutant("m1", 2, "    int a = 5;"),
            make_mutant("m2", 2, "    int a =  5;"),
            make_mutant("m3", 3, "    int b = 7;"),
            make_mutant("m4", 2, "    int a = 1;"),
        ]
        rng = random.Random(5)
        counts = set()
        for _ in range(10):
            shuffled = list(mutants)
            rng.shuffle(shuffled)
            counts.add(len(dedup(shuffled, ORIGINAL)))
        assert counts == {2}

    def test_target_line_outside_source_rejected(self):
        mutant = Mutant(id="m", bug_id="b", source=ORIGINAL, target_line=99,
                        original_line_text="", mutated_line_text="x;", chunk_id="c")
        with pytest.raises(ValidityError, match="outside"):
            dedup([mutant], ORIGINAL)


class TestCheckCompile:
    CHECKER = f"{sys.executable} -c \"import sys; sys.exit(0 if open(sys.argv[1]).read().count('{{')==open(sys.argv[1]).read().count('}}') else 1)\" {{source}}"

    def test_balanced_source_compiles(self):
        result = check_compile("int f() { return 1; }", self.CHECKER)
        assert result.ok
        assert not result.timed_out

    def test_missing_closing_brace_fails(self):
        result = check_compile("int f() { return 1;", self.CHECKER)
        assert not result.ok

    def test_timeout_flagged(self):
        command = f"{sys.executable} -c \"import time,sys; time.sleep(5)\" {{source}}"
        result = check_compile("x", command, timeout=0.3)
        assert not result.ok
        assert result.timed_out

    def test_command_not_found(self):
        with pytest.raises(ValidityError, match="not found"):
            check_compile("x", "no_such_compiler_zz {source}")

    def test_template_requires_placeholder(self):
        with pytest.raises(ValidityError, match="placeholder"):
            substitute_command("javac", "/tmp/x.java")


class TestValidityLedger:
    def test_subset_invariants_enforced(self):
        with pytest.raises(ValidityError, match="duplicates"):
            ValidityLedger(expected=1, generated=["m1"],
                           duplicates={"m2"})
        with pytest.raises(ValidityError, match="compilable"):
            ValidityLedger(expected=1, generated=["m1"],
                           compilable={"m9"})

    def test_useful_is_compilable_minus_duplicates(self):
        ledger = ValidityLedger(expected=3,
                                generated=["m1", "m2", "m3"],
                                duplicates={"m2"}, compilable={"m1", "m2"})
        assert ledger.useful() == {"m1"}


def generation_rate(expected: int, generated: int) -> float | None:
    return rates({"expected": expected, "generated": generated,
                  "duplicates": 0, "compilable": 0})["generation_rate"]


class TestValidityMetrics:
    def test_table_row_arithmetic(self):
        # 23083 parsed of 35979 expected prints as 64.16%.
        rate = generation_rate(35979, 23083)
        assert abs(rate * 100 - 64.16) < 0.005
        # 23708 of 46873 prints as 50.58%.
        rate = generation_rate(46873, 23708)
        assert abs(rate * 100 - 50.58) < 0.005

    def test_no_generation_rate_when_nothing_was_expected(self):
        assert generation_rate(0, 3) is None

    def test_the_row_holds_the_counts_and_their_rates(self):
        ledger = ValidityLedger(expected=4,
                                generated=["m1", "m2", "m3"],
                                duplicates={"m2"}, compilable={"m1", "m2"})
        assert validity_metrics(ledger) == {
            "expected": 4, "generated": 3, "duplicates": 1, "compilable": 2,
            "useful": 1, "generation_rate": 3 / 4, "nonduplicate_rate": 2 / 3,
            "compilable_rate": 2 / 3}

    def test_all_mutants_sharing_one_key(self):
        k = 7
        mutants = [make_mutant(f"m{i}", 2, "    int a = 5;") for i in range(k)]
        ledger = ValidityLedger(expected=k,
                                generated=[m.id for m in mutants],
                                duplicates=dedup(mutants, ORIGINAL))
        row = validity_metrics(ledger)
        assert row["nonduplicate_rate"] == pytest.approx(1 / k)

    def test_fully_compilable(self):
        ledger = ValidityLedger(expected=2, generated=["m1", "m2"],
                                compilable={"m1", "m2"})
        assert validity_metrics(ledger)["compilable_rate"] == 1.0

    def test_rates_absent_when_no_mutants(self):
        ledger = ValidityLedger(expected=5)
        assert validity_metrics(ledger) == {
            "expected": 5, "generated": 0, "duplicates": 0, "compilable": 0,
            "useful": 0, "generation_rate": 0.0, "nonduplicate_rate": None,
            "compilable_rate": None}

    def test_rates_bounded(self):
        rng = random.Random(11)
        for _ in range(50):
            total = rng.randint(1, 20)
            dup = rng.randint(0, total)
            comp = rng.randint(0, total)
            ids = [f"m{i}" for i in range(total)]
            ledger = ValidityLedger(expected=rng.randint(total, 40),
                                    generated=ids,
                                    duplicates=set(ids[:dup]),
                                    compilable=set(ids[:comp]))
            row = validity_metrics(ledger)
            assert 0.0 <= row["generation_rate"] <= 1.0
            assert 0.0 <= row["nonduplicate_rate"] <= 1.0
            assert 0.0 <= row["compilable_rate"] <= 1.0
