"""Tests for the effectiveness metrics against hand values and brute force."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit.execution import KillMatrix
from mutkit.metrics import (
    BugContext,
    MetricsError,
    aoc,
    bug_ochiai,
    coupled_mutants,
    coupling_rate,
    effectiveness_report,
    high_similarity_count,
    mutation_score,
    ochiai,
    real_bug_detection,
)
from oracles import (
    oracle_bug_ochiai,
    oracle_coupling,
    oracle_detection,
    oracle_high_similarity,
    oracle_mutation_score,
    oracle_ochiai,
    random_kill_table,
)


def matrix_from_table(table, tests, bug_id="b"):
    mutant_ids = tuple(sorted(table))
    if mutant_ids:
        cells = np.array([[t in table[m] for t in tests] for m in mutant_ids])
    else:
        cells = np.zeros((0, len(tests)), dtype=bool)
    return KillMatrix(bug_id=bug_id, mutant_ids=mutant_ids,
                      test_ids=tuple(tests), kills=cells)


def context(table, tests, revealing, bug_id="b"):
    return BugContext(bug_id=bug_id, matrix=matrix_from_table(table, tests, bug_id),
                      bug_revealing_tests=frozenset(revealing))


class TestMutationScore:
    def test_three_of_four_rows_nonzero(self):
        table = {"m1": {"t1"}, "m2": {"t2"}, "m3": {"t1", "t2"}, "m4": set()}
        ctx = context(table, ["t1", "t2"], ["t1"])
        assert mutation_score(ctx) == 0.75

    def test_all_zero_matrix(self):
        ctx = context({"m1": set(), "m2": set()}, ["t1"], ["t1"])
        assert mutation_score(ctx) == 0.0

    def test_all_rows_nonzero(self):
        ctx = context({"m1": {"t1"}, "m2": {"t1"}}, ["t1"], ["t1"])
        assert mutation_score(ctx) == 1.0

    def test_empty_mutant_set_rejected(self):
        ctx = context({}, ["t1"], ["t1"])
        with pytest.raises(MetricsError):
            mutation_score(ctx)

    def test_invariant_under_test_permutation(self):
        rng = random.Random(3)
        table, tests = random_kill_table(rng, max_mutants=10, max_tests=10)
        ctx = context(table, tests, [tests[0]])
        shuffled = list(tests)
        rng.shuffle(shuffled)
        ctx2 = context(table, shuffled, [tests[0]])
        assert mutation_score(ctx) == mutation_score(ctx2)


class TestOchiai:
    def test_hand_value(self):
        # {t1, t2} against {t2, t3}.
        assert ochiai(1, 2, 2) == 0.5

    def test_identical_nonempty_sets(self):
        assert ochiai(3, 3, 3) == pytest.approx(1.0)

    def test_disjoint_sets(self):
        assert ochiai(0, 1, 1) == 0.0

    def test_empty_set_convention(self):
        assert ochiai(0, 0, 1) == 0.0
        assert ochiai(0, 1, 0) == 0.0

    def test_symmetry_and_bounds(self):
        rng = random.Random(17)
        universe = [f"t{i}" for i in range(12)]
        for _ in range(200):
            a = {t for t in universe if rng.random() < 0.4}
            b = {t for t in universe if rng.random() < 0.4}
            value = ochiai(len(a & b), len(a), len(b))
            assert value == ochiai(len(a & b), len(b), len(a))
            assert value == oracle_ochiai(a, b)
            assert 0.0 <= value <= 1.0


class TestBugOchiai:
    def test_mean_of_two_mutants(self):
        table = {"m1": {"t1"}, "m2": {"t2"}}
        ctx = context(table, ["t1", "t2"], ["t1"])
        # m1 coefficient 1.0, m2 coefficient 0.0.
        assert bug_ochiai(ctx) == 0.5

    def test_single_mutant_identical_failing_set(self):
        ctx = context({"m1": {"t1", "t3"}}, ["t1", "t2", "t3"], ["t1", "t3"])
        assert bug_ochiai(ctx) == pytest.approx(1.0)

    def test_matches_brute_force_on_random_rows(self):
        rng = random.Random(23)
        for _ in range(20):
            table, tests = random_kill_table(rng, max_mutants=5, max_tests=6)
            revealing = {t for t in tests if rng.random() < 0.5} or {tests[0]}
            ctx = context(table, tests, revealing)
            assert bug_ochiai(ctx) == pytest.approx(
                oracle_bug_ochiai(table, revealing), abs=1e-12)

    def test_empty_useful_set_is_absent(self):
        ctx = context({}, ["t1"], ["t1"])
        assert bug_ochiai(ctx) is None


class TestAoc:
    def test_mean_of_two_bugs(self):
        assert aoc({"b1": 0.2, "b2": 0.4}) == pytest.approx(0.3)

    def test_single_bug(self):
        assert aoc({"b1": 0.77}) == 0.77

    def test_absent_values_excluded(self):
        assert aoc({"b1": 0.5, "b2": None}) == 0.5

    def test_no_defined_values_rejected(self):
        with pytest.raises(MetricsError):
            aoc({"b1": None})

    def test_random_bugs_match_recomputation(self):
        rng = random.Random(31)
        values = {f"b{i}": rng.random() for i in range(10)}
        assert aoc(values) == pytest.approx(sum(values.values()) / 10)


class TestRealBugDetection:
    def test_half_detected(self):
        table = {"m1": {"t1"}}
        ctx = context(table, ["t1", "t2"], ["t1", "t2"])
        assert real_bug_detection([ctx]) == {"macro": 0.5, "micro": 0.5}

    def test_all_detected(self):
        ctx = context({"m1": {"t1", "t2"}}, ["t1", "t2"], ["t1", "t2"])
        assert real_bug_detection([ctx]) == {"macro": 1.0, "micro": 1.0}

    def test_macro_micro_hand_aggregation(self):
        # Three bugs detecting (1/2, 2/2, 0/4) of their revealing tests.
        b1 = context({"m1": {"t1"}}, ["t1", "t2"], ["t1", "t2"], bug_id="b1")
        b2 = context({"m1": {"t1", "t2"}}, ["t1", "t2"], ["t1", "t2"], bug_id="b2")
        b3 = context({"m1": set()}, ["t1", "t2", "t3", "t4"],
                     ["t1", "t2", "t3", "t4"], bug_id="b3")
        rates = real_bug_detection([b1, b2, b3])
        assert rates["macro"] == pytest.approx(0.5)
        assert rates["micro"] == pytest.approx(3 / 8)

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(20):
            table, tests = random_kill_table(rng, max_mutants=6, max_tests=8)
            revealing = {t for t in tests if rng.random() < 0.5} or {tests[0]}
            ctx = context(table, tests, revealing)
            rates = real_bug_detection([ctx])
            detected, total = oracle_detection(table, revealing)
            assert rates["micro"] == pytest.approx(detected / total)


class TestCouplingRate:
    def test_none_coupled(self):
        ctx = context({"m1": {"t2"}}, ["t1", "t2"], ["t1"])
        assert coupling_rate(ctx) == 0.0

    def test_all_coupled(self):
        ctx = context({"m1": {"t1"}, "m2": {"t1", "t2"}}, ["t1", "t2"], ["t1"])
        assert coupling_rate(ctx) == 1.0

    def test_two_of_five(self):
        table = {"m1": {"t1"}, "m2": {"t1", "t3"}, "m3": {"t3"},
                 "m4": set(), "m5": {"t2"}}
        ctx = context(table, ["t1", "t2", "t3"], ["t1"])
        assert coupling_rate(ctx) == pytest.approx(0.4)
        assert coupled_mutants(ctx) == {"m1", "m2"}

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(20):
            table, tests = random_kill_table(rng, max_mutants=8, max_tests=8)
            revealing = {t for t in tests if rng.random() < 0.4} or {tests[0]}
            ctx = context(table, tests, revealing)
            assert coupling_rate(ctx) == pytest.approx(
                oracle_coupling(table, revealing))


class TestHighSimilarityCount:
    def test_boundary_inclusive(self):
        values = {"b1": 0.79, "b2": 0.8, "b3": 0.95}
        assert high_similarity_count(values) == 2

    def test_empty(self):
        assert high_similarity_count({}) == 0

    def test_hundred_random_match_filter(self):
        rng = random.Random(47)
        values = {f"b{i}": rng.random() for i in range(100)}
        assert high_similarity_count(values) == oracle_high_similarity(values.values())


class TestEffectivenessReport:
    def test_report_fields_and_exclusions(self):
        good = context({"m1": {"t1"}, "m2": set()}, ["t1", "t2"], ["t1"], bug_id="b1")
        empty = context({}, ["t1"], ["t1"], bug_id="b2")
        report = effectiveness_report([good, empty])
        assert report["excluded_bugs"] == ["b2"]
        assert report["mutation_score"]["micro"] == 0.5
        assert report["per_bug_mutation_score"] == {"b1": 0.5}
        assert report["bug_ochiai"]["b1"] == pytest.approx(0.5)
        assert report["high_similarity_count"] == 0
        assert report["real_bug_detection"] == {"macro": 1.0, "micro": 1.0}
        assert report["coupled_mutants"] == {"b1": ["m1"]}
        assert report["coupling_rate"] == {"micro": 0.5, "macro": 0.5}

    def test_all_bugs_empty_rejected(self):
        with pytest.raises(MetricsError):
            effectiveness_report([context({}, ["t1"], ["t1"])])

    def test_pooled_mutation_score(self):
        b1 = context({"m1": {"t1"}}, ["t1"], ["t1"], bug_id="b1")
        b2 = context({"m1": set(), "m2": set(), "m3": set()}, ["t1"], ["t1"],
                     bug_id="b2")
        report = effectiveness_report([b1, b2])
        assert report["mutation_score"]["micro"] == pytest.approx(1 / 4)
        assert report["mutation_score"]["macro"] == pytest.approx(0.5)

    def test_per_bug_entries_are_sorted_by_bug_id(self):
        b2 = context({"m1": {"t1"}}, ["t1"], ["t1"], bug_id="b2")
        b1 = context({"m2": {"t1"}, "m1": {"t1"}}, ["t1"], ["t1"], bug_id="b1")
        report = effectiveness_report([b2, b1])
        for key in ("bug_ochiai", "per_bug_mutation_score", "coupled_mutants"):
            assert list(report[key]) == ["b1", "b2"]
        assert report["coupled_mutants"]["b1"] == ["m1", "m2"]


class TestBugContextValidation:
    def test_unknown_revealing_test_rejected(self):
        with pytest.raises(MetricsError, match="revealing"):
            context({"m1": set()}, ["t1"], ["t9"])


class TestBruteForceEquivalence:
    def test_random_matrices_match_oracles_exactly(self):
        rng = random.Random(53)
        for _ in range(100):
            table, tests = random_kill_table(rng, max_mutants=20, max_tests=20)
            revealing = {t for t in tests if rng.random() < 0.3} or {tests[0]}
            ctx = context(table, tests, revealing)
            assert mutation_score(ctx) == oracle_mutation_score(table)
            assert bug_ochiai(ctx) == pytest.approx(
                oracle_bug_ochiai(table, revealing), abs=1e-12)
            assert coupling_rate(ctx) == oracle_coupling(table, revealing)
            detected, total = oracle_detection(table, revealing)
            assert real_bug_detection([ctx])["micro"] == detected / total


@st.composite
def shuffled_kill_tables(draw):
    """A kill table, its revealing tests, and a matrix row and column order."""
    tests = [f"t{j}" for j in range(draw(st.integers(1, 8)))]
    killed = draw(st.lists(st.sets(st.sampled_from(tests)), min_size=1, max_size=12))
    table = {f"m{i:02d}": set(tests_killed) for i, tests_killed in enumerate(killed)}
    revealing = draw(st.sets(st.sampled_from(tests), min_size=1))
    rows = draw(st.permutations(sorted(table)))
    columns = draw(st.permutations(tests))
    return table, revealing, rows, columns


@given(shuffled_kill_tables())
@settings(max_examples=150, deadline=None)
def test_metrics_on_shuffled_rows_match_the_oracles(case):
    table, revealing, rows, columns = case
    kills = np.array([[t in table[m] for t in columns] for m in rows], dtype=bool)
    ctx = BugContext(bug_id="b", matrix=KillMatrix("b", tuple(rows), tuple(columns),
                                                    kills),
                     bug_revealing_tests=frozenset(revealing))
    assert mutation_score(ctx) == oracle_mutation_score(table)
    # The mean adds per-mutant values in row order, as the oracle does here.
    assert bug_ochiai(ctx) == oracle_bug_ochiai({m: table[m] for m in rows}, revealing)
    assert coupling_rate(ctx) == oracle_coupling(table, revealing)
    assert coupled_mutants(ctx) == {m for m in table if table[m] & revealing}
    detected, total = oracle_detection(table, revealing)
    assert real_bug_detection([ctx])["micro"] == detected / total
