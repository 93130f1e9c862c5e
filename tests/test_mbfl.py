"""Tests for mutation-based fault localization."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit.execution import KillMatrix, TestOutcomeVector, build_kill_matrix
from mutkit.mbfl import (
    AGGREGATION_METHODS,
    MbflError,
    SuspiciousnessReport,
    fl_metrics,
    localize,
    metallaxis_score,
    muse_score,
    rank,
)
from mutkit.report import mbfl_section
from oracles import (
    oracle_metallaxis,
    oracle_muse,
    oracle_mutant_outcomes,
    oracle_tie_ranks,
)


def vector(**outcomes):
    return TestOutcomeVector(outcomes=dict(outcomes))


def kill_matrix(original, **mutants):
    """The kill matrix of bug "bug" with one row per mutant keyword."""
    return build_kill_matrix(original, mutants, "bug")


ORIGINAL = vector(t1="fail", t2="fail", t3="pass", t4="pass")


def scores(original, matrix, statement_of, statements=()):
    """Per-method statement scores of ``localize`` on bug "bug"."""
    reports = localize("bug", original, matrix, statement_of, statements)
    return {method: report.scores for method, report in reports.items()}


class TestFlipCounts:
    """localize reads each mutant's flips as row sums of the kill matrix."""

    def test_flip_of_one_failing_test_counts_as_failed_m(self):
        # failed_m 1, passed_m 0 and totalfailed 2: MUSE 1, Metallaxis 1/sqrt(2).
        mutants = kill_matrix(ORIGINAL, m1=vector(t1="pass", t2="fail", t3="pass",
                                                  t4="pass"))
        assert scores(ORIGINAL, mutants, {"m1": 7}) == {
            "muse": {7: 1.0}, "metallaxis": {7: 1 / math.sqrt(2)}}

    def test_identical_outcomes_count_nothing(self):
        mutants = kill_matrix(ORIGINAL, m1=vector(t1="fail", t2="fail", t3="pass",
                                                  t4="pass"))
        assert scores(ORIGINAL, mutants, {"m1": 3}) == {
            "muse": {3: 0.0}, "metallaxis": {3: 0.0}}

    def test_f2p_sums_failed_m_over_mutants(self):
        original = vector(t1="fail", t2="fail", t3="pass")
        flips = {"m1": 1, "m2": 0, "m3": 2, "m4": 1}
        vectors = {}
        for mutant_id, failed_m in flips.items():
            outcomes = {"t1": "fail", "t2": "fail", "t3": "pass"}
            if failed_m >= 1:
                outcomes["t1"] = "pass"
            if failed_m >= 2:
                outcomes["t2"] = "pass"
            vectors[mutant_id] = TestOutcomeVector(outcomes)
        # m5 flips only the passing test, so p2f is 1 and its weight f2p = 4.
        vectors["m5"] = vector(t1="fail", t2="fail", t3="fail")
        statement_of = {f"m{i}": i for i in range(1, 6)}
        muse = scores(original, kill_matrix(original, **vectors), statement_of)["muse"]
        assert muse == {1: 1.0, 2: 0.0, 3: 2.0, 4: 1.0, 5: -4.0}

    def test_pass_to_fail_flip_counts_as_passed_m(self):
        # m1: passed_m 2, so p2f 2; m2: failed_m 1, so f2p 1.
        mutants = kill_matrix(
            ORIGINAL, m1=vector(t1="fail", t2="fail", t3="fail", t4="fail"),
            m2=vector(t1="pass", t2="fail", t3="pass", t4="pass"))
        assert scores(ORIGINAL, mutants, {"m1": 2, "m2": 3}) == {
            "muse": {2: -1.0, 3: 1.0}, "metallaxis": {2: 0.0, 3: 1 / math.sqrt(2)}}


class TestLocalizeRejects:
    def test_an_original_without_a_failing_test(self):
        healthy = vector(t1="pass")
        with pytest.raises(MbflError, match="no failing test"):
            localize("bug", healthy, kill_matrix(healthy), {})

    def test_mismatched_test_sets(self):
        mutants = KillMatrix("bug", ("m1",), ("t1",), np.zeros((1, 1), dtype=bool))
        with pytest.raises(MbflError, match="name different tests"):
            localize("bug", ORIGINAL, mutants, {"m1": 1})

    @pytest.mark.parametrize("original_tests", [("t1",), ("t1", "t2", "t3")])
    def test_outcomes_for_other_tests_with_the_tests_named(self, original_tests):
        matrix = KillMatrix(bug_id="B-1", mutant_ids=("m1",),
                            test_ids=("t1", "t2"), kills=[[True, False]])
        original = TestOutcomeVector(outcomes={t: "pass" for t in original_tests})
        differ = sorted(set(original_tests) ^ {"t1", "t2"})
        with pytest.raises(MbflError) as error:
            localize("B-1", original, matrix, {"m1": 1})
        assert str(error.value) == (
            f"bug B-1: the kill matrix and the original outcomes name "
            f"different tests: {differ}")

    def test_unmapped_mutants(self):
        mutants = kill_matrix(ORIGINAL, m1=vector(t1="fail", t2="fail", t3="pass",
                                                  t4="pass"), m2=ORIGINAL)
        with pytest.raises(MbflError, match="^mutant m2: no statement mapping$"):
            localize("bug", ORIGINAL, mutants, {"m1": 1})


class TestFoldPerStatement:
    def two_mutants_on_statement_5(self):
        """m1 (failed_m 1) and m2 (failed_m 2) on 5, m3 (passed_m 1) on 9."""
        mutants = kill_matrix(
            ORIGINAL, m1=vector(t1="pass", t2="fail", t3="pass", t4="pass"),
            m2=vector(t1="pass", t2="pass", t3="pass", t4="pass"),
            m3=vector(t1="fail", t2="fail", t3="fail", t4="pass"))
        return scores(ORIGINAL, mutants, {"m1": 5, "m2": 5, "m3": 9})

    def test_muse_takes_mean(self):
        # f2p 3, p2f 1: m1 scores 1, m2 2 and m3 -3.
        assert self.two_mutants_on_statement_5()["muse"] == {5: 1.5, 9: -3.0}

    def test_metallaxis_takes_maximum(self):
        # m1 scores 1/sqrt(2), m2 2/sqrt(4) and m3 0.
        assert self.two_mutants_on_statement_5()["metallaxis"] == {5: 1.0, 9: 0.0}

    def test_mutantless_statements_score_zero_in_their_given_order(self):
        # m1 (failed_m 2) on 9, inside the statement space; m2 (no flip) on
        # 3, outside it, comes after the space.
        mutants = kill_matrix(ORIGINAL, m1=vector(t1="pass", t2="pass", t3="pass",
                                                  t4="pass"), m2=ORIGINAL)
        by_method = scores(ORIGINAL, mutants, {"m1": 9, "m2": 3}, statements=[6, 9, 7])
        assert {method: list(by_statement.items())
                for method, by_statement in by_method.items()} == {
            "muse": [(6, 0.0), (9, 2.0), (7, 0.0), (3, 0.0)],
            "metallaxis": [(6, 0.0), (9, 1.0), (7, 0.0), (3, 0.0)]}


def shuffled_matrix(table, tests, rng):
    """The kill matrix of ``table`` with its rows and columns shuffled."""
    mutants, columns = sorted(table), list(tests)
    rng.shuffle(mutants)
    rng.shuffle(columns)
    kills = np.array([[t in table[m] for t in columns] for m in mutants],
                     dtype=bool).reshape(len(mutants), len(columns))
    return KillMatrix("B", tuple(mutants), tuple(columns), kills)


def oracle_localize(table, original, statement_of, statements):
    """{method: (statement scores, expected ranks)} from the oracles alone:
    flips read off the rebuilt outcomes, each mutant scored in id order,
    MUSE averaged and Metallaxis maximized per statement, the statements
    with no mutant padded with 0, then ranked with ties averaged."""
    outcomes = oracle_mutant_outcomes(table, original)
    flips = {m: (sum(original[t] == "fail" and outcomes[m][t] == "pass" for t in original),
                 sum(original[t] == "pass" and outcomes[m][t] == "fail" for t in original))
             for m in table}
    totalfailed = sum(status == "fail" for status in original.values())
    f2p = sum(failed for failed, _ in flips.values())
    p2f = sum(passed for _, passed in flips.values())
    muse, metallaxis = {}, {}
    for m in sorted(table):
        failed, passed = flips[m]
        muse.setdefault(statement_of[m], []).append(oracle_muse(failed, passed, f2p, p2f))
        metallaxis.setdefault(statement_of[m], []).append(
            oracle_metallaxis(failed, passed, totalfailed))
    result = {}
    for method, per_statement, fold in (("muse", muse, lambda v: sum(v) / len(v)),
                                        ("metallaxis", metallaxis, max)):
        statement_scores = {s: 0.0 for s in statements}
        for statement, values in per_statement.items():
            statement_scores[statement] = fold(values)
        result[method] = (statement_scores, oracle_tie_ranks(statement_scores))
    return result


@st.composite
def buggy_kill_tables(draw):
    """A kill table, buggy-version outcomes with a failing test, a statement
    map and a statement space that may or may not cover it."""
    tests = [f"t{j}" for j in range(draw(st.integers(1, 8)))]
    killed = draw(st.lists(st.sets(st.sampled_from(tests)), max_size=12))
    table = {f"m{i:02d}": set(tests_killed) for i, tests_killed in enumerate(killed)}
    statuses = draw(st.lists(st.sampled_from(["pass", "fail"]),
                             min_size=len(tests), max_size=len(tests)))
    original = dict(zip(tests, statuses))
    original[draw(st.sampled_from(tests))] = "fail"
    statement_of = {m: draw(st.integers(1, 4)) for m in table}
    statements = draw(st.lists(st.integers(1, 7), max_size=8))
    return table, tests, original, statement_of, statements


@given(case=buggy_kill_tables(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_localize_on_shuffled_rows_matches_the_oracle(case, seed):
    table, tests, original, statement_of, statements = case
    matrix = shuffled_matrix(table, tests, random.Random(seed))
    reports = localize("B", TestOutcomeVector(original), matrix, statement_of,
                       statements)
    expected = oracle_localize(table, original, statement_of, statements)
    assert list(reports) == list(AGGREGATION_METHODS)
    for method, report in reports.items():
        expected_scores, expected_ranks = expected[method]
        # The order too: the space first, then statements by first mutant id.
        assert list(report.scores.items()) == list(expected_scores.items())
        assert report.expected_ranks == expected_ranks


class TestMuseScore:
    def test_hand_value(self):
        assert muse_score(failed_m=2, passed_m=1, f2p=4, p2f=2) == 0.0

    def test_no_passed_flips_leaves_failed_count(self):
        assert muse_score(failed_m=3, passed_m=0, f2p=9, p2f=5) == 3.0

    def test_zero_p2f_drops_penalty_term(self):
        assert muse_score(failed_m=1, passed_m=3, f2p=2, p2f=0) == 1.0

    def test_matches_oracle_on_random_counts(self):
        rng = random.Random(501)
        for _ in range(300):
            failed_m = rng.randint(0, 10)
            passed_m = rng.randint(0, 10)
            f2p = rng.randint(failed_m, 40)
            p2f = rng.randint(0, 40)
            assert muse_score(failed_m, passed_m, f2p, p2f) == pytest.approx(
                oracle_muse(failed_m, passed_m, f2p, p2f))


class TestMetallaxisScore:
    def test_hand_value(self):
        assert metallaxis_score(failed_m=1, passed_m=0, totalfailed=4) == \
            pytest.approx(0.5)

    def test_no_failed_flips_scores_zero(self):
        assert metallaxis_score(failed_m=0, passed_m=3, totalfailed=4) == 0.0

    def test_full_flip_scores_one(self):
        assert metallaxis_score(failed_m=4, passed_m=0, totalfailed=4) == \
            pytest.approx(1.0)

    def test_zero_denominator_scores_zero(self):
        assert metallaxis_score(failed_m=0, passed_m=0, totalfailed=4) == 0.0

    def test_bounded_and_maximal_only_at_full_flip(self):
        rng = random.Random(502)
        for _ in range(300):
            totalfailed = rng.randint(1, 10)
            failed_m = rng.randint(0, totalfailed)
            passed_m = rng.randint(0, 10)
            value = metallaxis_score(failed_m, passed_m, totalfailed)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(
                oracle_metallaxis(failed_m, passed_m, totalfailed))
            if value == pytest.approx(1.0):
                assert failed_m == totalfailed and passed_m == 0


class TestRank:
    def test_tie_group_shares_expected_rank(self):
        ranks = rank({1: 0.9, 2: 0.5, 3: 0.5})
        assert ranks == {1: 1.0, 2: 2.5, 3: 2.5}

    def test_distinct_scores_get_integer_ranks(self):
        ranks = rank({1: 0.1, 2: 0.9, 3: 0.4})
        assert ranks == {2: 1.0, 3: 2.0, 1: 3.0}

    def test_all_equal_scores_share_middle_rank(self):
        ranks = rank({s: 0.5 for s in range(1, 6)})
        assert all(value == 3.0 for value in ranks.values())

    def test_ranks_sum_to_triangular_number(self):
        rng = random.Random(503)
        for _ in range(200):
            n = rng.randint(1, 20)
            scores = {s: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
                      for s in range(n)}
            ranks = rank(scores)
            assert sum(ranks.values()) == pytest.approx(n * (n + 1) / 2)

    def test_matches_oracle_tie_ranks(self):
        rng = random.Random(504)
        for _ in range(200):
            n = rng.randint(1, 15)
            scores = {s: rng.choice([0.1, 0.2, 0.3]) for s in range(n)}
            assert rank(scores) == oracle_tie_ranks(scores)


@settings(max_examples=200, deadline=None)
@given(scores=st.dictionaries(
    st.integers(0, 400),
    st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(allow_nan=False),
    max_size=400))
def test_rank_matches_the_oracle_with_keys_in_rank_order(scores):
    ranks = rank(scores)
    assert ranks == oracle_tie_ranks(scores)
    assert list(ranks) == sorted(scores, key=lambda s: (-scores[s], s))


class TestLocalize:
    def build_single_fault_instance(self):
        # Statement 4 is faulty: only its mutants flip the failing test.
        original = vector(t1="fail", t2="pass", t3="pass")
        mutants = kill_matrix(
            original,
            m1=vector(t1="pass", t2="pass", t3="pass"),
            m2=vector(t1="pass", t2="pass", t3="pass"),
            m3=vector(t1="fail", t2="fail", t3="pass"),
            m4=vector(t1="fail", t2="pass", t3="pass"),
        )
        statement_of = {"m1": 4, "m2": 4, "m3": 9, "m4": 12}
        return original, mutants, statement_of

    @pytest.mark.parametrize("method", ["muse", "metallaxis"])
    def test_single_fault_statement_ranks_first(self, method):
        original, mutants, statement_of = self.build_single_fault_instance()
        report = localize("bug-1", original, mutants, statement_of,
                          faulty_statements=[4])[method]
        assert report.expected_ranks[4] == 1.0
        assert report.faulty_ranks() == [1.0]

    def test_statement_universe_padding(self):
        original, mutants, statement_of = self.build_single_fault_instance()
        reports = localize("bug-1", original, mutants, statement_of,
                           statements=iter(range(1, 15)))
        for report in reports.values():
            assert set(report.scores) == set(range(1, 15))
            assert report.scores[1] == 0.0

    def test_every_method_is_ranked_with_the_faulty_statements(self):
        original, mutants, statement_of = self.build_single_fault_instance()
        reports = localize("bug-1", original, mutants, statement_of,
                           faulty_statements=iter([4]))
        assert list(reports) == list(AGGREGATION_METHODS)
        assert all(report.faulty_statements == {4} for report in reports.values())

    def test_a_missing_faulty_statement_is_left_out_of_the_ranks(self):
        original, mutants, statement_of = self.build_single_fault_instance()
        report = localize("bug-1", original, mutants, statement_of,
                          faulty_statements=[4, 99])["muse"]
        assert 99 not in report.expected_ranks
        assert report.faulty_ranks() == [1.0]


def report_with_ranks(bug_id, rank_of_faulty, universe=10):
    """A ranked report whose faulty statements land at the given ranks."""
    scores = {s: float(universe - s) for s in range(1, universe + 1)}
    ranks = rank(scores)
    faulty = [s for s, r in ranks.items() if r in rank_of_faulty]
    assert len(faulty) == len(rank_of_faulty)
    return SuspiciousnessReport(bug_id=bug_id, scores=scores,
                                expected_ranks=ranks,
                                faulty_statements=frozenset(faulty))


class TestFlMetrics:
    def test_perfect_localization(self):
        assert fl_metrics([report_with_ranks("b1", [1.0])]) == {
            "top_k": {"1": 1, "3": 1, "5": 1}, "mar": 1.0, "mfr": 1.0,
            "first_rank_mean": 1.0, "evaluated_bugs": 1, "excluded_bugs": []}

    def test_two_bugs_hand_aggregation(self):
        reports = [report_with_ranks("b1", [2.0]), report_with_ranks("b2", [4.0])]
        metrics = fl_metrics(reports)
        assert metrics["top_k"]["3"] == 1
        assert metrics["mfr"] == 3.0

    def test_multi_fault_bug_contributions(self):
        metrics = fl_metrics([report_with_ranks("b1", [2.0, 6.0])])
        assert metrics["mfr"] == 2.0
        assert metrics["mar"] == 4.0

    def test_topk_monotone_in_k(self):
        rng = random.Random(505)
        reports = [report_with_ranks(f"b{i}", [float(rng.randint(1, 10))])
                   for i in range(20)]
        best = [min(report.faulty_ranks()) for report in reports]
        top_k = fl_metrics(reports)["top_k"]
        assert top_k == {str(k): sum(rank <= k for rank in best) for k in (1, 3, 5)}
        assert top_k["1"] <= top_k["3"] <= top_k["5"]

    def test_bug_with_no_present_faulty_statement_is_excluded(self):
        good = report_with_ranks("b1", [2.0])
        orphan = SuspiciousnessReport(
            bug_id="b2", scores={1: 0.5},
            expected_ranks={1: 1.0}, faulty_statements=frozenset([42]))
        metrics = fl_metrics([good, orphan])
        assert metrics["excluded_bugs"] == ["b2"]
        assert metrics["evaluated_bugs"] == 1
        assert metrics["mfr"] == 2.0

    def test_all_bugs_excluded_raises(self):
        orphan = SuspiciousnessReport(
            bug_id="b1", scores={1: 0.5},
            expected_ranks={1: 1.0}, faulty_statements=frozenset([42]))
        with pytest.raises(MbflError, match="excluded"):
            fl_metrics([orphan])

    def test_empty_reports_raise(self):
        with pytest.raises(MbflError, match="no reports"):
            fl_metrics([])

    def test_report_without_ground_truth_raises(self):
        bare = SuspiciousnessReport(
            bug_id="b1", scores={1: 0.5},
            expected_ranks={1: 1.0})
        with pytest.raises(MbflError, match="no faulty statements"):
            fl_metrics([bare])


class TestMbflSection:
    def per_bug(self):
        """b1 ranks under metallaxis; under muse its faulty statement is
        missing from the ranking, so muse has no bug to average."""
        orphan = SuspiciousnessReport(
            bug_id="b1", scores={1: 0.5},
            expected_ranks={1: 1.0}, faulty_statements=frozenset([42]))
        ranked = report_with_ranks("b1", [2.0])
        return {"b1": {"muse": orphan, "metallaxis": ranked}}

    def test_an_aggregation_error_becomes_a_warning(self):
        warnings = []
        section = mbfl_section(self.per_bug(), warnings)
        assert warnings == ["mbfl: muse: every bug was excluded; no ranks to average"]
        assert section["metrics"]["muse"] is None
        assert section["metrics"]["metallaxis"]["mfr"] == 2.0
        assert section["per_bug"]["b1"]["muse"]["faulty_ranks"] == []

    def test_without_a_warnings_list_the_error_is_raised(self):
        with pytest.raises(MbflError, match="every bug was excluded"):
            mbfl_section(self.per_bug())
