"""Mutation-based fault localization over buggy-version kill data.

Given the test outcomes of a buggy program and the kill matrix of the
mutants generated on it, every mutant gets a MUSE and a Metallaxis
suspiciousness score from its outcome flips (a kill is a flip).  Scores
aggregate per statement (the physical line the mutant targets),
statements are ranked with expected ranks for tie groups, and rankings
across bugs roll up into Top-k counts and mean ranks.  ``localize``
ranks one bug under both methods from one pass of flip counts, and
``fl_metrics`` returns one method's metrics as the mbfl report writes
them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .execution import KillMatrix, TestOutcomeVector

AGGREGATION_METHODS = ("muse", "metallaxis")
TOP_K = (1, 3, 5)


class MbflError(Exception):
    """Raised for unusable localization inputs."""


@dataclass(frozen=True)
class MutantFLStats:
    """Outcome-flip counts for one mutant against the buggy original.

    failed_m counts tests that fail on the original but pass on the
    mutant; passed_m counts tests that pass on the original but fail on
    the mutant.
    """

    mutant_id: str
    failed_m: int
    passed_m: int


@dataclass(frozen=True)
class FLGlobals:
    """Corpus-wide flip totals shared by every MUSE score."""

    totalfailed: int
    f2p: int
    p2f: int


@dataclass(frozen=True)
class SuspiciousnessReport:
    """Ranked per-statement suspiciousness for one bug."""

    bug_id: str
    scores: dict[int, float]
    expected_ranks: dict[int, float]
    faulty_statements: frozenset[int] = field(default_factory=frozenset)

    def faulty_ranks(self) -> list[float]:
        """Expected ranks of the faulty statements present in the report."""
        return sorted(self.expected_ranks[s] for s in self.faulty_statements
                      if s in self.expected_ranks)


def fl_stats(
    original: TestOutcomeVector,
    matrix: KillMatrix,
    statement_of: Mapping[str, int],
) -> tuple[list[MutantFLStats], FLGlobals]:
    """Per-mutant flip counts plus the shared totals, in mutant-id order.

    A kill flips the original status, so failed_m is a mutant's row sum
    over the tests that fail on the original and passed_m its row sum
    over the tests that pass.

    Args:
        original: outcomes of the buggy program; must have a failing test.
        matrix: the bug's kill matrix over the same tests.
        statement_of: mutant id to the line number it mutates.

    Raises:
        MbflError: when the matrix and the original name different tests,
            the original has no failing test, or a mutant has no
            statement mapping.
    """
    differ = set(matrix.test_ids) ^ set(original.outcomes)
    if differ:
        raise MbflError(
            f"bug {matrix.bug_id}: the kill matrix and the original outcomes "
            f"name different tests: {sorted(differ)}")
    failing = np.array([original.outcomes[t] == "fail" for t in matrix.test_ids],
                       dtype=bool)
    if not failing.any():
        raise MbflError(
            f"program {matrix.bug_id}: no failing test, nothing to localize")
    failed_m = matrix.kills[:, failing].sum(axis=1).tolist()
    passed_m = matrix.kills[:, ~failing].sum(axis=1).tolist()
    stats = []
    for row, mutant_id in sorted(enumerate(matrix.mutant_ids),
                                 key=lambda item: item[1]):
        if mutant_id not in statement_of:
            raise MbflError(f"mutant {mutant_id}: no statement mapping")
        stats.append(MutantFLStats(mutant_id=mutant_id,
                                   failed_m=failed_m[row], passed_m=passed_m[row]))
    globals_ = FLGlobals(totalfailed=int(failing.sum()),
                         f2p=sum(failed_m), p2f=sum(passed_m))
    return stats, globals_


def muse_score(stats: MutantFLStats, globals_: FLGlobals) -> float:
    """MUSE suspiciousness: pass-making flips minus weighted fail-making ones.

    With no pass-to-fail flips anywhere the penalty weight is undefined,
    so the second term drops and the score is just failed_m.
    """
    if globals_.p2f == 0:
        return float(stats.failed_m)
    return stats.failed_m - (globals_.f2p / globals_.p2f) * stats.passed_m


def metallaxis_score(stats: MutantFLStats, totalfailed: int) -> float:
    """Metallaxis suspiciousness, normalized into [0, 1]."""
    denominator = math.sqrt(totalfailed * (stats.failed_m + stats.passed_m))
    if denominator == 0:
        return 0.0
    return stats.failed_m / denominator


def aggregate(
    mutant_scores: Mapping[str, float],
    statement_of: Mapping[str, int],
    method: str,
    statements: Iterable[int] = (),
) -> dict[int, float]:
    """Fold per-mutant scores into per-statement scores.

    MUSE averages the scores of a statement's mutants; Metallaxis takes
    their maximum.  Statements listed in `statements` but carrying no
    mutants score 0.
    """
    if method not in AGGREGATION_METHODS:
        raise MbflError(f"unknown aggregation method {method!r}")
    by_statement: dict[int, list[float]] = {}
    for mutant_id, score in mutant_scores.items():
        if mutant_id not in statement_of:
            raise MbflError(f"mutant {mutant_id}: no statement mapping")
        by_statement.setdefault(statement_of[mutant_id], []).append(score)
    result = {statement: 0.0 for statement in statements}
    for statement, scores in by_statement.items():
        if method == "muse":
            result[statement] = sum(scores) / len(scores)
        else:
            result[statement] = max(scores)
    return result


def rank(scores: Mapping[int, float]) -> dict[int, float]:
    """Expected inspection rank per statement, ties sharing their mean.

    A tie group of size g whose first member sits at 1-based position a
    gets expected rank a + (g - 1) / 2 for every member.
    """
    ordered = sorted(scores, key=lambda s: (-scores[s], s))
    ranks: dict[int, float] = {}
    position = 1
    # Equal scores are adjacent in this order, so each run is one tie group.
    for _, run in groupby(ordered, key=scores.__getitem__):
        group = list(run)
        expected = position + (len(group) - 1) / 2
        for member in group:
            ranks[member] = expected
        position += len(group)
    return ranks


def localize(
    bug_id: str,
    original: TestOutcomeVector,
    matrix: KillMatrix,
    statement_of: Mapping[str, int],
    statements: Iterable[int] = (),
    faulty_statements: Iterable[int] = (),
) -> dict[str, SuspiciousnessReport]:
    """End-to-end localization for one bug: its ranking under each
    aggregation method, keyed by method, from one pass of ``fl_stats``."""
    stats, globals_ = fl_stats(original, matrix, statement_of)
    statements = tuple(statements)
    faulty = frozenset(faulty_statements)
    mutant_scores = {
        "muse": {s.mutant_id: muse_score(s, globals_) for s in stats},
        "metallaxis": {s.mutant_id: metallaxis_score(s, globals_.totalfailed)
                       for s in stats},
    }
    reports = {}
    for method in AGGREGATION_METHODS:
        statement_scores = aggregate(mutant_scores[method], statement_of, method,
                                     statements)
        reports[method] = SuspiciousnessReport(
            bug_id=bug_id, scores=statement_scores,
            expected_ranks=rank(statement_scores), faulty_statements=faulty)
    return reports


def fl_metrics(reports: Iterable[SuspiciousnessReport]) -> dict:
    """Top-k counts, MAR and MFR over per-bug rankings of one method.

    mar averages each bug's mean faulty rank, mfr averages each bug's
    best faulty rank, and first_rank_mean repeats mfr under the literal
    first-rank reading so reports can show both labels side by side.
    Bugs whose faulty statements are all missing from their report are
    excluded from every mean and listed in excluded_bugs; a bug with some
    faulty statements missing counts through its present ones.
    """
    reports = list(reports)
    if not reports:
        raise MbflError("no reports to aggregate")
    top_k = dict.fromkeys(TOP_K, 0)
    first_ranks: list[float] = []
    mean_ranks: list[float] = []
    excluded: list[str] = []
    for report in reports:
        if not report.faulty_statements:
            raise MbflError(f"bug {report.bug_id}: no faulty statements given")
        ranks = report.faulty_ranks()
        if not ranks:
            excluded.append(report.bug_id)
            continue
        best = min(ranks)
        first_ranks.append(best)
        mean_ranks.append(sum(ranks) / len(ranks))
        for k in TOP_K:
            if best <= k:
                top_k[k] += 1
    if not first_ranks:
        raise MbflError("every bug was excluded; no ranks to average")
    mfr = sum(first_ranks) / len(first_ranks)
    return {
        "top_k": {str(k): count for k, count in top_k.items()},
        "mar": sum(mean_ranks) / len(mean_ranks),
        "mfr": mfr,
        "first_rank_mean": mfr,
        "evaluated_bugs": len(first_ranks),
        "excluded_bugs": excluded,
    }
