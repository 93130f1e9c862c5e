"""Mutation-based fault localization over buggy-version kill data.

Given the test outcomes of a buggy program and the kill matrix of the
mutants generated on it, ``localize`` walks the mutants once: each gets a
MUSE and a Metallaxis suspiciousness score from its outcome flips (a kill
is a flip, so the flip counts are row sums of the kill matrix), the
scores fold per statement (the physical line the mutant targets), and
statements are ranked with expected ranks for tie groups.  ``fl_metrics``
rolls one method's rankings across bugs up into Top-k counts and mean
ranks, as the mbfl report writes them.
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


def muse_score(failed_m: int, passed_m: int, f2p: int, p2f: int) -> float:
    """MUSE suspiciousness (Moon et al., ICST 2014) of one mutant.

    failed_m counts the tests that fail on the original but pass on the
    mutant, passed_m the tests that pass on the original but fail on it;
    f2p and p2f total those counts over every mutant of the bug.  With no
    pass-to-fail flips anywhere the penalty weight is undefined, so the
    second term drops and the score is just failed_m.
    """
    if p2f == 0:
        return float(failed_m)
    return failed_m - (f2p / p2f) * passed_m


def metallaxis_score(failed_m: int, passed_m: int, totalfailed: int) -> float:
    """Metallaxis-FL suspiciousness (Papadakis & Le Traon, STVR 2015) of
    one mutant, normalized into [0, 1] by the original's failing tests."""
    denominator = math.sqrt(totalfailed * (failed_m + passed_m))
    if denominator == 0:
        return 0.0
    return failed_m / denominator


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
    """Rank one bug's statements under each aggregation method, keyed by
    method, in one pass over its mutants.

    A mutant's failed_m is its kill-matrix row sum over the tests that
    fail on ``original``, its passed_m the sum over those that pass.  Its
    MUSE and Metallaxis scores go to ``statement_of[mutant]`` in mutant-id
    order; a statement takes the mean of its MUSE scores and the maximum
    of its Metallaxis scores, and those of ``statements`` that no mutant
    targets score 0.

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
    totalfailed, f2p, p2f = int(failing.sum()), sum(failed_m), sum(passed_m)
    muse: dict[int, list[float]] = {}
    metallaxis: dict[int, list[float]] = {}
    for row, mutant_id in sorted(enumerate(matrix.mutant_ids),
                                 key=lambda item: item[1]):
        if mutant_id not in statement_of:
            raise MbflError(f"mutant {mutant_id}: no statement mapping")
        statement = statement_of[mutant_id]
        muse.setdefault(statement, []).append(
            muse_score(failed_m[row], passed_m[row], f2p, p2f))
        metallaxis.setdefault(statement, []).append(
            metallaxis_score(failed_m[row], passed_m[row], totalfailed))
    padding = dict.fromkeys(statements, 0.0)
    by_method = {
        "muse": {**padding, **{s: sum(v) / len(v) for s, v in muse.items()}},
        "metallaxis": {**padding, **{s: max(v) for s, v in metallaxis.items()}},
    }
    faulty = frozenset(faulty_statements)
    return {method: SuspiciousnessReport(
                bug_id=bug_id, scores=scores, expected_ranks=rank(scores),
                faulty_statements=faulty)
            for method, scores in by_method.items()}


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
