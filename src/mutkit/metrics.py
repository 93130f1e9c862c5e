"""Mutation effectiveness metrics: MS, Ochiai coupling, R.B.D., and friends.

All functions read the boolean kill matrix of one bug, whose rows are
its useful mutants (compilable minus duplicates), plus the bug's set of
bug-revealing tests (the tests that fail on the buggy version), whose
kill columns a BugContext selects once.  Counts are row and column sums
of that matrix; float means add Python floats in row order.
``effectiveness_report`` returns the effectiveness report section as it
is written to ``effectiveness.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .execution import KillMatrix

HIGH_SIMILARITY_THRESHOLD = 0.8


class MetricsError(Exception):
    """Raised for empty mutant sets and inconsistent contexts."""


@dataclass
class BugContext:
    """One bug's kill matrix over its useful mutants plus fT_b.

    revealing_kills holds the kill columns of the bug-revealing tests,
    selected once when the context is built.
    """

    bug_id: str
    matrix: KillMatrix
    bug_revealing_tests: frozenset[str]
    revealing_kills: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bug_revealing_tests = frozenset(self.bug_revealing_tests)
        unknown = self.bug_revealing_tests - set(self.matrix.test_ids)
        if unknown:
            raise MetricsError(
                f"bug {self.bug_id}: revealing tests not in matrix: {sorted(unknown)}")
        self.revealing_kills = self.matrix.kills[:, np.array(
            [t in self.bug_revealing_tests for t in self.matrix.test_ids], dtype=bool)]


def _killed_count(ctx: BugContext) -> int:
    return int(ctx.matrix.kills.any(axis=1).sum())


def mutation_score(ctx: BugContext) -> float:
    """Mutation score: killed mutants over useful mutants."""
    total = len(ctx.matrix.mutant_ids)
    if total == 0:
        raise MetricsError(f"bug {ctx.bug_id}: mutation score needs >= 1 mutant")
    return _killed_count(ctx) / total


def ochiai(shared: int, failing_on_mutant: int, failing_on_bug: int) -> float:
    """Ochiai coefficient of two failing-test sets from their sizes and
    the size of their intersection.

    Defined as 0 when either set is empty (the numerator is already 0).
    """
    if not failing_on_mutant or not failing_on_bug:
        return 0.0
    return shared / math.sqrt(failing_on_mutant * failing_on_bug)


def bug_ochiai(ctx: BugContext) -> float | None:
    """Per-bug mean Ochiai over the useful mutants; None when empty."""
    if not ctx.matrix.mutant_ids:
        return None
    revealing = len(ctx.bug_revealing_tests)
    shared = ctx.revealing_kills.sum(axis=1).tolist()
    killed = ctx.matrix.kills.sum(axis=1).tolist()
    values = [ochiai(s, k, revealing) for s, k in zip(shared, killed)]
    return sum(values) / len(values)


def aoc(per_bug_values: dict[str, float | None]) -> float:
    """Average Ochiai coefficient over bugs with a defined value."""
    defined = [v for v in per_bug_values.values() if v is not None]
    if not defined:
        raise MetricsError("AOC needs at least one bug with a defined Ochiai value")
    return sum(defined) / len(defined)


def real_bug_detection(contexts: list[BugContext]) -> dict[str, float]:
    """Fraction of bug-revealing tests that kill at least one mutant.

    Emits both aggregations: macro is the unweighted mean of per-bug
    fractions, micro pools every bug-revealing test into one fraction.
    """
    fractions: list[float] = []
    detected_total = 0
    revealing_total = 0
    for ctx in contexts:
        if not ctx.bug_revealing_tests:
            raise MetricsError(f"bug {ctx.bug_id} has no bug-revealing tests")
        detected = int(ctx.revealing_kills.any(axis=0).sum())
        fractions.append(detected / len(ctx.bug_revealing_tests))
        detected_total += detected
        revealing_total += len(ctx.bug_revealing_tests)
    return {"macro": sum(fractions) / len(fractions),
            "micro": detected_total / revealing_total}


def coupled_mutants(ctx: BugContext) -> set[str]:
    """Mutants killed by at least one bug-revealing test."""
    hits = ctx.revealing_kills.any(axis=1).tolist()
    return {m for m, hit in zip(ctx.matrix.mutant_ids, hits) if hit}


def coupling_rate(ctx: BugContext) -> float:
    """Fraction of useful mutants coupled to the real bug."""
    total = len(ctx.matrix.mutant_ids)
    if total == 0:
        raise MetricsError(f"bug {ctx.bug_id}: coupling rate needs >= 1 mutant")
    return len(coupled_mutants(ctx)) / total


def high_similarity_count(per_bug_values: dict[str, float | None]) -> int:
    """Count of bugs whose mean Ochiai is at least HIGH_SIMILARITY_THRESHOLD
    (inclusive)."""
    return sum(1 for v in per_bug_values.values()
               if v is not None and v >= HIGH_SIMILARITY_THRESHOLD)


def effectiveness_report(contexts: list[BugContext]) -> dict:
    """The effectiveness report section over the given bugs.

    Bugs with zero useful mutants are excluded from all aggregates and
    listed in excluded_bugs; micro aggregates pool mutants (or revealing
    tests) across bugs, macro aggregates average the per-bug values.
    Per-bug entries are keyed and sorted by bug id.
    """
    active = [ctx for ctx in contexts if ctx.matrix.mutant_ids]
    if not active:
        raise MetricsError("no bug has a non-empty useful mutant set")
    mutant_total = sum(len(ctx.matrix.mutant_ids) for ctx in active)

    per_bug_ms = {ctx.bug_id: mutation_score(ctx) for ctx in active}
    killed_total = sum(_killed_count(ctx) for ctx in active)

    per_bug_ochiai = {ctx.bug_id: bug_ochiai(ctx) for ctx in active}

    coupled = {ctx.bug_id: sorted(coupled_mutants(ctx)) for ctx in active}
    per_bug_coupling = [len(coupled[ctx.bug_id]) / len(ctx.matrix.mutant_ids)
                        for ctx in active]
    coupled_total = sum(len(coupled[ctx.bug_id]) for ctx in active)

    return {
        "mutation_score": {"micro": killed_total / mutant_total,
                           "macro": sum(per_bug_ms.values()) / len(per_bug_ms)},
        "real_bug_detection": real_bug_detection(active),
        "coupling_rate": {"micro": coupled_total / mutant_total,
                          "macro": sum(per_bug_coupling) / len(per_bug_coupling)},
        "bug_ochiai": dict(sorted(per_bug_ochiai.items())),
        "aoc": aoc(per_bug_ochiai),
        "high_similarity_count": high_similarity_count(per_bug_ochiai),
        "per_bug_mutation_score": dict(sorted(per_bug_ms.items())),
        "excluded_bugs": sorted(ctx.bug_id for ctx in contexts
                                if not ctx.matrix.mutant_ids),
        "coupled_mutants": dict(sorted(coupled.items())),
    }
