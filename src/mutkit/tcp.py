"""Kill-matrix-guided test-case prioritization and APFD.

Three greedy strategies order a bug's tests: GRK maximizes additional
killed mutants, GRD maximizes additional distinguished mutant pairs (a
test distinguishes a pair when it kills exactly one of the two), and
HYB-omega takes a normalized weighted sum of both gains.  When no
remaining test adds anything, the covered sets reset and the greedy
continues, so every strategy yields a total ordering.

Pairs are never stored: the tests chosen so far split the mutants into
classes with equal kill patterns, and a test killing k of a class's n
mutants distinguishes k * (n - k) new pairs.  A greedy step costs
O(M * T) and a strategy O(T^2 * M) for M mutants and T tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .execution import KillMatrix

DEFAULT_HYB_WEIGHT = 0.5


class TcpError(Exception):
    """Raised for empty matrices, bad weights, or undetected bugs."""


@dataclass(frozen=True)
class PrioritizedSuite:
    """A total test ordering plus its per-step gain audit trail."""

    strategy: str
    order: tuple[str, ...]
    step_kills: tuple[int, ...]
    step_pairs: tuple[int, ...]

    def __post_init__(self):
        if len(self.order) != len(set(self.order)):
            raise TcpError("ordering repeats a test id")
        if not (len(self.order) == len(self.step_kills) == len(self.step_pairs)):
            raise TcpError("audit trails must align with the ordering")


def _pair_gains(kills: np.ndarray, columns: np.ndarray, classes: np.ndarray,
                sizes: np.ndarray) -> np.ndarray:
    """Undistinguished mutant pairs each given column splits (k * (n - k))."""
    rows = np.flatnonzero(sizes[classes] > 1)
    if rows.size == 0:
        return np.zeros(columns.size, dtype=np.int64)
    rows = rows[np.argsort(classes[rows], kind="stable")]
    labels = classes[rows]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    killed = np.add.reduceat(kills[rows][:, columns], starts, axis=0, dtype=np.int64)
    return (killed * (sizes[labels[starts], None] - killed)).sum(axis=0)


def _greedy(matrix: KillMatrix, strategy: str, weight: float) -> PrioritizedSuite:
    if not matrix.test_ids:
        raise TcpError(f"bug {matrix.bug_id}: matrix has no tests")
    # Columns in test-id order, so argmax breaks score ties by id.
    by_id = sorted(range(len(matrix.test_ids)), key=matrix.test_ids.__getitem__)
    test_ids = [matrix.test_ids[j] for j in by_id]
    kills = matrix.kills[:, by_id]
    mutant_count = kills.shape[0]
    pair_count = mutant_count * (mutant_count - 1) // 2

    remaining = np.arange(len(test_ids))
    covered = np.zeros(mutant_count, dtype=bool)
    # Mutants no chosen test has told apart share a class label.
    classes = np.zeros(mutant_count, dtype=np.int64)
    sizes, kill_gain = np.bincount(classes), kills.sum(axis=0)
    order: list[str] = []
    step_kills: list[int] = []
    step_pairs: list[int] = []

    def scores() -> np.ndarray:
        kills_left = kill_gain[remaining]
        if strategy == "GRK":
            return kills_left.astype(float)
        pair_gain = _pair_gains(kills, remaining, classes, sizes)
        if strategy == "GRD":
            return pair_gain.astype(float)
        # Without mutants (or pairs) every gain is 0, so dividing by 1 is exact.
        return (weight * (kills_left / max(mutant_count, 1))
                + (1.0 - weight) * (pair_gain / max(pair_count, 1)))

    while remaining.size:
        step_scores = scores()
        # Splitting a class takes a kill, so covered also tracks pairs.
        if step_scores.max() <= 0 and covered.any():
            covered[:] = False
            classes[:] = 0
            sizes, kill_gain = np.bincount(classes), kills.sum(axis=0)
            step_scores = scores()
        pick = int(np.argmax(step_scores))
        j = remaining[pick]
        remaining = np.delete(remaining, pick)
        column = kills[:, j]
        killed = np.bincount(classes[column], minlength=len(sizes))
        order.append(test_ids[j])
        step_kills.append(int(kill_gain[j]))
        step_pairs.append(int((killed * (sizes - killed)).sum()))
        # Refine: the killed part of every split class gets a fresh label.
        split = (killed > 0) & (killed < sizes)
        moved = column & split[classes]
        classes[moved] = (np.cumsum(split) + len(sizes) - 1)[classes[moved]]
        sizes = np.bincount(classes)
        kill_gain -= kills[column & ~covered].sum(axis=0)
        covered |= column

    name = {"GRK": "GRK", "GRD": "GRD"}.get(strategy, f"HYB({weight:g})")
    return PrioritizedSuite(strategy=name, order=tuple(order),
                            step_kills=tuple(step_kills),
                            step_pairs=tuple(step_pairs))


def grk(matrix: KillMatrix) -> PrioritizedSuite:
    """Greedy additional-kill prioritization."""
    return _greedy(matrix, "GRK", weight=1.0)


def grd(matrix: KillMatrix) -> PrioritizedSuite:
    """Greedy additional-distinguished-pairs prioritization."""
    return _greedy(matrix, "GRD", weight=0.0)


def check_weight(weight: float) -> None:
    """Reject a HYB weight outside [0, 1]."""
    if not 0.0 <= weight <= 1.0:
        raise TcpError(f"weight must be in [0, 1], got {weight}")


def hyb(matrix: KillMatrix, weight: float = DEFAULT_HYB_WEIGHT) -> PrioritizedSuite:
    """Hybrid prioritization: omega weights kills against pairs.

    Both gains are normalized (kills by the mutant count, pairs by the
    number of mutant pairs) so the weight is scale-free; weight 1 matches
    grk and weight 0 matches grd.
    """
    check_weight(weight)
    return _greedy(matrix, "HYB", weight=weight)


def apfd(order: tuple[str, ...] | list[str], detection: dict[str, set[str]]) -> float:
    """Average percentage of faults detected by a test ordering.

    Args:
        order: the prioritized test ordering (n tests).
        detection: per bug, the set of tests that detect it (r bugs).

    Raises:
        TcpError: if a bug is detected by no test in the ordering.
    """
    if not order:
        raise TcpError("ordering is empty")
    if not detection:
        raise TcpError("no bugs given")
    position = {test_id: k + 1 for k, test_id in enumerate(order)}
    n = len(order)
    r = len(detection)
    total = 0
    for bug_id, detecting in detection.items():
        positions = [position[t] for t in detecting if t in position]
        if not positions:
            raise TcpError(f"bug {bug_id} is not detected by any test in the ordering")
        total += min(positions)
    return 1.0 - total / (n * r) + 1.0 / (2 * n)
