"""Kill-matrix-guided test-case prioritization and APFD.

Three greedy strategies order a bug's tests: GRK maximizes additional
killed mutants, GRD maximizes additional distinguished mutant pairs (a
test distinguishes a pair when it kills exactly one of the two), and
HYB-omega takes a normalized weighted sum of both gains.  When no
remaining test adds anything, the covered sets reset and the greedy
continues, so every strategy yields a total ordering.

Pairs are never stored: the tests chosen so far split the mutants into
classes with equal kill patterns, and a test killing k of a class's n
mutants distinguishes k * (n - k) new pairs.  GRD and HYB keep each
class's per-test kill counts and every test's pair gain, and a pick
updates only the classes it splits (partition refinement), so for M
mutants and T tests a step costs O(M + T) plus O(c * s * T) for the
rows of the s mutants it moves into c new classes or newly covers.
Recounting every class on each step cost O(M * T) instead.
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


def _greedy(matrix: KillMatrix, strategy: str, weight: float) -> PrioritizedSuite:
    if not matrix.test_ids:
        raise TcpError(f"bug {matrix.bug_id}: matrix has no tests")
    # Columns in test-id order, so argmax breaks score ties by id.
    by_id = sorted(range(len(matrix.test_ids)), key=matrix.test_ids.__getitem__)
    test_ids = [matrix.test_ids[j] for j in by_id]
    kills = matrix.kills[:, by_id]
    mutant_count, test_count = kills.shape
    pair_count = mutant_count * (mutant_count - 1) // 2
    by_pairs = strategy != "GRK"
    # Every gain is an integer held exactly in a float, so the scores are
    # the floats an integer recount would give.
    weights = kills.astype(float)
    columns = np.ascontiguousarray(kills.T)

    chosen = np.zeros(test_count, dtype=bool)
    covered = np.zeros(mutant_count, dtype=bool)
    # Mutants no chosen test has told apart share a class label, and
    # counts[c, t] is how many of class c's mutants test t kills; GRK never
    # reads it, so it gets a single row.
    classes = np.zeros(mutant_count, dtype=np.intp)
    counts = np.zeros((mutant_count + 1 if by_pairs else 1, test_count))
    totals = weights.sum(axis=0)
    order: list[str] = []
    step_kills: list[int] = []
    step_pairs: list[int] = []

    def fresh():
        covered[:] = False
        classes[:] = 0
        counts[0] = totals
        # gain[t] is the pairs test t splits: k * (n - k) over the classes.
        return np.bincount(classes), totals.copy(), totals * (mutant_count - totals)

    def scores() -> np.ndarray:
        if strategy == "GRK":
            step_scores = kill_gain.copy()
        elif strategy == "GRD":
            step_scores = gain.copy()
        else:
            # Without mutants (or pairs) every gain is 0, so dividing by 1 is exact.
            step_scores = (weight * (kill_gain / max(mutant_count, 1))
                           + (1.0 - weight) * (gain / max(pair_count, 1)))
        step_scores[chosen] = -np.inf
        return step_scores

    sizes, kill_gain, gain = fresh()
    for _ in range(test_count):
        step_scores = scores()
        j = int(step_scores.argmax())
        # Splitting a class takes a kill, so covered also tracks pairs.
        if step_scores[j] <= 0 and covered.any():
            sizes, kill_gain, gain = fresh()
            j = int(scores().argmax())
        chosen[j] = True
        column = columns[j]
        class_count = len(sizes)
        if by_pairs:
            killed = counts[:class_count, j].copy()
            pairs = gain[j]
        else:
            killed = np.bincount(classes[column], minlength=class_count)
            pairs = (killed * (sizes - killed)).sum()
        order.append(test_ids[j])
        step_kills.append(int(kill_gain[j]))
        step_pairs.append(int(pairs))
        if pairs:
            # Refine: the killed part of every split class gets a fresh label.
            split = (killed > 0) & (killed < sizes)
            parents = split.nonzero()[0]
            rows = (column & split[classes]).nonzero()[0]
            rank = parents.searchsorted(classes[rows])
            classes[rows] = rank + class_count
            sizes = np.bincount(classes)
            if by_pairs:
                # Only the split classes change: part is what moved, rest
                # what stayed, and each test loses the pairs across them.
                part = (rank == np.arange(parents.size)[:, None]) @ weights[rows]
                rest = counts[parents] - part
                gain -= (sizes[parents] @ part + killed[parents] @ rest
                         - 2 * (part * rest).sum(axis=0))
                counts[parents] = rest
                counts[class_count:class_count + parents.size] = part
        newly = column & ~covered
        if newly.any():
            kill_gain -= weights[newly].sum(axis=0)
            covered |= newly

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
