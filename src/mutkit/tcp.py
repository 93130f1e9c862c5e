"""Kill-matrix-guided test-case prioritization and APFD.

Three greedy strategies order a bug's tests: GRK maximizes additional
killed mutants, GRD maximizes additional distinguished mutant pairs (a
test distinguishes a pair when it kills exactly one of the two), and
HYB-omega takes a normalized weighted sum of both gains.  When no
remaining test adds anything, the covered sets reset and the greedy
continues, so every strategy yields a total ordering.

Pairs are never stored: the tests chosen so far split the mutants into
classes with equal kill patterns, and a test killing k of a class's n
mutants distinguishes k * (n - k) new pairs.  A pick gives the killed
part of every class it splits a fresh label, so class 0 holds the
mutants no chosen test has killed until one pick kills all of it, and a
test's kill gain is its kill count in class 0.  GRD and HYB keep each
class's size and per-test kill counts and every test's pair gain, and a
pick updates only the classes it splits (partition refinement).  Chosen
tests score -inf until they make up half of the live columns; then their
columns are dropped and the rest keep their id order.  For M mutants and
T_live live columns a pick costs O(M + T_live), plus the rows of the
mutants it moves times T_live.
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
    columns = np.ascontiguousarray(kills.T)
    # Every gain is an integer held exactly in a float, so the scores are
    # the floats an integer recount would give.  GRD and HYB give weights
    # a last column of ones: it makes counts[c, -1] class c's size, and a
    # split moves the sizes along with the counts.
    weights = np.ones((mutant_count, test_count + by_pairs))
    weights[:, :test_count] = kills
    totals = weights.sum(axis=0)

    # Column t scores test live[t]; chosen tests score -inf through
    # penalty until they make up half the columns and are compacted away.
    live = np.arange(test_count)
    penalty = np.zeros(test_count)
    buffer = np.empty(test_count)
    dead = 0
    # Mutants no chosen test has told apart share a class label, and
    # counts[c, t] is how many of class c's mutants test t kills; GRK keeps
    # only the sizes.  A split gives the killed part of a class a fresh
    # label, so class 0 holds the mutants no chosen test has killed, until
    # one pick kills all of it (uncovered turns False).
    classes = np.zeros(mutant_count, dtype=np.intp)
    ranks = np.arange(mutant_count + 1)[:, None]
    if by_pairs:
        counts = np.zeros((mutant_count + 1, test_count + 1))
    else:
        sizes = np.zeros(mutant_count + 1, dtype=np.intp)
    order: list[str] = []
    step_kills: list[int] = []
    step_pairs: list[int] = []

    def fresh():
        nonlocal class_count, uncovered, kill_gain, gain
        classes[:] = 0
        class_count, uncovered = 1, True
        if by_pairs:
            counts[0] = totals
            kill_gain = counts[0, :-1]
            # gain[t] is the pairs test t splits: k * (n - k) over the classes.
            gain = kill_gain * (mutant_count - kill_gain)
        else:
            sizes[0] = mutant_count
            kill_gain = totals.copy()

    def scores() -> np.ndarray:
        if strategy == "GRK":
            step_scores = kill_gain
        elif strategy == "GRD":
            step_scores = gain
        else:
            # Without mutants (or pairs) every gain is 0, so dividing by 1 is exact.
            step_scores = (weight * (kill_gain / max(mutant_count, 1))
                           + (1.0 - weight) * (gain / max(pair_count, 1)))
        return np.add(step_scores, penalty, out=buffer)

    fresh()
    for _ in range(test_count):
        if 2 * dead >= live.size:
            keep = penalty == 0
            live = live[keep]
            penalty, buffer, dead = np.zeros(live.size), np.empty(live.size), 0
            if by_pairs:
                gain = gain[keep]
                keep = np.append(keep, True)
                compact = np.empty((mutant_count + 1, live.size + 1))
                compact[:class_count] = counts[:class_count, keep]
                counts = compact
                kill_gain = counts[0, :-1] if uncovered else np.zeros(live.size)
            else:
                kill_gain = kill_gain[keep]
            totals, weights = totals[keep], weights[:, keep]
        step_scores = scores()
        j = int(step_scores.argmax())
        # Only a kill splits a class, so class 0 is whole and unkilled
        # exactly while no chosen test since the last reset killed anything.
        if step_scores[j] <= 0 and (class_count > 1 or not uncovered):
            fresh()
            j = int(scores().argmax())
        penalty[j] = -np.inf
        dead += 1
        column = columns[live[j]]
        if by_pairs:
            killed = counts[:class_count, j]
            size = counts[:class_count, -1]
            pairs = gain[j]
        else:
            killed = np.bincount(classes[column], minlength=class_count)
            size = sizes[:class_count]
            pairs = killed @ (size - killed)
        order.append(test_ids[live[j]])
        step_kills.append(int(killed[0]) if uncovered else 0)
        step_pairs.append(int(pairs))
        if uncovered and killed[0] == size[0] > 0:
            uncovered = False
            kill_gain = np.zeros(live.size)
        if pairs:
            # Refine: the killed part of every split class gets a fresh label.
            split = (killed > 0) & (killed < size)
            parents = split.nonzero()[0]
            rows = (column & split[classes]).nonzero()[0]
            rank = parents.searchsorted(classes[rows])
            classes[rows] = rank + class_count
            born = slice(class_count, class_count + parents.size)
            class_count += parents.size
            if by_pairs:
                # Only the split classes change: part is what moved, rest
                # what stayed (sizes last), and each test loses the pairs
                # across them.
                part = (rank == ranks[:parents.size]) @ weights[rows]
                rest = counts[parents]
                rest -= part
                loss = (rest[:, -1] @ part + part[:, -1] @ rest
                        - 2 * np.einsum("pt,pt->t", part, rest))
                gain -= loss[:-1]
                counts[parents] = rest
                counts[born] = part
            else:
                moved = killed[parents]
                sizes[parents] -= moved
                sizes[born] = moved
                if uncovered and split[0]:
                    # The mutants leaving class 0 are the newly killed ones.
                    kill_gain -= weights[rows[rank == 0]].sum(axis=0)

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
