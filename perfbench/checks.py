"""Output checks that share no code with mutkit.

Each check returns a list of failure messages; an empty list is a pass.
Kill cells are recomputed with toyrunner's own interpreter run in-process,
prioritization gains are recounted along each emitted order, and counts
are compared with the values the generators implied by construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import re
from pathlib import Path

import numpy as np


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare_trees(label: str, previous: dict[str, str] | None,
                  current: dict[str, str]) -> list[str]:
    if previous is None or previous == current:
        return []
    changed = sorted(set(previous) ^ set(current)
                     | {k for k in set(previous) & set(current)
                        if previous[k] != current[k]})
    return [f"{label}: artifact tree differs from the previous run at "
            f"{changed[:3]} ({len(changed)} files)"]


def compare_counts(label: str, got: dict, expected: dict) -> list[str]:
    return [f"{label}: {key} is {got.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if got.get(key) != value]


# ---------------------------------------------------------------- toyrunner

class ToyOracle:
    """toyrunner.py loaded as a module and driven through its own main()."""

    def __init__(self, path: Path):
        spec = importlib.util.spec_from_file_location("perfbench_toyrunner", path)
        self.module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.module)

    def _main(self, argv: list[str]) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.module.main(argv)
        return code, buffer.getvalue()

    def compiles(self, path: Path) -> bool:
        return self._main(["--check", str(path)])[0] == 0

    def outcomes(self, path: Path) -> dict[str, str]:
        code, text = self._main([str(path)])
        if code != 0:
            raise ValueError(f"toyrunner exit {code} on {path}")
        return dict(line.split() for line in text.splitlines() if line.strip())


def _normalized(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip())


def expected_useful(oracle: ToyOracle, method: str, rows: list[dict],
                    mutants_dir: Path) -> set[str]:
    """Useful mutant ids of one bug: compilable and not duplicates.

    A duplicate repeats the original line, or an earlier (by id) mutant's
    edit of the same line, up to whitespace.
    """
    original = method.split("\n")
    seen: set[tuple[int, str]] = set()
    duplicates: set[str] = set()
    uncompilable: set[str] = set()
    for row in sorted(rows, key=lambda r: r["mutant_id"]):
        line = row["target_line"]
        mutated = (mutants_dir / f"{row['mutant_id']}.java").read_text(
            encoding="utf-8").split("\n")[line - 1]
        key = (line, _normalized(mutated))
        if key[1] == _normalized(original[line - 1]) or key in seen:
            duplicates.add(row["mutant_id"])
        seen.add(key)
        if not oracle.compiles(mutants_dir / f"{row['mutant_id']}.java"):
            uncompilable.add(row["mutant_id"])
    return {row["mutant_id"] for row in rows} - duplicates - uncompilable


def read_matrix(path: Path) -> tuple[list[str], list[str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split()[1:], lines[1].split()[1:], lines[2:]


def check_toy_evaluation(oracle: ToyOracle, targets: list[dict], out: Path,
                         scratch: Path) -> tuple[list[str], int]:
    """Recompute each bug's useful set and kill cells with toyrunner.

    Returns (failures, coupled) where coupled counts the mutants killed by
    at least one bug-revealing test, which is what export-sft exports.
    """
    failures: list[str] = []
    coupled = 0
    manifest = [json.loads(line) for line in
                (out / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
    scratch.mkdir(parents=True, exist_ok=True)
    for target in targets:
        bug = target["bug_id"]
        rows = [r for r in manifest if r["bug_id"] == bug and r["rejection"] is None]
        useful = expected_useful(oracle, target["method"], rows, out / "mutants")
        mutant_ids, test_ids, cells = read_matrix(out / "matrices" / f"{bug}.matrix")
        if set(mutant_ids) != useful:
            failures.append(f"{bug}: matrix rows {sorted(set(mutant_ids) ^ useful)[:3]} "
                            f"disagree with the independent useful set")
            continue
        source = scratch / f"{bug}.java"
        source.write_text(target["method"], encoding="utf-8")
        original = oracle.outcomes(source)
        if sorted(original) != test_ids:
            failures.append(f"{bug}: matrix tests {test_ids} != toyrunner's")
            continue
        if "buggy_method" in target:
            source.write_text(target["buggy_method"], encoding="utf-8")
            buggy = oracle.outcomes(source)
            revealing = {t for t in test_ids if buggy[t] != original[t]}
        else:
            revealing = set(target["bug_revealing_tests"]) & set(test_ids)
        for mutant_id, row in zip(mutant_ids, cells):
            got = oracle.outcomes(out / "mutants" / f"{mutant_id}.java")
            want = "".join("1" if got[t] != original[t] else "0" for t in test_ids)
            if row != want:
                failures.append(f"{bug}/{mutant_id}: kill row {row}, toyrunner says {want}")
            coupled += any(got[t] != original[t] for t in revealing)
    return failures, coupled


# --------------------------------------------------------- prioritization

def _pair_gain(classes: np.ndarray, column: np.ndarray) -> int:
    """Not-yet-distinguished mutant pairs that one test splits.

    Mutants are undistinguished while they share a class; a test splits
    a pair when it kills exactly one of the two.
    """
    killed = np.bincount(classes, weights=column.astype(float)).astype(np.int64)
    sizes = np.bincount(classes)
    return int((killed * (sizes - killed)).sum())


def _refine(classes: np.ndarray, column: np.ndarray) -> np.ndarray:
    return np.unique(classes * 2 + column, return_inverse=True)[1].reshape(-1)


def recount_gains(kills: np.ndarray, order: list[int], strategy: str):
    """Per-step kill and pair gains along an emitted order.

    The covered and distinguished sets restart whenever the emitted test
    adds nothing under the strategy's own score, as the greedy does once
    no remaining test adds anything.
    """
    mutants = kills.shape[0]
    covered = np.zeros(mutants, dtype=bool)
    classes = np.zeros(mutants, dtype=np.int64)
    step_kills, step_pairs = [], []
    for j in order:
        column = kills[:, j].astype(np.int64)
        gains = (int((kills[:, j] & ~covered).sum()), _pair_gain(classes, column))
        useful = {"GRK": gains[0] > 0, "GRD": gains[1] > 0}.get(
            strategy, gains[0] > 0 or gains[1] > 0)
        if not useful and (covered.any() or classes.any()):
            covered[:] = False
            classes[:] = 0
            gains = (int(kills[:, j].sum()), _pair_gain(classes, column))
        step_kills.append(gains[0])
        step_pairs.append(gains[1])
        covered |= kills[:, j]
        classes = _refine(classes, column)
    return step_kills, step_pairs


def check_tcp(bug: str, payload: dict, truth: dict) -> list[str]:
    failures = []
    test_ids = truth["test_ids"]
    position = {t: k for k, t in enumerate(test_ids)}
    detecting = set(truth["revealing"])
    for name, record in sorted(payload["strategies"].items()):
        label = f"tcp {bug} {name}"
        order = record["order"]
        if sorted(order) != sorted(test_ids):
            failures.append(f"{label}: order is not a permutation of the tests")
            continue
        strategy = name[:3] if name.startswith("HYB") else name
        kills, pairs = recount_gains(truth["kills"], [position[t] for t in order],
                                     strategy)
        if kills != record["step_kills"]:
            failures.append(f"{label}: step_kills differ from the recount")
        if pairs != record["step_pairs"]:
            failures.append(f"{label}: step_pairs differ from the recount")
        first = min(k + 1 for k, t in enumerate(order) if t in detecting)
        apfd = 1.0 - first / len(order) + 1.0 / (2 * len(order))
        if not 0.0 <= record["apfd"] <= 1.0 or abs(record["apfd"] - apfd) > 1e-12:
            failures.append(f"{label}: apfd {record['apfd']} (recount {apfd})")
    return failures


def check_metrics(payload: dict, truth: dict) -> list[str]:
    failures = []
    for bug, facts in sorted(truth.items()):
        kills = facts["kills"]
        score = kills.any(axis=1).sum() / kills.shape[0]
        got = payload["per_bug_mutation_score"].get(bug)
        if got is None or abs(got - score) > 1e-12:
            failures.append(f"metrics {bug}: mutation score {got}, recount {score}")
    return failures


def check_mbfl(payload: dict, truth: dict) -> list[str]:
    failures = []
    for bug, facts in sorted(truth.items()):
        for method in ("muse", "metallaxis"):
            scores = payload["per_bug"].get(bug, {}).get(method, {}).get("scores", {})
            missing = {str(line) for line in facts["space"]} - set(scores)
            if missing:
                failures.append(f"mbfl {bug} {method}: {len(missing)} statements unscored")
    for method in ("muse", "metallaxis"):
        if payload["metrics"].get(method) is None:
            failures.append(f"mbfl: {method} metrics missing")
    return failures
