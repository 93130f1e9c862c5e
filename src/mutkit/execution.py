"""Suite execution against original and mutated programs, and kill matrices.

The test runner is a pluggable external command that prints one status line
per test (``<test-id> PASS|FAIL``); a kill is a pass/fail status flip
relative to the original program.  Matrices can also be loaded from
externally produced files, so every metric module works without any
compiler or test runner installed.

``run_queue`` runs an evaluation's compiles and suite runs on one worker
pool behind a content-addressed result cache, so identical runs start one
process and a rerun on unchanged inputs starts none.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .validity import _run_on_source, check_compile

_STATUS_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s*$")


class RunnerError(Exception):
    """Raised when the external runner crashes or emits ambiguous output."""


class MatrixError(Exception):
    """Raised for inconsistent or malformed kill matrices."""


@dataclass
class TestOutcomeVector:
    """Pass/fail outcomes of one program, plus per-test anomaly flags.

    The vector names no program: one run's vector is shared, unchanged, by
    every program with the same source, so the caller names it.
    """

    __test__ = False  # not a pytest class, despite the name

    outcomes: dict[str, str]
    flags: dict[str, str] = field(default_factory=dict)

    def failing(self) -> set[str]:
        return {t for t, status in self.outcomes.items() if status == "fail"}


def parse_outcome_lines(text: str) -> dict[str, str]:
    """Parse runner stdout into {test-id: pass|fail}.

    Non-matching lines are ignored (runners may log freely); duplicate
    test ids are an error because the outcome would be ambiguous.
    """
    outcomes: dict[str, str] = {}
    for line in text.splitlines():
        match = _STATUS_LINE.match(line.strip())
        if not match:
            continue
        test_id, status = match.group(1), match.group(2)
        if test_id in outcomes:
            raise RunnerError(f"ambiguous outcome: duplicate status line for {test_id}")
        outcomes[test_id] = status.lower()
    return outcomes


def run_suite(program_source: str, test_command: str, *, program_id: str,
              expected_tests: list[str] | None = None,
              timeout: float | None = None) -> TestOutcomeVector:
    """Run the external test command against one program source.

    Args:
        program_source: the full program text; written to an isolated
            temporary ``.java`` file substituted for {source} in the
            command.
        test_command: command template emitting one status line per test.
        program_id: the program's name in errors (original or a mutant id).
        expected_tests: the bug's full test-id list; tests the runner did
            not report are recorded as FAIL with a flag (missing, or
            timeout when the run was cut off).
        timeout: per-program wall-clock cutoff in seconds.

    The runner's stdout is decoded as UTF-8, bytes that are not UTF-8
    replaced, whether the run finished or timed out.

    Raises:
        RunnerError: on crash with no status lines, unknown test ids, or
            duplicate status lines.
    """
    status, stdout = _run_on_source(test_command, program_source, timeout,
                                    what="test", error=RunnerError)
    timed_out = status is None
    outcomes = parse_outcome_lines(stdout.decode("utf-8", "replace"))
    if not outcomes and not timed_out:
        raise RunnerError(
            f"runner produced no test outcomes for {program_id}")
    flags: dict[str, str] = {}
    if expected_tests is not None:
        unknown = set(outcomes) - set(expected_tests)
        if unknown:
            raise RunnerError(
                f"runner reported unknown test ids: {sorted(unknown)}")
        for test_id in expected_tests:
            if test_id not in outcomes:
                outcomes[test_id] = "fail"
                flags[test_id] = "timeout" if timed_out else "missing"
    elif timed_out:
        raise RunnerError(
            f"run timed out for {program_id} and no expected test list "
            f"was given to complete the vector")
    return TestOutcomeVector(outcomes=outcomes, flags=flags)


_ID_WS = re.compile(r"\s")


def _check_ids(ids: tuple[str, ...], what: str) -> None:
    unique = set(ids)
    if len(unique) == len(ids) and "" not in unique \
            and not _ID_WS.search("".join(ids)):
        return
    seen = set()  # some id is bad: walk the ids to name the first one
    for one_id in ids:
        if not one_id or _ID_WS.search(one_id):
            raise MatrixError(f"{what} id {one_id!r} is empty or has whitespace")
        if one_id in seen:
            raise MatrixError(f"duplicate {what} id {one_id!r}")
        seen.add(one_id)


@dataclass
class KillMatrix:
    """Boolean kill matrix: rows are mutants, columns are tests."""

    bug_id: str
    mutant_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    kills: np.ndarray

    def __post_init__(self):
        _check_ids(self.mutant_ids, "mutant")
        _check_ids(self.test_ids, "test")
        self.kills = np.asarray(self.kills, dtype=bool)

    def sorted_copy(self) -> "KillMatrix":
        """Canonical form with mutant and test ids sorted."""
        mutant_order = sorted(range(len(self.mutant_ids)),
                              key=lambda i: self.mutant_ids[i])
        test_order = sorted(range(len(self.test_ids)),
                            key=lambda j: self.test_ids[j])
        cells = self.kills[np.ix_(mutant_order, test_order)]
        return KillMatrix(
            bug_id=self.bug_id,
            mutant_ids=tuple(self.mutant_ids[i] for i in mutant_order),
            test_ids=tuple(self.test_ids[j] for j in test_order),
            kills=cells,
        )


def build_kill_matrix(original: TestOutcomeVector,
                      mutants: dict[str, TestOutcomeVector],
                      bug_id: str) -> KillMatrix:
    """Assemble the kill matrix: cell = status XOR against the original.

    On a fixed version the original is all-pass, so a kill is simply a
    failing test on the mutant; on a buggy version a mutant making an
    originally failing test pass is also a kill (the f2p case).

    Rows follow the order of ``mutants``, which maps mutant id to vector.

    Raises:
        MatrixError: if any mutant's test-id set differs from the original's.
    """
    test_ids = tuple(sorted(original.outcomes))
    rows = []
    for mutant_id, vector in mutants.items():
        if set(vector.outcomes) != set(test_ids):
            raise MatrixError(f"test-id mismatch between original and {mutant_id}")
        rows.append([vector.outcomes[t] != original.outcomes[t] for t in test_ids])
    cells = np.array(rows, dtype=bool) if rows else np.zeros((0, len(test_ids)), dtype=bool)
    return KillMatrix(bug_id=bug_id, mutant_ids=tuple(mutants), test_ids=test_ids,
                      kills=cells)


def save_matrix(matrix: KillMatrix, path: str) -> None:
    """Write the matrix in canonical (id-sorted) text form."""
    canonical = matrix.sorted_copy()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("MUTANTS " + " ".join(canonical.mutant_ids) + "\n")
        handle.write("TESTS " + " ".join(canonical.test_ids) + "\n")
        for row in canonical.kills:
            handle.write("".join("1" if hit else "0" for hit in row) + "\n")


def load_matrix(path: str) -> KillMatrix:
    """Read a matrix file; cells follow the header ids, not positions, and
    the bug id is the file's stem, as in ``<bug_id>.matrix``."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixError(f"cannot read matrix file {path}: {exc}") from exc
    lines = [line for line in lines if line.strip()]
    if len(lines) < 2:
        raise MatrixError(f"matrix file {path} is empty or missing headers")
    if not lines[0].startswith("MUTANTS ") and lines[0] != "MUTANTS":
        raise MatrixError(f"matrix file {path}: first line must start with MUTANTS")
    if not lines[1].startswith("TESTS ") and lines[1] != "TESTS":
        raise MatrixError(f"matrix file {path}: second line must start with TESTS")
    mutant_ids = tuple(lines[0].split()[1:])
    test_ids = tuple(lines[1].split()[1:])
    rows = [row.strip() for row in lines[2:]]
    if len(rows) != len(mutant_ids):
        raise MatrixError(
            f"matrix file {path}: {len(mutant_ids)} mutants but {len(rows)} rows")
    width = len(test_ids)
    sized = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    # One parse for every row before the first one of the wrong length.
    # Non-ASCII characters become "?" and uint8 wraps, so every cell but
    # "0" and "1" ends up above 1.
    bits = np.frombuffer("".join(rows[:sized]).encode("ascii", errors="replace"),
                         dtype=np.uint8).reshape(sized, width) - ord("0")
    bad = np.flatnonzero((bits > 1).any(axis=1))
    first_bad = int(bad[0]) if len(bad) else sized
    if first_bad < len(rows):
        raise MatrixError(
            f"matrix file {path}: row {first_bad + 1} is not {width} 0/1 cells")
    return KillMatrix(bug_id=Path(path).stem, mutant_ids=mutant_ids,
                      test_ids=test_ids, kills=bits.astype(bool))


def _outcome_lines(outcomes: dict[str, str]) -> str:
    return "".join(f"{test_id} {outcomes[test_id].upper()}\n"
                   for test_id in sorted(outcomes))


def save_outcomes(vector: TestOutcomeVector, path: str) -> None:
    """Persist an outcome vector in the runner's own line protocol."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_outcome_lines(vector.outcomes))


def load_outcomes(path: str) -> TestOutcomeVector:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RunnerError(f"cannot read outcomes file {path}: {exc}") from exc
    outcomes = parse_outcome_lines(text)
    if not outcomes:
        raise RunnerError(f"outcomes file {path} has no status lines")
    return TestOutcomeVector(outcomes=outcomes)


def _run_key(kind: str, command: str, expected_tests: list[str] | None,
             source: str) -> str:
    # The constant ".java" keeps every key equal to the name its run is
    # already stored under in existing runs/ directories.
    payload = json.dumps([kind, command, ".java",
                          None if expected_tests is None else sorted(expected_tests),
                          source])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _read_compile(text: str) -> bool | None:
    return {"ok\n": True, "fail\n": False}.get(text)


def _read_outcomes(text: str, expected_tests: list[str] | None,
                   ) -> TestOutcomeVector | None:
    """The vector of a stored suite run; None unless the text is exactly
    what ``_outcome_lines`` writes for the expected tests."""
    try:
        outcomes = parse_outcome_lines(text)
    except RunnerError:
        return None
    if not outcomes or _outcome_lines(outcomes) != text:
        return None
    if expected_tests is not None and set(outcomes) != set(expected_tests):
        return None
    return TestOutcomeVector(outcomes=outcomes)


class _RunQueue:
    """Compile checks and suite runs on one worker pool, cached on disk.

    A run's key is the sha256 of its kind, command template, expected test
    list (suites only) and source text.  Submissions with the same key
    get one shared future, whose result no caller may change; a finished
    run is stored as ``<directory>/<key>`` (temp file, then
    ``os.replace``) and later submissions read it back without starting a
    process.  A stored file that does not parse is a miss and is
    overwritten.  Nothing is stored for a timed-out compile, a suite vector
    with timeout or missing flags, or a run that raised; errors surface
    from ``Future.result()``.  Submit from one thread.
    """

    def __init__(self, directory: Path, workers: int):
        self.directory = directory
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._runs: dict[str, Future] = {}

    def __enter__(self) -> "_RunQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(cancel_futures=True)

    def compile(self, source: str, command: str, *, timeout: float) -> Future:
        """Future of whether ``source`` compiles; a timeout counts as no."""
        key = _run_key("compile", command, None, source)
        return self._run(key, _read_compile, self._compile, source, command, timeout)

    def suite(self, source: str, command: str, *, program_id: str,
              expected_tests: list[str] | None = None,
              timeout: float | None = None) -> Future:
        """Future of ``run_suite``'s vector for ``source``; ``program_id``
        names the program in the errors of the run this call starts."""
        key = _run_key("suite", command, expected_tests, source)
        return self._run(key, lambda text: _read_outcomes(text, expected_tests),
                         self._suite, source, command, program_id, expected_tests,
                         timeout)

    def _run(self, key: str, read, run, *args) -> Future:
        """The future under ``key``: its stored result, read back by
        ``read`` (None for a miss), or else one submission of ``run``."""
        if key not in self._runs:
            stored = read(self._stored(key))
            if stored is None:
                future = self._pool.submit(run, key, *args)
            else:
                future = Future()
                future.set_result(stored)
            self._runs[key] = future
        return self._runs[key]

    def _compile(self, key, source, command, timeout) -> bool:
        result = check_compile(source, command, timeout=timeout)
        if not result.timed_out:
            self._store(key, "ok\n" if result.ok else "fail\n")
        return result.ok

    def _suite(self, key, source, command, program_id, expected_tests,
               timeout) -> TestOutcomeVector:
        vector = run_suite(source, command, program_id=program_id,
                           expected_tests=expected_tests, timeout=timeout)
        if not vector.flags:
            self._store(key, _outcome_lines(vector.outcomes))
        return vector

    def _stored(self, key: str) -> str:
        try:
            return (self.directory / key).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return ""

    def _store(self, key: str, text: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(dir=self.directory, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as out:
                out.write(text)
            os.replace(temp, self.directory / key)
        except BaseException:
            os.unlink(temp)
            raise


def run_queue(directory: str | Path, workers: int) -> _RunQueue:
    """A run queue with ``workers`` threads caching results in ``directory``;
    use it as a context manager, which cancels what is still queued on exit.

    The queue's methods are not module attributes, so a tracer that wraps
    this module's public functions sees each ``check_compile`` and
    ``run_suite`` call as a child of the code waiting for it.
    """
    return _RunQueue(Path(directory), workers)
