"""The evaluate stage: validity, kill-matrix execution (or loading),
effectiveness metrics, prioritization and, for buggy-mode runs, fault
localization, replayed over the generation artifacts as deep as one
command goes, into one deterministic report directory.

One function evaluates a bug from its compiles to its revealing tests; it
pauses after each wave of queued runs, so every bug's compiles are queued
before any run is awaited, and a bug's mutant suites are queued as soon as
its own compiles are done.  This module picks the bugs of each section
and the warnings; the payloads come from the analysis modules and
``report``, which also holds the text tables and JSON writer, shared with
the standalone analysis commands.  Configuration and the checked readers
live in ``config``, and the generate stage in ``generate``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from . import execution, mbfl, metrics, report
from .config import (
    PipelineConfig,
    PipelineError,
    TargetSpec,
    check_type,
    load_config,  # noqa: F401  (perfbench calls pipeline.load_config)
    load_mutants,
    load_targets,  # noqa: F401  (perfbench calls pipeline.load_targets)
    pick_targets,
    read_generation,
)
from .execution import (
    KillMatrix,
    TestOutcomeVector,
    build_kill_matrix,
    load_matrix,
    load_outcomes,
    run_suite,  # noqa: F401  (perfbench checks that its recorder wraps this name too)
    save_matrix,
    save_outcomes,
)
from .generate import (
    run_generate,  # noqa: F401  (perfbench calls pipeline.run_generate)
)
from .mbfl import MbflError
from .metrics import BugContext
from .promptgen import Mutant
from .validity import ValidityLedger, dedup


@dataclass
class BugArtifacts:
    """Evaluation inputs reassembled for one bug, and the results that
    ``_evaluate_bug`` fills in."""

    target: TargetSpec
    expected: int
    all_ids: list[str]
    materialized: dict[str, Mutant]
    ledger: ValidityLedger | None = None
    matrix: KillMatrix | None = None
    original: TestOutcomeVector | None = None
    revealing: frozenset[str] = frozenset()


@dataclass
class EvaluateOutcome:
    """Report sections plus the directory they were written to."""

    sections: dict
    out_dir: Path


def _load_bug_artifacts(targets: Sequence[TargetSpec], manifest_dir: Path,
                        ) -> dict[str, BugArtifacts]:
    summary, rows = read_generation(manifest_dir)
    by_bug: dict[str, list[dict]] = {}
    for row in rows:
        by_bug.setdefault(row["bug_id"], []).append(row)
    artifacts: dict[str, BugArtifacts] = {}
    for target in targets:
        target_summary = summary["targets"].get(target.bug_id)
        if target_summary is None:
            raise PipelineError(
                f"bug {target.bug_id} missing from {manifest_dir / 'summary.json'}; "
                f"generate did not cover it")
        expected = target_summary.get("expected")
        what = f"{manifest_dir / 'summary.json'}: bug {target.bug_id}: expected"
        check_type(expected, int, what)
        if expected < 0:
            raise PipelineError(f"{what} must be >= 0, got {expected}")
        bug_rows = by_bug.get(target.bug_id, [])
        artifacts[target.bug_id] = BugArtifacts(
            target=target, expected=expected,
            all_ids=[row["mutant_id"] for row in bug_rows],
            materialized=load_mutants(manifest_dir, bug_rows))
    return artifacts


def _select_rows(matrix: KillMatrix, wanted: list[str]) -> KillMatrix:
    position = {mid: i for i, mid in enumerate(matrix.mutant_ids)}
    missing = [mid for mid in wanted if mid not in position]
    if missing:
        raise PipelineError(
            f"bug {matrix.bug_id}: matrix lacks mutants {missing[:3]}")
    rows = [position[mid] for mid in wanted]
    return KillMatrix(bug_id=matrix.bug_id, mutant_ids=tuple(wanted),
                      test_ids=matrix.test_ids, kills=matrix.kills[rows])


def _evaluate_bug(config: PipelineConfig, bug: BugArtifacts, queue,
                  matrices_dir: Path, through: str):
    """Evaluate one bug as deep as ``through``, yielding after each wave of
    its work.

    The waves are: (1) submit every compile and, past validate, the
    original's suite run; (2) build the validity ledger, where validate
    stops, then submit the useful mutants' suites and, for a report whose
    revealing tests come from it, the buggy version's run; (3) collect the
    runs and save the matrix and the original's outcomes, where execute
    stops, and resolve the revealing tests.  Without a test_command the
    saved matrix is an input, loaded as given in place of the suites.
    The caller advances every bug one wave at a time, so every bug's
    compiles are queued before any is awaited.
    """
    target, bug_id = bug.target, bug.target.bug_id
    ordered = sorted(bug.materialized)
    compiles = {mid: queue.compile(bug.materialized[mid].source, config.compile_command,
                                   timeout=config.timeout)
                for mid in ordered} if config.compile_command else None
    original_run = (queue.suite(target.method, config.test_command, program_id=bug_id,
                                timeout=config.timeout)
                    if through != "validate" and config.test_command else None)
    yield

    duplicates = dedup([bug.materialized[mid] for mid in ordered], target.method)
    compilable = ({mid for mid, run in compiles.items() if run.result()}
                  if compiles is not None else set(bug.materialized))
    bug.ledger = ValidityLedger(
        expected=bug.expected, generated=list(bug.all_ids),
        duplicates=duplicates, compilable=compilable)
    if through == "validate":
        return

    useful = sorted(bug.ledger.useful())
    buggy_run = None
    if config.test_command:
        test_ids = sorted(original_run.result().outcomes)
        mutant_runs = {mid: queue.suite(bug.materialized[mid].source,
                                        config.test_command, program_id=mid,
                                        expected_tests=test_ids, timeout=config.timeout)
                       for mid in useful}
        if through == "report" and config.mode != "buggy" \
                and not target.bug_revealing_tests \
                and target.buggy_method:
            buggy_run = queue.suite(target.buggy_method, config.test_command,
                                    program_id=f"{bug_id}-buggy",
                                    expected_tests=test_ids, timeout=config.timeout)
        yield
        bug.original = original_run.result()
        bug.matrix = build_kill_matrix(
            bug.original, {mid: run.result() for mid, run in mutant_runs.items()}, bug_id)
        matrices_dir.mkdir(parents=True, exist_ok=True)
        save_matrix(bug.matrix, str(matrices_dir / f"{bug_id}.matrix"))
        save_outcomes(bug.original, str(matrices_dir / f"{bug_id}.original.txt"))
    else:
        matrix_path = matrices_dir / f"{bug_id}.matrix"
        if not matrix_path.exists():
            raise PipelineError(
                f"bug {bug_id}: no matrix at {matrix_path} and no test_command "
                f"configured")
        bug.matrix = _select_rows(load_matrix(str(matrix_path)), useful)
        outcomes_path = matrices_dir / f"{bug_id}.original.txt"
        if outcomes_path.exists():
            bug.original = load_outcomes(str(outcomes_path))

    if through == "execute":
        return
    in_matrix = set(bug.matrix.test_ids)
    if config.mode == "buggy":
        if bug.original is None:
            raise PipelineError(
                f"bug {bug_id}: buggy mode needs the original outcome "
                f"vector (missing {bug_id}.original.txt)")
        bug.revealing = frozenset(bug.original.failing())
    elif target.bug_revealing_tests:
        bug.revealing = frozenset(target.bug_revealing_tests) & in_matrix
    elif buggy_run is not None:
        bug.revealing = frozenset(buggy_run.result().failing()) & in_matrix
    else:
        raise PipelineError(
            f"bug {bug_id}: no bug-revealing tests available (provide "
            f"bug_revealing_tests or buggy_method, or run in buggy mode)")


def _effectiveness_contexts(bugs: dict[str, BugArtifacts],
                            warnings: list[str]) -> list[BugContext]:
    contexts = []
    for bug_id in sorted(bugs):
        bug = bugs[bug_id]
        if not bug.revealing:
            warnings.append(f"metrics: bug {bug_id} has no bug-revealing test")
            continue
        contexts.append(BugContext(bug_id=bug_id, matrix=bug.matrix,
                                   bug_revealing_tests=bug.revealing))
    return contexts


def _tcp_section(config: PipelineConfig, bugs: dict[str, BugArtifacts],
                 warnings: list[str]) -> dict:
    strategies = report.tcp_strategies(config.hyb_weight)
    per_bug: dict[str, dict] = {}
    for bug_id in sorted(bugs):
        bug = bugs[bug_id]
        if bug.matrix is None or not bug.matrix.test_ids:
            warnings.append(f"tcp: bug {bug_id} has no kill matrix tests")
            continue
        detection_tests = set(bug.revealing) & set(bug.matrix.test_ids)
        if not detection_tests:
            warnings.append(
                f"tcp: bug {bug_id} has no revealing test in the matrix; "
                f"APFD skipped")
        per_bug[bug_id] = report.tcp_records(
            bug.matrix, strategies,
            {bug_id: detection_tests} if detection_tests else None)
    return report.tcp_section(strategies, per_bug)


def _mbfl_section(bugs: dict[str, BugArtifacts], warnings: list[str]) -> dict:
    per_bug: dict[str, dict] = {}
    for bug_id in sorted(bugs):
        bug = bugs[bug_id]
        if bug.original is None or not bug.original.failing():
            warnings.append(f"mbfl: bug {bug_id} lacks a failing original run")
            continue
        if not bug.target.faulty_lines:
            # Ranked all the same; report.mbfl_section leaves it out of the metrics.
            warnings.append(f"mbfl: bug {bug_id} has no faulty_lines ground truth")
        if not bug.matrix.mutant_ids:
            warnings.append(f"mbfl: bug {bug_id} has no useful mutants")
            continue
        statement_of = {mid: bug.materialized[mid].target_line
                        for mid in bug.matrix.mutant_ids}
        try:
            per_bug[bug_id] = mbfl.localize(
                bug_id, bug.original, bug.matrix, statement_of,
                statements=range(1, bug.expected + 1),
                faulty_statements=bug.target.faulty_lines)
        except MbflError as error:
            warnings.append(f"mbfl: {error}")
    return report.mbfl_section(per_bug, warnings)


def run_evaluate(config: PipelineConfig, targets: Sequence[TargetSpec], *,
                 manifest_dir: str | Path | None = None,
                 out_dir: str | Path | None = None,
                 through: str = "report") -> EvaluateOutcome:
    """Replay persisted generation artifacts as deep as one command goes.

    ``through`` names it: validate writes the validity section; execute
    also builds the kill matrices (or loads them without a test_command);
    report adds effectiveness metrics, prioritization and, for buggy-mode
    runs, fault localization.  Outputs are written deterministically:
    re-running on the same inputs rewrites identical bytes, and a section
    file this run did not write is removed.
    """
    if through not in ("validate", "execute", "report"):
        raise PipelineError(
            f"through must be validate, execute or report, got {through!r}")
    manifest_dir = Path(manifest_dir or config.output_dir)
    matrices_dir = manifest_dir / "matrices"
    out_dir = Path(out_dir) if out_dir else manifest_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    targets = pick_targets(targets, config)
    bugs = _load_bug_artifacts(targets, manifest_dir)
    warnings: list[str] = []
    sections: dict = {"mode": config.mode, "variant": config.variant_label()}

    # Every compile and suite run of every bug goes through one queue.
    with execution.run_queue(matrices_dir / "runs", config.workers) as queue:
        steps = [_evaluate_bug(config, bug, queue, matrices_dir, through)
                 for bug in bugs.values()]
        for _ in range(3):
            for step in steps:
                next(step, None)
    sections["validity"] = report.validity_section(
        {bug_id: (bug.target.project, bug.ledger) for bug_id, bug in bugs.items()})
    report.write_section(out_dir, "validity", sections["validity"], report.validity_text)

    if through == "report":
        contexts = _effectiveness_contexts(bugs, warnings)
        if not contexts:
            warnings.append("metrics: skipped (no bug has a bug-revealing test)")
        elif not any(ctx.matrix.mutant_ids for ctx in contexts):
            warnings.append("metrics: skipped (no bug has a useful mutant)")
        else:
            sections["metrics"] = metrics.effectiveness_report(contexts)
            report.write_section(out_dir, "effectiveness", sections["metrics"],
                                 report.effectiveness_text)

        sections["tcp"] = _tcp_section(config, bugs, warnings)
        report.write_section(out_dir, "tcp", sections["tcp"], report.tcp_text)

        if config.mode == "buggy":
            sections["mbfl"] = _mbfl_section(bugs, warnings)
            report.write_section(out_dir, "mbfl", sections["mbfl"],
                                 report.mbfl_text)
        else:
            warnings.append("mbfl: skipped (requires mode=buggy artifacts)")

    # A section file this run did not write is an earlier run's: remove it.
    for key, name in (("metrics", "effectiveness"), ("tcp", "tcp"), ("mbfl", "mbfl")):
        if key not in sections:
            for suffix in (".json", ".txt"):
                (out_dir / f"{name}{suffix}").unlink(missing_ok=True)
    sections["warnings"] = sorted(set(warnings))
    report.write_json(out_dir / "report.json", sections)
    return EvaluateOutcome(sections=sections, out_dir=out_dir)
