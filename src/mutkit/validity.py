"""Mutant validity accounting: sets A/D/C and the three validity rates.

A is every parsed mutation for a bug, D the duplicates within A, and C the
compilable subset; the useful set downstream is C minus D.
``validity_metrics`` turns one bug's ledger into the row the validity
report writes (counts plus rates), and ``rates`` is the one formula for
the rates of any counts, a bug's or a project's sums.  The equivalent
set E is deliberately not computed (undecidable); duplicate identity is
line-local because a mutant differs from the original on exactly one line.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field

_WS_RUN = re.compile(r"\s+")
# How much of a run's stderr, from its end, goes into error messages.
_STDERR_TAIL = 2048


class ValidityError(Exception):
    """Raised for mutants off their method's lines or a compile command
    that cannot be found."""


@dataclass
class ValidityLedger:
    """Per-bug validity bookkeeping: Exp., set A, and subsets D and C."""

    expected: int
    generated: list[str] = field(default_factory=list)
    duplicates: set[str] = field(default_factory=set)
    compilable: set[str] = field(default_factory=set)

    def useful(self) -> set[str]:
        """Useful mutants: compilable minus duplicates."""
        return self.compilable - self.duplicates


def normalize_line(text: str) -> str:
    """Trim the ends and collapse internal whitespace runs to one space."""
    return _WS_RUN.sub(" ", text.strip())


def dedup(mutants, original_source: str) -> set[str]:
    """The ids of the duplicates among the mutants of one bug.

    A mutant is a duplicate iff its normalized mutated line equals the
    normalized original line at its target line, or another mutant with
    the same (target_line, normalized mutated line) key came earlier.
    The first occurrence of a key is canonical; |D| does not depend on
    the input order.
    """
    original_lines = original_source.split("\n")
    duplicates: set[str] = set()
    seen: set[tuple[int, str]] = set()
    for mutant in mutants:
        mutated = normalize_line(mutant.mutated_line_text)
        index = mutant.target_line - 1
        if not 0 <= index < len(original_lines):
            raise ValidityError(
                f"mutant {mutant.id} targets line {mutant.target_line} "
                f"outside the original source")
        key = (mutant.target_line, mutated)
        if mutated == normalize_line(original_lines[index]) or key in seen:
            duplicates.add(mutant.id)
        else:
            seen.add(key)
    return duplicates


@dataclass
class CompileResult:
    ok: bool
    timed_out: bool = False


def run_on_source(template: str, source_text: str, timeout: float | None, *,
                  what: str, error: type[Exception]) -> tuple[int | None, bytes, str]:
    """Run a command template on a program text.

    The text is written to a fresh temporary ``.java`` file whose path
    replaces {source} in the split template (``PipelineConfig`` has
    checked that it splits and has one).  Returns the exit status, None
    when the timeout cut the run off, the stdout so far, and the last
    ``_STDERR_TAIL`` bytes of its stderr decoded as UTF-8 (bytes that are
    not UTF-8 replaced), for error messages.

    Raises:
        error: ``<what> command not found: <executable>`` if the command's
            executable does not exist.
    """
    with tempfile.TemporaryDirectory() as tmp:
        source_path = os.path.join(tmp, "source.java")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(source_text)
        command = [part.replace("{source}", source_path) for part in shlex.split(template)]
        try:
            proc = subprocess.run(command, capture_output=True, timeout=timeout)
        except FileNotFoundError as exc:
            raise error(f"{what} command not found: {command[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            status, stdout, stderr = None, exc.stdout or b"", exc.stderr or b""
        else:
            status, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    return status, stdout, stderr[-_STDERR_TAIL:].decode("utf-8", "replace")


def check_compile(source_text: str, compile_command: str,
                  timeout: float = 60.0) -> CompileResult:
    """Run the external compile command on a mutant's source.

    Exit status 0 within the timeout means compilable; a timeout counts
    as non-compilable with a distinct flag.

    Raises:
        ValidityError: if the command executable does not exist.
    """
    status, _, _ = run_on_source(compile_command, source_text, timeout,
                                 what="compile", error=ValidityError)
    return CompileResult(ok=status == 0, timed_out=status is None)


def rates(counts: Mapping[str, int]) -> dict[str, float | None]:
    """The three validity rates of a row of counts (``expected``,
    ``generated``, ``duplicates``, ``compilable``): Gen./Exp., the
    non-duplicate share and the compilable share of Gen.  A rate whose
    denominator is zero is absent (None).
    """
    generated, expected = counts["generated"], counts["expected"]
    return {"generation_rate": generated / expected if expected else None,
            "nonduplicate_rate": ((generated - counts["duplicates"]) / generated
                                  if generated else None),
            "compilable_rate": counts["compilable"] / generated if generated else None}


def validity_metrics(ledger: ValidityLedger) -> dict:
    """One bug's validity row: the five counts and their three rates."""
    counts = {"expected": ledger.expected,
              "generated": len(ledger.generated),
              "duplicates": len(ledger.duplicates),
              "compilable": len(ledger.compilable),
              "useful": len(ledger.useful())}
    return {**counts, **rates(counts)}
