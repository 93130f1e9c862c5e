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

import logging
import os
import re
import shlex
import subprocess
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

_WS_RUN = re.compile(r"\s+")


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


def substitute_command(template: str, source_path: str) -> list[str]:
    """Split a command template and substitute the {source} placeholder;
    ``PipelineConfig`` has checked that the template splits and has one."""
    return [part.replace("{source}", source_path) for part in shlex.split(template)]


def check_compile(source_text: str, compile_command: str,
                  timeout: float = 60.0) -> CompileResult:
    """Run the external compile command on a mutant's source.

    The command template must contain {source}; the source text is written
    to an isolated temporary ``.java`` file first.  Exit status 0 within
    the timeout means compilable; a timeout counts as non-compilable with
    a distinct flag.

    Raises:
        ValidityError: if the command executable does not exist.
    """
    with tempfile.TemporaryDirectory() as tmp:
        source_path = os.path.join(tmp, "mutant.java")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(source_text)
        command = substitute_command(compile_command, source_path)
        try:
            proc = subprocess.run(command, capture_output=True, timeout=timeout)
        except FileNotFoundError as exc:
            raise ValidityError(f"compile command not found: {command[0]}") from exc
        except subprocess.TimeoutExpired:
            return CompileResult(ok=False, timed_out=True)
    return CompileResult(ok=proc.returncode == 0)


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
