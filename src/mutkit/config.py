"""Pipeline configuration, targets and the checked readers of every JSON
and JSON Lines input.

The config, targets, mock script, bug tables, generation artifacts and
``effectiveness.json`` are read through ``read_json`` or ``read_rows``,
which check value types against a hint and name the file (and line) of
a fault as a ``PipelineError``.  ``PipelineConfig`` and ``TargetSpec``
check their own fields the same way.  ``read_generation``,
``read_prompts`` and ``load_mutants`` read back what ``generate`` wrote.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
import shlex
import types
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .embedder import DEFAULT_DIMENSION, KEY_SIDES, METRICS
from .promptgen import Mutant
from .tcp import DEFAULT_HYB_WEIGHT

MODE_CHOICES = ("fixed", "buggy")
# Bug ids and mutant ids name files, so each must be a plain file name.
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")


class PipelineError(Exception):
    """Raised for configuration, target, or artifact problems."""


@functools.cache
def _type_check(hint):
    """A predicate telling whether a value matches a hint such as
    ``dict[str, list[int]]``, built once per hint: a bool is not an int, an
    int is a float, dict keys (JSON strings) go unchecked."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        options = tuple(map(_type_check, args))
        return lambda value: any(check(value) for check in options)
    if origin in (list, tuple):
        item = _type_check(args[0])
        return lambda value: isinstance(value, origin) and all(map(item, value))
    if origin is dict:
        item = _type_check(args[1])
        return lambda value: isinstance(value, dict) and all(map(item, value.values()))
    kinds = (int, float) if hint is float else hint
    if hint is bool or not issubclass(bool, kinds):
        return lambda value: isinstance(value, kinds)
    return lambda value: isinstance(value, kinds) and not isinstance(value, bool)


def _type_error(value, hint, what: str) -> PipelineError:
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    return PipelineError(f"{what} must be {name}, got {value!r:.80}")


def check_type(value, hint, what: str) -> None:
    """Raise ``<what> must be <hint>, got <value>`` unless value matches hint."""
    if not _type_check(hint)(value):
        raise _type_error(value, hint, what)


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, hint, predicate) per dataclass field, resolved once per class."""
    return tuple((name, hint, _type_check(hint))
                 for name, hint in typing.get_type_hints(cls).items())


def check_fields(cls, values: dict) -> None:
    """Reject values for cls's fields whose type differs from the annotation;
    names that are not in ``values`` go unchecked."""
    for name, hint, check in _field_checks(cls):
        if name in values and not check(values[name]):
            raise _type_error(values[name], hint, name)


def read_text(path: Path) -> str:
    """The UTF-8 text of the file at path."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise PipelineError(f"cannot read {path}: {error}") from error


def read_json(path: Path, hint):
    """The JSON value that the file at path holds, which must be of type hint."""
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as error:
        raise PipelineError(f"{path} is not JSON: {error}") from error
    check_type(value, hint, str(path))
    return value


def read_rows(path: Path, fields: dict):
    """(where, row) for the JSON object on each non-blank line of path, every
    field in ``fields`` present and of its type; where names the line."""
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path} line {line_no}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise PipelineError(f"{where} is not JSON: {error.msg}") from error
        if not isinstance(row, dict):
            raise PipelineError(f"{where} must hold a JSON object")
        missing = [name for name in fields if name not in row]
        if missing:
            raise PipelineError(f"{where} missing fields: {missing}")
        for name, hint in fields.items():
            check_type(row[name], hint, f"{where}: {name}")
        yield where, row


def read_bug_table(path: str | Path, entry_type) -> dict:
    """Read a JSON object mapping bug ids to entries of entry_type."""
    table = read_json(Path(path), dict)
    for bug_id, entry in table.items():
        check_type(entry, entry_type, f"{path}: bug {bug_id}")
    return table


@dataclass
class PipelineConfig:
    """Shared settings for every pipeline stage.

    Every field has a default except the artifact locations; JSON config
    files may set any subset and CLI flags override the file.
    """

    corpus: str | None = None
    index: str | None = None
    output_dir: str = "out"
    retrieval_n: int = 6
    metric: str = "euclidean"
    chunking: bool = True
    retrieval: bool = True
    key_side: str = "post_fix"
    dimension: int = DEFAULT_DIMENSION
    mode: str = "fixed"
    backend: dict = field(default_factory=dict)
    compile_command: str | None = None
    test_command: str | None = None
    timeout: float = 30.0
    workers: int = 4
    seed: int = 0
    sample_targets: int | None = None
    hyb_weight: float = DEFAULT_HYB_WEIGHT

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.retrieval_n < 1:
            raise PipelineError(f"retrieval_n must be >= 1, got {self.retrieval_n}")
        if self.metric not in METRICS:
            raise PipelineError(f"metric must be one of {METRICS}")
        if self.key_side not in KEY_SIDES:
            raise PipelineError(f"key_side must be one of {KEY_SIDES}")
        if self.mode not in MODE_CHOICES:
            raise PipelineError(f"mode must be one of {MODE_CHOICES}")
        if self.workers < 1:
            raise PipelineError("workers must be >= 1")
        if self.dimension < 1:
            raise PipelineError("dimension must be >= 1")
        if not 0.0 <= self.hyb_weight <= 1.0:
            raise PipelineError("hyb_weight must be in [0, 1]")
        if self.sample_targets is not None and self.sample_targets < 1:
            raise PipelineError("sample_targets must be >= 1 when set")
        if not 0 < self.timeout < math.inf:
            raise PipelineError(f"timeout must be finite and > 0, got {self.timeout}")
        for name in ("compile_command", "test_command"):
            template = getattr(self, name)
            if not template:  # None or "": no command
                continue
            try:
                words = shlex.split(template)
            except ValueError as error:
                raise PipelineError(
                    f"{name} does not split into words ({error}): {template!r}") from None
            if not any("{source}" in word for word in words):
                raise PipelineError(
                    f"{name} must contain a {{source}} placeholder, got {template!r}")

    def variant_label(self) -> str:
        """Ablation variant implied by the retrieval/chunking switches."""
        if self.retrieval and self.chunking:
            return "rag+chunk"
        if self.retrieval:
            return "rag"
        if self.chunking:
            return "chunk"
        return "plain"


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read a JSON config file, apply non-None overrides, and validate."""
    raw = read_json(Path(path), dict)
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise PipelineError(f"config {path} has unknown keys: {unknown}")
    merged = {**raw, **{key: value for key, value in (overrides or {}).items()
                        if value is not None}}
    return PipelineConfig(**merged)


@dataclass(frozen=True)
class TargetSpec:
    """One focal method to mutate, with its evaluation ground truth."""

    bug_id: str
    method: str
    project: str = ""
    buggy_method: str | None = None
    bug_revealing_tests: tuple[str, ...] = ()
    faulty_lines: tuple[int, ...] = ()

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if not _ID_PATTERN.match(self.bug_id):
            raise PipelineError(
                f"bug id {self.bug_id!r} must match {_ID_PATTERN.pattern}")
        if not self.method.strip():
            raise PipelineError(f"target {self.bug_id}: empty method source")


# The fields every targets row needs; TargetSpec checks the optional ones.
_TARGET_FIELDS = {"bug_id": str, "method": str}


def load_targets(path: str | Path) -> list[TargetSpec]:
    """Read a JSONL targets file into validated specs, sorted by bug id."""
    targets: dict[str, TargetSpec] = {}
    for where, row in read_rows(Path(path), _TARGET_FIELDS):
        # JSON lists become the tuples TargetSpec holds; other values are
        # left for its type check to reject.
        sequences = {key: tuple(row[key]) if isinstance(row[key], list) else row[key]
                     for key in ("bug_revealing_tests", "faulty_lines") if key in row}
        try:
            spec = TargetSpec(bug_id=row["bug_id"], method=row["method"],
                              project=row.get("project", ""),
                              buggy_method=row.get("buggy_method"), **sequences)
        except PipelineError as error:
            raise PipelineError(f"{where}: {error}") from error
        if spec.bug_id in targets:
            raise PipelineError(f"{where}: duplicate bug id {spec.bug_id}")
        targets[spec.bug_id] = spec
    if not targets:
        raise PipelineError(f"targets file {path} has no targets")
    return [targets[bug_id] for bug_id in sorted(targets)]


def pick_targets(targets: Sequence[TargetSpec],
                 config: PipelineConfig) -> list[TargetSpec]:
    """Optional seeded down-sampling; the only randomness in the pipeline."""
    ordered = sorted(targets, key=lambda t: t.bug_id)
    if config.sample_targets is None or config.sample_targets >= len(ordered):
        return ordered
    rng = random.Random(config.seed)
    chosen = rng.sample(ordered, config.sample_targets)
    return sorted(chosen, key=lambda t: t.bug_id)


def load_mutants(artifacts: Path, rows: Sequence[dict]) -> dict[str, Mutant]:
    """Materialized mutants of manifest rows, sources read from <artifacts>/mutants."""
    mutants: dict[str, Mutant] = {}
    for row in rows:
        if row["rejection"] is not None:
            continue
        source_path = artifacts / "mutants" / f"{row['mutant_id']}.java"
        try:
            # newline="" keeps a CRLF target's "\r\n" as generate wrote it.
            with source_path.open(encoding="utf-8", newline="") as handle:
                source = handle.read()
        except OSError as error:
            raise PipelineError(f"mutant source missing: {source_path}") from error
        except UnicodeDecodeError as error:
            raise PipelineError(f"cannot read {source_path}: {error}") from error
        mutants[row["mutant_id"]] = Mutant(
            id=row["mutant_id"], bug_id=row["bug_id"], source=source,
            target_line=row["target_line"],
            original_line_text=row["precode"],
            mutated_line_text=row["aftercode"],
            chunk_id=row["chunk_id"])
    return mutants


# The fields of a manifest.jsonl row, with their types.
_MANIFEST_FIELDS = {"mutant_id": str, "bug_id": str, "chunk_id": str,
                    "target_line": int | None, "precode": str, "aftercode": str,
                    "rejection": str | None}
# The prompts.jsonl fields that export-sft reads.
_PROMPT_FIELDS = {"bug_id": str, "chunk_id": str, "prompt": str, "error": str | None}


def read_generation(artifacts: Path) -> tuple[dict, list[dict]]:
    """summary.json and the manifest rows that generate wrote to artifacts.

    Each row's mutant id is a plain file name, since it names the row's
    file under mutants/, and no two rows share one.
    """
    summary_path = artifacts / "summary.json"
    manifest_path = artifacts / "manifest.jsonl"
    if not summary_path.exists() or not manifest_path.exists():
        raise PipelineError(
            f"{artifacts} lacks summary.json/manifest.jsonl; run generate first")
    summary = read_json(summary_path, dict)
    check_type(summary.get("targets"), dict[str, dict], f"{summary_path}: targets")
    rows = []
    seen: set[str] = set()
    for where, row in read_rows(manifest_path, _MANIFEST_FIELDS):
        mutant_id = row["mutant_id"]
        if not _ID_PATTERN.match(mutant_id):
            raise PipelineError(
                f"{where}: mutant_id {mutant_id!r} must match {_ID_PATTERN.pattern}")
        if mutant_id in seen:
            raise PipelineError(f"{where}: duplicate mutant_id {mutant_id}")
        seen.add(mutant_id)
        if row["rejection"] is None:
            check_type(row["target_line"], int, f"{where}: target_line")
        rows.append(row)
    return summary, rows


def read_prompts(artifacts: Path) -> list[dict]:
    """The prompts.jsonl rows that generate wrote to artifacts."""
    return [row for _, row in read_rows(artifacts / "prompts.jsonl", _PROMPT_FIELDS)]


def read_coupled_mutants(report_dir: Path) -> set[str]:
    """The coupled mutant ids of the effectiveness.json in report_dir."""
    path = report_dir / "effectiveness.json"
    coupled = read_json(path, dict).get("coupled_mutants")
    check_type(coupled, dict[str, list[str]], f"{path}: coupled_mutants")
    return {mutant_id for ids in coupled.values() for mutant_id in ids}
