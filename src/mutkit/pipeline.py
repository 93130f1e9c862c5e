"""Pipeline orchestration: shared configuration plus the generate and
evaluate stage runners the CLI subcommands are built on.

Generation walks chunk -> retrieve -> prompt -> complete -> parse ->
materialize per target and persists four artifacts: prompts.jsonl, a
manifest of every attempted pair, summary.json and the mutant sources.
This module reads every JSON and JSON Lines input: the config, targets,
mock script, bug tables and the generation and report artifacts go
through ``_read_json`` or ``_read_rows``, which check value types and
name the file (and line) of a fault.  Evaluation replays the artifacts
through validity, kill-matrix execution (or loading), effectiveness metrics,
prioritization, and, for buggy-mode runs, fault localization, as deep as
its command goes, writing one deterministic report directory.  One
function evaluates a bug from its compiles to its revealing tests; it
pauses after each wave of queued runs, so every bug's runs of a wave are
queued before any is awaited.  This module picks the bugs of each section
and the warnings; the payloads come from the analysis modules and
``report``, which also holds the text tables and JSON writer, shared with
the standalone analysis commands.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import random
import re
import shlex
import types
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import execution, mbfl, metrics, report
from .chunker import (
    ChunkerError,
    CodeChunk,
    FocalMethod,
    chunk_method,
    parse_method,
    whole_method_chunk,
)
from .corpus import read_records, select_pairs
from .embedder import (
    DEFAULT_DIMENSION,
    KEY_SIDES,
    METRICS,
    EmbeddingError,
    LexicalEmbedder,
    VectorIndex,
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
from .llm import (
    BackendConfig,
    BackendError,
    Completion,
    HttpChatBackend,
    MockBackend,
    aggregate_usage,
    complete_batch,
    prompt_digest,
)
from .mbfl import MbflError
from .metrics import BugContext
from .promptgen import (
    MaterializeError,
    Mutant,
    materialize,
    parse_response,
    render_examples,
    render_prompt,
)
from .tcp import DEFAULT_HYB_WEIGHT
from .validity import ValidityLedger, dedup

logger = logging.getLogger(__name__)

MODE_CHOICES = ("fixed", "buggy")
_TARGET_COUNTS = ("expected", "chunks", "prompts_total", "prompts_completed",
                  "pairs_parsed", "pairs_dropped", "parse_failures",
                  "materialized", "rejected")
_BUG_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")


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


def _check_type(value, hint, what: str) -> None:
    if not _type_check(hint)(value):
        raise _type_error(value, hint, what)


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, hint, predicate) per dataclass field, resolved once per class."""
    return tuple((name, hint, _type_check(hint))
                 for name, hint in typing.get_type_hints(cls).items())


def _check_fields(cls, values: dict) -> None:
    """Reject values for cls's fields whose type differs from the annotation;
    names that are not in ``values`` go unchecked."""
    for name, hint, check in _field_checks(cls):
        if name in values and not check(values[name]):
            raise _type_error(values[name], hint, name)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise PipelineError(f"cannot read {path}: {error}") from error


def _read_json(path: Path, hint):
    """The JSON value that the file at path holds, which must be of type hint."""
    try:
        value = json.loads(_read_text(path))
    except json.JSONDecodeError as error:
        raise PipelineError(f"{path} is not JSON: {error}") from error
    _check_type(value, hint, str(path))
    return value


def _read_rows(path: Path, fields: dict):
    """(where, row) for the JSON object on each non-blank line of path, every
    field in ``fields`` present and of its type; where names the line."""
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
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
            _check_type(row[name], hint, f"{where}: {name}")
        yield where, row


def read_bug_table(path: str | Path, entry_type) -> dict:
    """Read a JSON object mapping bug ids to entries of entry_type."""
    table = _read_json(Path(path), dict)
    for bug_id, entry in table.items():
        _check_type(entry, entry_type, f"{path}: bug {bug_id}")
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
        _check_fields(type(self), vars(self))
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
    raw = _read_json(Path(path), dict)
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
        _check_fields(type(self), vars(self))
        if not _BUG_ID_PATTERN.match(self.bug_id):
            raise PipelineError(
                f"bug id {self.bug_id!r} must match {_BUG_ID_PATTERN.pattern}")
        if not self.method.strip():
            raise PipelineError(f"target {self.bug_id}: empty method source")


# The fields every targets row needs; TargetSpec checks the optional ones.
_TARGET_FIELDS = {"bug_id": str, "method": str}


def load_targets(path: str | Path) -> list[TargetSpec]:
    """Read a JSONL targets file into validated specs, sorted by bug id."""
    targets: dict[str, TargetSpec] = {}
    for where, row in _read_rows(Path(path), _TARGET_FIELDS):
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


# The fields of a mock script row, with their types.
_SCRIPT_FIELDS = {"prompt_digest": str, "response_text": str,
                  "prompt_tokens": int, "completion_tokens": int}


def make_backend(config: PipelineConfig):
    """Instantiate the configured completion backend."""
    settings = dict(config.backend)
    mode = settings.pop("mode", "mock")
    if mode == "mock":
        script = settings.pop("script", None)
        record = settings.pop("record", None)
        if settings:
            raise PipelineError(f"unknown mock backend keys: {sorted(settings)}")
        _check_type(script, str | None, "mock backend script")
        _check_type(record, str | None, "mock backend record")
        rows = _read_rows(Path(script), _SCRIPT_FIELDS) if script is not None else ()
        return MockBackend({row["prompt_digest"]: Completion(
            text=row["response_text"], prompt_tokens=row["prompt_tokens"],
            completion_tokens=row["completion_tokens"]) for _, row in rows},
            record_path=record)
    if mode == "http":
        try:
            _check_fields(BackendConfig, settings)
            backend_config = BackendConfig(**settings)
        except (TypeError, BackendError, PipelineError) as error:
            raise PipelineError(f"bad http backend settings: {error}") from error
        return HttpChatBackend(backend_config)
    raise PipelineError(f"backend mode must be mock or http, got {mode!r}")


def probe_embedder(index: VectorIndex) -> LexicalEmbedder:
    """Rebuild the embedder that matches an index's recorded backend."""
    name, _, dimension = index.backend_id.rpartition("-")
    if name != "lexical-trigram" or not dimension.isdecimal() or int(dimension) < 1:
        raise PipelineError(
            f"index was built with backend {index.backend_id!r}; only "
            f"lexical-trigram-<dimension> indexes can be queried offline")
    return LexicalEmbedder(dimension=int(dimension))


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class GenerateOutcome:
    """Everything run_generate persisted, plus per-target accounting."""

    summary: dict
    mutants: dict[str, Mutant]
    prompts: list[dict]
    succeeded: int
    failed: int


def _retrieval_context(config: PipelineConfig):
    if not config.retrieval:
        return None
    if not config.corpus or not config.index:
        raise PipelineError(
            "retrieval is enabled but corpus/index paths are not configured")
    records, _ = read_records(config.corpus)
    index = VectorIndex.load(config.index)
    return records, index, probe_embedder(index)


def _retrieve(retrieval, texts: list[str], n: int) -> list:
    """The retrieved pairs of each chunk text, or why retrieval failed for it.

    A blank chunk retrieves no pairs, as with retrieval off.  The other
    chunks are embedded with one ``embed_many`` and their probes go into
    one ``query_many``; an embedding error in either fails every one of
    them.  Only the corpus records the query returns are diffed, and a
    chunk that retrieves an id the corpus has no single-hunk pair for
    gets a message.
    """
    records, index, embedder = retrieval
    found: list = [[] for _ in texts]
    positions = [position for position, text in enumerate(texts) if text.strip()]
    try:
        probes = embedder.embed_many([texts[position] for position in positions])
        neighbors = index.query_many(probes, n=min(n, len(index.ids)))
    except EmbeddingError as error:
        for position in positions:
            found[position] = str(error)
        return found
    pairs, problems = select_pairs(
        records, (pair_id for hits in neighbors for pair_id, _ in hits))
    for position, hits in zip(positions, neighbors):
        problem = next((problems[pair_id] for pair_id, _ in hits if pair_id in problems),
                       None)
        found[position] = problem or [pairs[pair_id] for pair_id, _ in hits]
    return found


def run_generate(config: PipelineConfig, targets: Sequence[TargetSpec],
                 backend=None) -> GenerateOutcome:
    """Generate mutants for every target and persist the artifacts.

    Per-target failures (unparseable method, retrieval or backend errors)
    are isolated: the target is recorded as failed and the run continues.
    Every chunk is planned before retrieval, which queries the index once
    for all of them.  Artifacts land in config.output_dir: prompts.jsonl,
    manifest.jsonl, summary.json and one mutants/<id>.java per
    materialized mutant.
    """
    backend = backend if backend is not None else make_backend(config)
    retrieval = _retrieval_context(config)
    targets = pick_targets(targets, config)

    out_dir = Path(config.output_dir)
    mutants_dir = out_dir / "mutants"
    mutants_dir.mkdir(parents=True, exist_ok=True)

    per_target: dict[str, dict] = {}
    chunks: list[tuple[TargetSpec, FocalMethod, str, CodeChunk]] = []
    for target in targets:
        entry = per_target[target.bug_id] = {
            "project": target.project, **dict.fromkeys(_TARGET_COUNTS, 0),
            "errors": []}
        try:
            method = parse_method(target.method)
        except ChunkerError as error:
            entry["errors"].append(f"parse: {error}")
            continue
        entry["expected"] = len(method.lines)
        method_chunks = (chunk_method(method) if config.chunking
                         else [whole_method_chunk(method)])
        entry["chunks"] = len(method_chunks)
        chunks.extend((target, method, f"c{position:02d}", chunk)
                      for position, chunk in enumerate(method_chunks))

    retrieved = (_retrieve(retrieval, [chunk.text for *_, chunk in chunks],
                           config.retrieval_n)
                 if retrieval is not None else [None] * len(chunks))
    prompt_rows: list[dict] = []
    planned: list[tuple[TargetSpec, CodeChunk]] = []
    for (target, method, chunk_id, chunk), found in zip(chunks, retrieved):
        entry = per_target[target.bug_id]
        if isinstance(found, str):
            entry["errors"].append(f"retrieval {chunk_id}: {found}")
            continue
        examples = render_examples(found) if found is not None else []
        requested = len(chunk.line_numbers)
        prompt = render_prompt(method, chunk, examples, requested)
        entry["prompts_total"] += 1
        prompt_rows.append({
            "prompt_id": f"{target.bug_id}/{chunk_id}",
            "bug_id": target.bug_id,
            "chunk_id": chunk_id,
            "n": requested,
            "digest": prompt_digest(prompt),
            "prompt": prompt,
            "examples": [example.source_pair_id for example in examples],
            "error": None,
        })
        planned.append((target, chunk))

    results = complete_batch(backend, [(row["prompt_id"], row["prompt"])
                                       for row in prompt_rows])

    manifest_rows: list[dict] = []
    mutants: dict[str, Mutant] = {}
    for row, (target, chunk), (_, result) in zip(prompt_rows, planned, results):
        bug_id, chunk_id = row["bug_id"], row["chunk_id"]
        entry = per_target[bug_id]
        if isinstance(result, BackendError):
            row["error"] = str(result)
            entry["errors"].append(f"backend {chunk_id}: {result}")
            continue
        entry["prompts_completed"] += 1
        parsed = parse_response(result.text)
        if parsed.failure is not None:
            entry["parse_failures"] += 1
        entry["pairs_parsed"] += len(parsed.pairs)
        entry["pairs_dropped"] += parsed.dropped
        for seq, pair in enumerate(parsed.pairs):
            mutant_id = f"{bug_id}-{chunk_id}-m{seq:03d}"
            record = {"mutant_id": mutant_id, "bug_id": bug_id, "chunk_id": chunk_id,
                      "target_line": None, "precode": pair.precode,
                      "aftercode": pair.aftercode, "rejection": None}
            manifest_rows.append(record)
            try:
                mutant = materialize(target.method, chunk, pair, mutant_id=mutant_id,
                                     bug_id=bug_id, chunk_id=chunk_id)
            except MaterializeError as error:
                entry["rejected"] += 1
                record["rejection"] = error.reason
                continue
            entry["materialized"] += 1
            record["target_line"] = mutant.target_line
            mutants[mutant_id] = mutant
            (mutants_dir / f"{mutant_id}.java").write_text(
                mutant.source, encoding="utf-8")

    succeeded = sum(
        1 for entry in per_target.values()
        if entry["chunks"] and entry["prompts_completed"] == entry["prompts_total"]
        and not entry["errors"])
    failed = len(per_target) - succeeded
    usage = aggregate_usage(results)
    summary = {
        "variant": config.variant_label(),
        "mode": config.mode,
        "targets": per_target,
        "totals": {
            "targets": len(per_target),
            "succeeded": succeeded,
            "failed": failed,
            "expected": sum(e["expected"] for e in per_target.values()),
            "prompts": sum(e["prompts_total"] for e in per_target.values()),
            "pairs_parsed": sum(e["pairs_parsed"] for e in per_target.values()),
            "materialized": sum(e["materialized"] for e in per_target.values()),
            "rejected": sum(e["rejected"] for e in per_target.values()),
            "usage": usage,
        },
    }

    _write_jsonl(out_dir / "manifest.jsonl", manifest_rows)
    _write_jsonl(out_dir / "prompts.jsonl", prompt_rows)
    report.write_json(out_dir / "summary.json", summary)
    logger.info("generate: %d/%d targets succeeded, %d mutants materialized",
                succeeded, len(per_target), len(mutants))
    return GenerateOutcome(summary=summary, mutants=mutants, prompts=prompt_rows,
                           succeeded=succeeded, failed=failed)


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


def load_mutants(artifacts: Path, rows: Sequence[dict]) -> dict[str, Mutant]:
    """Materialized mutants of manifest rows, sources read from <artifacts>/mutants."""
    mutants: dict[str, Mutant] = {}
    for row in rows:
        if row["rejection"] is not None:
            continue
        source_path = artifacts / "mutants" / f"{row['mutant_id']}.java"
        try:
            source = source_path.read_text(encoding="utf-8")
        except OSError as error:
            raise PipelineError(f"mutant source missing: {source_path}") from error
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
    """summary.json and the manifest rows that generate wrote to artifacts."""
    summary_path = artifacts / "summary.json"
    manifest_path = artifacts / "manifest.jsonl"
    if not summary_path.exists() or not manifest_path.exists():
        raise PipelineError(
            f"{artifacts} lacks summary.json/manifest.jsonl; run generate first")
    summary = _read_json(summary_path, dict)
    _check_type(summary.get("targets"), dict[str, dict], f"{summary_path}: targets")
    rows = []
    for where, row in _read_rows(manifest_path, _MANIFEST_FIELDS):
        if row["rejection"] is None:
            _check_type(row["target_line"], int, f"{where}: target_line")
        rows.append(row)
    return summary, rows


def read_prompts(artifacts: Path) -> list[dict]:
    """The prompts.jsonl rows that generate wrote to artifacts."""
    return [row for _, row in _read_rows(artifacts / "prompts.jsonl", _PROMPT_FIELDS)]


def read_coupled_mutants(report_dir: Path) -> set[str]:
    """The coupled mutant ids of the effectiveness.json in report_dir."""
    path = report_dir / "effectiveness.json"
    coupled = _read_json(path, dict).get("coupled_mutants")
    _check_type(coupled, dict[str, list[str]], f"{path}: coupled_mutants")
    return {mutant_id for ids in coupled.values() for mutant_id in ids}


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
        _check_type(expected, int, what)
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
    stops; (3) submit the useful mutants' suites and, for a report whose
    revealing tests come from it, the buggy version's run; (4) collect the
    runs and save the matrix and the original's outcomes, where execute
    stops, and resolve the revealing tests.  Without a test_command the
    saved matrix is an input, loaded as given in place of (3) and (4).
    The caller advances every bug one wave at a time, so a wave's runs of
    all bugs are queued before any is awaited.
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
    yield
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
            warnings.append(f"mbfl: bug {bug_id} has no faulty_lines ground truth")
            continue
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
    re-running on the same inputs rewrites identical bytes.
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

    # Every compile and suite run of every bug goes through one queue; the
    # validity section is written after the second wave built every ledger.
    with execution.run_queue(matrices_dir / "runs", config.workers) as queue:
        steps = [_evaluate_bug(config, bug, queue, matrices_dir, through)
                 for bug in bugs.values()]
        for wave in range(4):
            for step in steps:
                next(step, None)
            if wave == 1:
                sections["validity"] = report.validity_section(
                    {bug_id: (bug.target.project, bug.ledger)
                     for bug_id, bug in bugs.items()})
                report.write_section(out_dir, "validity", sections["validity"],
                                     report.validity_text)

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

    sections["warnings"] = sorted(set(warnings))
    report.write_json(out_dir / "report.json", sections)
    return EvaluateOutcome(sections=sections, out_dir=out_dir)
