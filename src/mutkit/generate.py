"""The generate stage: chunk -> retrieve -> prompt -> complete -> parse ->
materialize for every target.

``run_generate`` persists four artifacts: prompts.jsonl, a manifest of
every attempted pair, summary.json and the mutant sources.  Every chunk
is planned before retrieval, which queries the index once for all of
them, and every prompt goes to the backend in one batch.  The other
layers are called through their modules (``chunker.parse_method``), so
instrumentation that rebinds module functions sees them.
"""

from __future__ import annotations

import json
import logging
import shutil
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from . import chunker, corpus, llm, promptgen, report
from .chunker import ChunkerError, CodeChunk, FocalMethod
from .config import (
    PipelineConfig,
    PipelineError,
    TargetSpec,
    check_fields,
    check_type,
    pick_targets,
    read_rows,
)
from .embedder import EmbeddingError, LexicalEmbedder, VectorIndex
from .llm import BackendConfig, BackendError, Completion, HttpChatBackend, MockBackend
from .promptgen import MaterializeError, Mutant

logger = logging.getLogger(__name__)

_TARGET_COUNTS = ("expected", "chunks", "prompts_total", "prompts_completed",
                  "pairs_parsed", "pairs_dropped", "parse_failures",
                  "materialized", "rejected")
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
        check_type(script, str | None, "mock backend script")
        check_type(record, str | None, "mock backend record")
        rows = read_rows(Path(script), _SCRIPT_FIELDS) if script is not None else ()
        return MockBackend({row["prompt_digest"]: Completion(
            text=row["response_text"], prompt_tokens=row["prompt_tokens"],
            completion_tokens=row["completion_tokens"]) for _, row in rows},
            record_path=record)
    if mode == "http":
        try:
            check_fields(BackendConfig, settings)
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
    records, _ = corpus.read_records(config.corpus)
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
    pairs, problems = corpus.select_pairs(
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
    materialized mutant; mutants/ is emptied first, so it holds no file
    of an earlier run.
    """
    backend = backend if backend is not None else make_backend(config)
    retrieval = _retrieval_context(config)
    targets = pick_targets(targets, config)

    out_dir = Path(config.output_dir)
    mutants_dir = out_dir / "mutants"
    if mutants_dir.exists():
        shutil.rmtree(mutants_dir)
    mutants_dir.mkdir(parents=True)

    per_target: dict[str, dict] = {}
    chunks: list[tuple[TargetSpec, FocalMethod, str, CodeChunk]] = []
    for target in targets:
        entry = per_target[target.bug_id] = {
            "project": target.project, **dict.fromkeys(_TARGET_COUNTS, 0),
            "errors": []}
        try:
            method = chunker.parse_method(target.method)
        except ChunkerError as error:
            entry["errors"].append(f"parse: {error}")
            continue
        entry["expected"] = len(method.lines)
        method_chunks = (chunker.chunk_method(method) if config.chunking
                         else [chunker.whole_method_chunk(method)])
        entry["chunks"] = len(method_chunks)
        chunks.extend((target, method, f"c{position:02d}", chunk)
                      for position, chunk in enumerate(method_chunks))

    retrieved = (_retrieve(retrieval, [chunk.text for *_, chunk in chunks],
                           config.retrieval_n)
                 if retrieval is not None else [[]] * len(chunks))
    prompt_rows: list[dict] = []
    planned: list[tuple[TargetSpec, CodeChunk]] = []
    for (target, method, chunk_id, chunk), found in zip(chunks, retrieved):
        entry = per_target[target.bug_id]
        if isinstance(found, str):
            entry["errors"].append(f"retrieval {chunk_id}: {found}")
            continue
        examples = promptgen.render_examples(found)
        requested = len(chunk.line_numbers)
        prompt = promptgen.render_prompt(method, chunk, examples, requested)
        entry["prompts_total"] += 1
        prompt_rows.append({
            "prompt_id": f"{target.bug_id}/{chunk_id}",
            "bug_id": target.bug_id,
            "chunk_id": chunk_id,
            "n": requested,
            "digest": llm.prompt_digest(prompt),
            "prompt": prompt,
            "examples": [example.source_pair_id for example in examples],
            "error": None,
        })
        planned.append((target, chunk))

    results = llm.complete_batch(backend, [row["prompt"] for row in prompt_rows])

    manifest_rows: list[dict] = []
    mutants: dict[str, Mutant] = {}
    for row, (target, chunk), result in zip(prompt_rows, planned, results):
        bug_id, chunk_id = row["bug_id"], row["chunk_id"]
        entry = per_target[bug_id]
        if isinstance(result, BackendError):
            row["error"] = str(result)
            entry["errors"].append(f"backend {chunk_id}: {result}")
            continue
        entry["prompts_completed"] += 1
        parsed = promptgen.parse_response(result.text)
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
                mutant = promptgen.materialize(target.method, chunk, pair,
                                               mutant_id=mutant_id, bug_id=bug_id,
                                               chunk_id=chunk_id)
            except MaterializeError as error:
                entry["rejected"] += 1
                record["rejection"] = error.reason
                continue
            entry["materialized"] += 1
            record["target_line"] = mutant.target_line
            mutants[mutant_id] = mutant
            (mutants_dir / f"{mutant_id}.java").write_text(
                mutant.source, encoding="utf-8", newline="")

    succeeded = sum(
        1 for entry in per_target.values()
        if entry["chunks"] and entry["prompts_completed"] == entry["prompts_total"]
        and not entry["errors"])
    failed = len(per_target) - succeeded
    usage = llm.aggregate_usage(results)
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
