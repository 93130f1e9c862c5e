"""Export coupled mutants as supervised fine-tuning instances.

Each instance pairs the exact generation prompt with the JSON the model
should have produced for one coupled mutant (or, in grouped mode, for
every coupled mutant of one chunk).  The training loop itself is out of
scope; this module only formats and persists the instances.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .promptgen import Mutant, parse_response

logger = logging.getLogger(__name__)

JSON_OPEN = "<json>"
JSON_CLOSE = "</json>"
REQUIRED_PROMPT_SECTIONS = ("[Entire Focal Method]:", "[The Current Chunk]:")


class SftError(Exception):
    """Raised for malformed instances or unusable export inputs."""


@dataclass(frozen=True)
class SftContext:
    """Generation-time context a mutant's instance is rebuilt from."""

    bug_id: str
    chunk_id: str
    prompt: str
    project: str = ""

    def __post_init__(self):
        if not self.prompt.strip():
            raise SftError(f"{self.bug_id}/{self.chunk_id}: empty prompt")


@dataclass(frozen=True)
class SkippedMutant:
    mutant_id: str
    reason: str


@dataclass(frozen=True)
class TrainingInstance:
    """One prompt/response pair plus its provenance."""

    prompt: str
    response: str
    bug_id: str
    chunk_id: str
    mutant_ids: tuple[str, ...]
    project: str = ""

    def __post_init__(self):
        for section in REQUIRED_PROMPT_SECTIONS:
            if section not in self.prompt:
                raise SftError(
                    f"instance for {self.bug_id}: prompt lacks {section!r}")
        parsed = parse_response(self.response)
        if parsed.failure is not None or parsed.dropped:
            raise SftError(
                f"instance for {self.bug_id}: response does not parse cleanly")
        if len(parsed.pairs) != len(self.mutant_ids):
            raise SftError(
                f"instance for {self.bug_id}: {len(parsed.pairs)} pairs for "
                f"{len(self.mutant_ids)} mutants")


@dataclass
class ExportResult:
    instances: list[TrainingInstance]
    skipped: list[SkippedMutant]
    excluded_uncoupled: int
    excluded_projects: int


def _pair_payload(mutant: Mutant) -> dict[str, str]:
    return {"precode": mutant.original_line_text.strip(),
            "aftercode": mutant.mutated_line_text.strip()}


def render_response(mutants: Iterable[Mutant]) -> str:
    """The target completion text for one or more mutants of a chunk."""
    payload = [_pair_payload(m) for m in mutants]
    if not payload:
        raise SftError("cannot render a response with no mutants")
    return JSON_OPEN + json.dumps(payload, sort_keys=True) + JSON_CLOSE


def export(
    mutants: Iterable[Mutant],
    coupled_ids: Collection[str],
    contexts: Mapping[tuple[str, str], SftContext],
    *,
    grouped: bool = False,
    exclude_projects: Iterable[str] = (),
) -> ExportResult:
    """Build training instances from the coupled subset of the mutants.

    Args:
        mutants: all materialized mutants.
        coupled_ids: ids of mutants killed by a bug-revealing test.
        contexts: (bug_id, chunk_id) to the generation-time context.
        grouped: emit one instance per chunk with the full pair array
            instead of one instance per mutant.
        exclude_projects: provenance projects to hold out entirely.

    Returns:
        ExportResult with instances ordered by (bug, chunk, mutant id),
        mutants skipped for missing context, and exclusion counts.
    """
    excluded = set(exclude_projects)
    ordered = sorted(mutants, key=lambda m: (m.bug_id, m.chunk_id, m.id))
    instances: list[TrainingInstance] = []
    skipped: list[SkippedMutant] = []
    uncoupled = 0
    held_out = 0
    groups: dict[tuple[str, str], list[tuple[Mutant, SftContext]]] = {}

    for mutant in ordered:
        if mutant.id not in coupled_ids:
            uncoupled += 1
            continue
        key = (mutant.bug_id, mutant.chunk_id)
        context = contexts.get(key)
        if context is None:
            skipped.append(SkippedMutant(mutant.id, "missing-context"))
            continue
        if context.project in excluded:
            held_out += 1
            continue
        groups.setdefault(key, []).append((mutant, context))

    for key in sorted(groups):
        members = groups[key]
        context = members[0][1]
        if grouped:
            batch = [m for m, _ in members]
            instances.append(TrainingInstance(
                prompt=context.prompt,
                response=render_response(batch),
                bug_id=context.bug_id,
                chunk_id=context.chunk_id,
                mutant_ids=tuple(m.id for m in batch),
                project=context.project))
        else:
            for mutant, _ in members:
                instances.append(TrainingInstance(
                    prompt=context.prompt,
                    response=render_response([mutant]),
                    bug_id=context.bug_id,
                    chunk_id=context.chunk_id,
                    mutant_ids=(mutant.id,),
                    project=context.project))

    logger.info("exported %d instances (%d uncoupled, %d held out, %d skipped)",
                len(instances), uncoupled, held_out, len(skipped))
    return ExportResult(instances=instances, skipped=skipped,
                        excluded_uncoupled=uncoupled,
                        excluded_projects=held_out)


def write_instances(instances: Iterable[TrainingInstance], path: str | Path) -> int:
    """Persist instances as line-delimited JSON; returns the line count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for instance in instances:
            record = {
                "prompt": instance.prompt,
                "response": instance.response,
                "provenance": {
                    "bug_id": instance.bug_id,
                    "chunk_id": instance.chunk_id,
                    "mutant_ids": list(instance.mutant_ids),
                    "project": instance.project,
                },
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count

