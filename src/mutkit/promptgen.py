"""Prompt assembly, response parsing, and mutant materialization.

The prompt has four sections (instruction, entire focal method, current
chunk, few-shot examples) plus four output instructions.  The model must
answer with a JSON array of {"precode", "aftercode"} objects wrapped in
<json></json> tags; each parsed pair is materialized by replacing the first
chunk line whose trimmed text equals the trimmed precode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chunker import CodeChunk, FocalMethod
from .corpus import BugFixPair

INSTRUCTION = (
    "Below is the original Java method, followed by a specific code chunk "
    "extracted from it. Your task is to generate {N} mutant versions by "
    "applying single-line mutations only within the code chunk.\n"
    "Note: In software engineering, a mutant refers to a variant of the "
    "original program created by introducing small syntactic changes, which "
    "are typically used for mutation testing."
)

OUTPUT_INSTRUCTIONS = (
    "1. A mutation can only occur on one line.\n"
    '2. Your output must be like: <json> [ { "precode": "", "aftercode": "" } ] '
    '</json>. The "precode" represents the line of code before mutation, and '
    "it can't be empty, \"aftercode\" represents the line of code after "
    'mutation. Note that you may need to generate multiple pairs of "precode" '
    'and "aftercode".\n'
    "3. Prohibit generating mutants that are identical to the original code "
    "(precode) or duplicate any previously generated mutants.\n"
    "4. Output all mutations in JSON format, ensuring they are wrapped in "
    "<json></json> tags."
)


class MaterializeError(Exception):
    """Raised when a mutation pair cannot be applied; carries a reason code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class FewShotExample:
    """One retrieval example: a fixed line and the buggy line it replaced."""

    precode: str
    aftercode: str
    source_pair_id: str


@dataclass(frozen=True)
class MutationPair:
    """One parsed model suggestion: the line before and after mutation."""

    precode: str
    aftercode: str


@dataclass(frozen=True)
class Mutant:
    """A materialized mutant: the full mutated source plus edit metadata."""

    id: str
    bug_id: str
    source: str
    target_line: int
    original_line_text: str
    mutated_line_text: str
    chunk_id: str


def render_examples(pairs: list[BugFixPair]) -> list[FewShotExample]:
    """Turn retrieved bug-fix pairs into few-shot examples.

    The mutation direction is fixed-to-buggy: precode is the post-fix
    (correct) changed line and aftercode is the pre-fix (buggy) line it
    replaced.  Pairs whose hunk is not one-line-to-one-line, or whose
    changed lines are blank or equal once trimmed, are left out; retrieval
    order is preserved.
    """
    examples = []
    for pair in pairs:
        hunk = pair.hunk
        if len(hunk.pre_lines) != 1 or len(hunk.post_lines) != 1:
            continue
        buggy_line = hunk.pre_lines[0][1].strip()
        fixed_line = hunk.post_lines[0][1].strip()
        if fixed_line and fixed_line != buggy_line:
            examples.append(FewShotExample(
                precode=fixed_line, aftercode=buggy_line, source_pair_id=pair.id))
    return examples


def render_prompt(method: FocalMethod, chunk: CodeChunk,
                  examples: list[FewShotExample], n: int) -> str:
    """Render the full prompt text for one chunk.

    Args:
        method: the focal method.
        chunk: the chunk to mutate.
        examples: few-shot examples, already capped at the configured Top-N.
        n: number of mutants to request; equals the chunk's physical line
            count (or the method's when chunking is disabled).
    """
    instruction = INSTRUCTION.replace("{N}", str(n))
    examples_json = json.dumps(
        [{"precode": e.precode, "aftercode": e.aftercode} for e in examples])
    return (
        f"[Instruction]: {instruction}\n"
        f"\n"
        f"[Entire Focal Method]: {method.source}\n"
        f"\n"
        f"[The Current Chunk]: Only mutate these lines: {chunk.text}\n"
        f"\n"
        f"[Few-Shot Examples]: <json> {examples_json} </json>\n"
        f"\n"
        f"[Output Instructions]:\n"
        f"{OUTPUT_INSTRUCTIONS}"
    )


@dataclass
class ParsedResponse:
    """parse_response output: pairs, dropped-object count, failure flag."""

    pairs: list[MutationPair]
    dropped: int = 0
    failure: str | None = None


def parse_response(text: str) -> ParsedResponse:
    """Extract mutation pairs from a model response.

    Reads the first <json>...</json> region and parses it as an array of
    objects with string precode/aftercode fields.  Schema-violating objects
    are dropped individually; a missing tag pair or non-array region makes
    the whole response count as zero pairs, with a failure flag.
    """
    start = text.find("<json>")
    if start < 0:
        return ParsedResponse(pairs=[], failure="missing-tags")
    end = text.find("</json>", start + len("<json>"))
    if end < 0:
        return ParsedResponse(pairs=[], failure="missing-tags")
    region = text[start + len("<json>"):end].strip()
    try:
        parsed = json.loads(region)
    except json.JSONDecodeError:
        return ParsedResponse(pairs=[], failure="invalid-json")
    if not isinstance(parsed, list):
        return ParsedResponse(pairs=[], failure="not-an-array")
    pairs: list[MutationPair] = []
    dropped = 0
    for item in parsed:
        if (isinstance(item, dict)
                and isinstance(item.get("precode"), str)
                and isinstance(item.get("aftercode"), str)
                and item["precode"].strip()):
            pairs.append(MutationPair(precode=item["precode"],
                                      aftercode=item["aftercode"]))
        else:
            dropped += 1
    return ParsedResponse(pairs=pairs, dropped=dropped)


def _leading_whitespace(line: str) -> str:
    return line[:len(line) - len(line.lstrip())]


def materialize(original_source: str, chunk: CodeChunk, pair: MutationPair,
                *, mutant_id: str, bug_id: str, chunk_id: str) -> Mutant:
    """Apply one mutation pair to a pristine copy of the original source.

    The first line inside chunk.line_numbers whose trimmed text equals the
    trimmed precode is replaced by aftercode, re-indented with the original
    line's leading whitespace and ended as the original line is.

    Raises:
        MaterializeError: reason "multi-line" if aftercode spans lines,
            reason "out-of-chunk" if precode matches no chunk line (matches
            outside the chunk do not count).
    """
    aftercode = pair.aftercode
    if "\n" in aftercode or "\r" in aftercode:
        raise MaterializeError("multi-line", "aftercode contains a line break")
    lines = original_source.split("\n")
    needle = pair.precode.strip()
    target_line = None
    for line_number in chunk.line_numbers:
        index = line_number - 1
        if 0 <= index < len(lines) and lines[index].strip() == needle:
            target_line = line_number
            break
    if target_line is None:
        raise MaterializeError("out-of-chunk",
                               f"precode {needle!r} matches no chunk line")
    original_line = lines[target_line - 1]
    # Split at "\n", each line of a CRLF source ends in "\r"; keep it.
    ending = "\r" if original_line.endswith("\r") else ""
    mutated_line = _leading_whitespace(original_line) + aftercode.strip() + ending
    lines[target_line - 1] = mutated_line
    return Mutant(
        id=mutant_id,
        bug_id=bug_id,
        source="\n".join(lines),
        target_line=target_line,
        original_line_text=original_line,
        mutated_line_text=mutated_line,
        chunk_id=chunk_id,
    )

