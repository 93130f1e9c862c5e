"""Bug-fix corpus ingestion and line-level single-hunk extraction.

A corpus is a JSONL file of bug-fix records.  Each record carries the
pre-fix and post-fix text of one method; records whose fix touches more
than one contiguous line region are skipped, so every retained pair has
exactly one hunk.  An optional ``metadata`` field must be a JSON object;
it is checked but not kept.

Reading is split from diffing: ``read_records`` parses and validates the
file.  ``ingest_corpus`` (for building an index) counts the changed
regions of every record and keeps the single-hunk records as they were
read; it builds no hunk.  Hunks come only from ``diff_hunk``, which
``select_pairs`` calls for the records a retrieval returned.

The line diff trims the common prefix and the common suffix.  A middle
whose lines occur nowhere on the other side (the usual one-statement fix)
is its own single region; only other edits pay for the quadratic LCS
table.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)

REQUIRED_FIELDS = ("id", "project", "pre_fix_code", "post_fix_code")


class CorpusError(Exception):
    """Raised for fatally malformed corpora (unreadable, duplicate ids, empty)."""


class HunkError(Exception):
    """Raised when a pre/post text pair does not form exactly one hunk."""


@dataclass(frozen=True)
class Hunk:
    """One contiguous line-level edit between a pre text and a post text.

    ``pre_lines`` and ``post_lines`` carry the removed and the added
    (line number, text) pairs, numbered in their own versions.  Both sides
    of a single hunk start at the same line number, since the lines before
    it are equal.
    """

    pre_lines: tuple[tuple[int, str], ...]
    post_lines: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class BugFixPair:
    """A validated single-hunk bug-fix record: its id and its one hunk."""

    id: str
    hunk: Hunk


@dataclass(frozen=True)
class CorpusRecord:
    """A well-formed corpus record, not yet diffed."""

    id: str
    project: str
    pre_fix_code: str
    post_fix_code: str
    line_no: int


@dataclass(frozen=True)
class SkippedRecord:
    """A corpus record that failed validation, with the reason."""

    record_id: str | None
    line_no: int
    reason: str


@dataclass
class Corpus:
    """An ingested corpus: the single-hunk records plus the skip report."""

    pairs: list[CorpusRecord]
    skipped: list[SkippedRecord]


def _lcs_table(a: list[str], b: list[str]) -> list[list[int]]:
    """Longest-common-subsequence length table for two line lists."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    return table


def _changed_regions(a: list[str], b: list[str]) -> list[tuple[int, int, int, int]]:
    """Maximal runs of non-matching lines as (i1, i2, j1, j2) index ranges.

    Backtracks an LCS alignment; on ties it prefers consuming from ``a``
    first, which keeps the result deterministic.  The common prefix is
    trimmed before the table is built: the backtrack always consumes equal
    heads, and the table cells past the prefix depend only on the suffixes.

    The common suffix cannot be trimmed in general, because the backtrack
    can split it into a separate region (``['y', 'x']`` against
    ``['z', 'x', 'x']`` is two regions).  But when no line of either middle
    (what lies between the common prefix and the common suffix) occurs
    anywhere in the other side past the prefix, the middles are exactly one
    region and no table is built: no cell in them matches, every table
    cell there equals the suffix length, so the backtrack consumes all of
    ``a``'s middle first and then all of ``b``'s, and meets the suffix
    diagonally.
    """
    prefix, limit = 0, min(len(a), len(b))
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix, limit = 0, limit - prefix
    while suffix < limit and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    i2, j2 = len(a) - suffix, len(b) - suffix
    if i2 == j2 == prefix:
        return []
    if set(a[prefix:i2]).isdisjoint(b[prefix:]) and set(b[prefix:j2]).isdisjoint(a[prefix:]):
        return [(prefix, i2, prefix, j2)]
    return [(i1 + prefix, i2 + prefix, j1 + prefix, j2 + prefix)
            for i1, i2, j1, j2 in _backtrack_regions(a[prefix:], b[prefix:])]


def _backtrack_regions(a: list[str], b: list[str]) -> list[tuple[int, int, int, int]]:
    table = _lcs_table(a, b)
    regions: list[tuple[int, int, int, int]] = []
    i = j = 0
    ri, rj = 0, 0
    in_region = False
    while i < len(a) or j < len(b):
        if i < len(a) and j < len(b) and a[i] == b[j]:
            if in_region:
                regions.append((ri, i, rj, j))
                in_region = False
            i += 1
            j += 1
            continue
        if not in_region:
            ri, rj = i, j
            in_region = True
        if j == len(b) or (i < len(a) and table[i + 1][j] >= table[i][j + 1]):
            i += 1
        else:
            j += 1
    if in_region:
        regions.append((ri, i, rj, j))
    return regions


def _single_region(a: list[str], b: list[str]) -> tuple[int, int, int, int]:
    """The one changed region of two line lists; raises HunkError if the
    lists are equal or differ in more than one contiguous region."""
    regions = _changed_regions(a, b)
    if not regions:
        raise HunkError("texts are identical")
    if len(regions) > 1:
        raise HunkError(f"multi-hunk edit ({len(regions)} regions)")
    return regions[0]


def diff_hunk(pre_text: str, post_text: str) -> Hunk:
    """Diff two texts and return their single hunk.

    Raises HunkError if the texts are identical or differ in more than
    one contiguous region.
    """
    a = pre_text.split("\n")
    b = post_text.split("\n")
    i1, i2, j1, j2 = _single_region(a, b)
    return Hunk(
        pre_lines=tuple((k + 1, a[k]) for k in range(i1, i2)),
        post_lines=tuple((k + 1, b[k]) for k in range(j1, j2)),
    )


def _validate_record(raw: dict) -> str | None:
    """Return a rejection reason for a raw record, or None if it is well formed."""
    for name in REQUIRED_FIELDS:
        if name not in raw:
            return f"missing field: {name}"
        if not isinstance(raw[name], str):
            return f"field is not a string: {name}"
    if not raw["id"]:
        return "empty id"
    if "metadata" in raw and not isinstance(raw["metadata"], dict):
        return "metadata is not an object"
    return None


def read_records(path: str) -> tuple[list[CorpusRecord], list[SkippedRecord]]:
    """Read and validate every record of a JSONL corpus file, without diffing.

    Args:
        path: JSONL file with one record per line; each record needs the
            fields id, project, pre_fix_code and post_fix_code.

    Returns:
        The well-formed records in file order, and a skip record for every
        line that is not valid JSON, not an object or lacks a field.

    Raises:
        CorpusError: if the file is unreadable or contains duplicate ids.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    records: list[CorpusRecord] = []
    skipped: list[SkippedRecord] = []
    seen: set[str] = set()
    for line_no, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            skipped.append(SkippedRecord(None, line_no, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(raw, dict):
            skipped.append(SkippedRecord(None, line_no, "record is not an object"))
            continue
        reason = _validate_record(raw)
        if reason is not None:
            skipped.append(SkippedRecord(raw.get("id") if isinstance(raw.get("id"), str) else None,
                                         line_no, reason))
            continue
        record_id = raw["id"]
        if record_id in seen:
            raise CorpusError(f"duplicate record id {record_id!r} at line {line_no}")
        seen.add(record_id)
        records.append(CorpusRecord(
            id=record_id,
            project=raw["project"],
            pre_fix_code=raw["pre_fix_code"],
            post_fix_code=raw["post_fix_code"],
            line_no=line_no,
        ))
    return records, skipped


def _pair(record: CorpusRecord) -> BugFixPair:
    """Diff one record into its pair; raises HunkError unless it is single-hunk."""
    return BugFixPair(id=record.id,
                      hunk=diff_hunk(record.pre_fix_code, record.post_fix_code))


def ingest_corpus(path: str) -> Corpus:
    """Read a JSONL corpus file, keeping single-hunk records and reporting skips.

    Each record's changed regions are counted, but no hunk is built: the
    index needs only the ids and texts of the single-hunk records.

    Args:
        path: JSONL file with one record per line (see ``read_records``).

    Returns:
        A Corpus of the single-hunk records in file order plus skip
        records, also in file order.

    Raises:
        CorpusError: if the file is unreadable, contains duplicate ids, or
            yields zero valid pairs.
    """
    records, skipped = read_records(path)
    pairs: list[CorpusRecord] = []
    for record in records:
        try:
            _single_region(record.pre_fix_code.split("\n"), record.post_fix_code.split("\n"))
        except HunkError as exc:
            skipped.append(SkippedRecord(record.id, record.line_no, str(exc)))
            continue
        pairs.append(record)
    skipped.sort(key=lambda record: record.line_no)

    if not pairs:
        raise CorpusError(f"corpus {path} has no valid single-hunk records")
    logger.info("ingested %d pairs from %s (%d skipped)", len(pairs), path, len(skipped))
    return Corpus(pairs=pairs, skipped=skipped)


def select_pairs(records: list[CorpusRecord],
                 ids) -> tuple[dict[str, BugFixPair], dict[str, str]]:
    """Pair up only the records with the given ids, diffing just those.

    Returns:
        The single-hunk pair of each id that has one, and for every other
        id the reason it has none: no such record, or not single-hunk.
    """
    by_id = {record.id: record for record in records}
    pairs: dict[str, BugFixPair] = {}
    problems: dict[str, str] = {}
    for pair_id in dict.fromkeys(ids):
        record = by_id.get(pair_id)
        if record is None:
            problems[pair_id] = f"index entry {pair_id!r} is not in the corpus"
            continue
        try:
            pairs[pair_id] = _pair(record)
        except HunkError as exc:
            problems[pair_id] = f"corpus record {pair_id!r} is not single-hunk: {exc}"
    return pairs, problems
