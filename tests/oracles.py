"""Independent brute-force oracles used to validate the metric modules.

Everything here is written as plainly as possible (dict-of-sets, explicit
loops, no shared code with the package) so an implementation bug cannot
hide in both places.
"""

import hashlib
import itertools
import math
import random
import re
import types
import typing

import numpy as np


def random_kill_table(rng: random.Random, max_mutants=50, max_tests=50,
                      density=None):
    """A random kill table: ({mutant: set of killed tests}, tests list)."""
    mutants = [f"m{i:02d}" for i in range(rng.randint(1, max_mutants))]
    tests = [f"t{j:02d}" for j in range(rng.randint(1, max_tests))]
    density = rng.uniform(0.05, 0.6) if density is None else density
    table = {m: {t for t in tests if rng.random() < density} for m in mutants}
    return table, tests


def oracle_mutation_score(table):
    killed = 0
    for killed_set in table.values():
        if len(killed_set) > 0:
            killed += 1
    return killed / len(table)


def oracle_ochiai(set_a, set_b):
    if len(set_a) == 0 or len(set_b) == 0:
        return 0.0
    overlap = 0
    for t in set_a:
        if t in set_b:
            overlap += 1
    return overlap / math.sqrt(len(set_a) * len(set_b))


def oracle_bug_ochiai(table, revealing):
    total = 0.0
    for killed_set in table.values():
        total += oracle_ochiai(killed_set, revealing)
    return total / len(table)


def oracle_detection(table, revealing):
    detected = 0
    for t in revealing:
        for killed_set in table.values():
            if t in killed_set:
                detected += 1
                break
    return detected, len(revealing)


def oracle_coupling(table, revealing):
    coupled = 0
    for killed_set in table.values():
        if any(t in revealing for t in killed_set):
            coupled += 1
    return coupled / len(table)


def oracle_high_similarity(values, threshold=0.8):
    count = 0
    for v in values:
        if v is not None and v >= threshold:
            count += 1
    return count


def kill_column(table, mutants, test):
    """Kill pattern of one test over the mutant list, as a tuple of bools."""
    return tuple(test in table[m] for m in mutants)


def additional_kills(table, test, covered):
    gained = 0
    for m, killed_set in table.items():
        if test in killed_set and m not in covered:
            gained += 1
    return gained


def additional_pairs(table, mutants, test, distinguished):
    gained = 0
    for i, j in itertools.combinations(range(len(mutants)), 2):
        if (i, j) in distinguished:
            continue
        a = test in table[mutants[i]]
        b = test in table[mutants[j]]
        if a != b:
            gained += 1
    return gained


def oracle_apfd(order, detection_sets):
    n = len(order)
    r = len(detection_sets)
    position = {t: k + 1 for k, t in enumerate(order)}
    total = 0
    for detecting in detection_sets.values():
        total += min(position[t] for t in detecting if t in position)
    return 1 - total / (n * r) + 1 / (2 * n)


def oracle_tie_ranks(scores):
    """Expected inspection ranks for {statement: score}, ties averaged.

    Returns {statement: expected_rank} where a tie group of size g that
    starts after a statements ranked above gets rank a + (g - 1) / 2 + ...
    i.e. the average of positions a+1 .. a+g.
    """
    by_score = {}
    for statement, score in scores.items():
        by_score.setdefault(score, []).append(statement)
    ranks = {}
    above = 0
    for score in sorted(by_score, reverse=True):
        group = by_score[score]
        g = len(group)
        expected = above + (g + 1) / 2
        for statement in group:
            ranks[statement] = expected
        above += g
    return ranks


def oracle_mutant_outcomes(table, original):
    """{mutant: {test: status}}: a killed test flips the original status."""
    flipped = {"pass": "fail", "fail": "pass"}
    outcomes = {}
    for mutant, killed_set in table.items():
        outcomes[mutant] = {}
        for test, status in original.items():
            outcomes[mutant][test] = flipped[status] if test in killed_set else status
    return outcomes


def oracle_muse(failed_m, passed_m, f2p, p2f):
    if p2f == 0:
        return float(failed_m)
    return failed_m - (f2p / p2f) * passed_m


def oracle_metallaxis(failed_m, passed_m, totalfailed):
    denominator = math.sqrt(totalfailed * (failed_m + passed_m))
    if denominator == 0:
        return 0.0
    return failed_m / denominator


def oracle_rank(entries, probe, metric, n):
    """Top-n (id, score) pairs of a flat index, by a full sort on (key, id).

    ``entries`` is a list of (id, float32 vector) in insertion order.  Scores
    are the plain numpy expression of each metric; euclidean ranks by
    ascending distance, cosine and dot by descending similarity, and equal
    scores go to the smaller id.
    """
    ids = [entry_id for entry_id, _ in entries]
    stored = np.stack([vector for _, vector in entries])
    vector = np.asarray(probe, dtype=np.float32)
    if metric == "euclidean":
        scores = np.linalg.norm(stored - vector, axis=1)
    elif metric == "dot":
        scores = stored @ vector
    else:
        norms = np.linalg.norm(stored, axis=1)
        probe_norm = float(np.linalg.norm(vector))
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = (stored @ vector) / (norms * probe_norm)
        scores = np.where((norms == 0) | (probe_norm == 0), 0.0, scores)
    ascending = metric == "euclidean"
    order = sorted(range(len(ids)),
                   key=lambda i: ((scores[i] if ascending else -scores[i]), ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:n]]


_ORACLE_TOKEN_RE = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*"
    r"|\d+(?:\.\d+)?"
    r"|==|!=|<=|>=|&&|\|\||\+\+|--|->|::|<<|>>>|>>|\+=|-=|\*=|/=|%=|&=|\|=|\^="
    r"|[^\sA-Za-z0-9_]"
)


def oracle_embed(code, dimension):
    """The lexical embedding of one text, one trigram at a time.

    The text's tokens are padded with two "\x02" sentinels on each side;
    each token trigram, joined with "\x1f", is hashed with 8-byte BLAKE2b
    and counted in bucket (little-endian digest) % dimension.
    """
    tokens = ["\x02", "\x02"] + _ORACLE_TOKEN_RE.findall(code) + ["\x02", "\x02"]
    buckets = []
    for i in range(len(tokens) - 2):
        joined = "\x1f".join(tokens[i:i + 3]).encode("utf-8")
        digest = hashlib.blake2b(joined, digest_size=8).digest()
        buckets.append(int.from_bytes(digest, "little") % dimension)
    return np.bincount(buckets, minlength=dimension).astype(np.float32)


def apply_hunk(hunk, pre_text):
    """Apply a single hunk to the pre text and return the post text.

    The round-trip oracle of ``diff_hunk``.  Both sides of a single hunk
    start at the same line number, so the edit starts at the first removed
    line or, for a pure insertion, at the first added one.  Raises
    ValueError if the removed lines are not in the pre text there.
    """
    lines = pre_text.split("\n")
    start = (hunk.pre_lines or hunk.post_lines)[0][0] - 1
    for offset, (_, text) in enumerate(hunk.pre_lines):
        if start + offset >= len(lines) or lines[start + offset] != text:
            raise ValueError(f"hunk does not match pre text at line {start + offset + 1}")
    lines[start:start + len(hunk.pre_lines)] = [text for _, text in hunk.post_lines]
    return "\n".join(lines)


def oracle_lcs_table(a, b):
    """Longest-common-subsequence length table: cell [i][j] is the LCS
    length of a[i:] and b[j:]."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    return table


def oracle_changed_regions(a, b):
    """Maximal runs of non-matching lines as (i1, i2, j1, j2) index ranges.

    The reference of ``corpus._changed_regions``: the full LCS table of
    both untrimmed line lists, backtracked from the start, taking equal
    heads together and, on a tie, consuming from ``a`` first.
    """
    table = oracle_lcs_table(a, b)
    regions = []
    i = j = 0
    start = None
    while i < len(a) or j < len(b):
        if i < len(a) and j < len(b) and a[i] == b[j]:
            if start is not None:
                regions.append((start[0], i, start[1], j))
                start = None
            i += 1
            j += 1
            continue
        if start is None:
            start = (i, j)
        if j == len(b) or (i < len(a) and table[i + 1][j] >= table[i][j + 1]):
            i += 1
        else:
            j += 1
    if start is not None:
        regions.append((start[0], i, start[1], j))
    return regions


def oracle_has_type(value, hint):
    """Whether value matches a hint such as ``dict[str, list[int]]``: a bool
    is not an int, an int is a float, dict keys (JSON strings) go unchecked.

    The reference of ``config._type_check``: it re-reads the hint's
    origin and arguments at every level of every value.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(oracle_has_type(value, arg) for arg in args)
    if origin in (list, tuple):
        return isinstance(value, origin) and all(
            oracle_has_type(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            oracle_has_type(item, args[1]) for item in value.values())
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def oracle_id_error(ids, what):
    """The ``MatrixError`` text for the first bad id, or None when every id
    is non-empty, free of whitespace and unique: one id at a time."""
    seen = []
    for one_id in ids:
        if one_id == "" or any(char.isspace() for char in one_id):
            return f"{what} id {one_id!r} is empty or has whitespace"
        if one_id in seen:
            return f"duplicate {what} id {one_id!r}"
        seen.append(one_id)
    return None


def oracle_chunks(source, tree):
    """The chunks of a method as (kind, line numbers, text), by first line.

    ``tree`` holds one (kind, start_line, end_line, depth) per statement in
    pre-order, as the test method writer records it; a statement's parent
    is the nearest record before it one level up.  ``source`` has no final
    newline.  The rule: the if/for/while/do_while/try statements, ordered
    by start line, then depth, both descending (pre-order among equals),
    each claim their unclaimed lines plus the unclaimed lines of the run of
    declarations directly above them in their block (above the label, for
    a labelled statement); the lines left over form maximal runs of
    consecutive lines, one segment chunk each.
    """
    parents = []
    for i, record in enumerate(tree):
        parent = None
        for j in range(i - 1, -1, -1):
            if tree[j][3] == record[3] - 1:
                parent = j
                break
        parents.append(parent)

    def declaration_run(i):
        while parents[i] is not None and tree[parents[i]][0] == "label":
            i = parents[i]
        parent = parents[i]
        if parent is None or tree[parent][0] != "block":
            return set()
        lines = set()
        for j in range(i - 1, parent, -1):
            if parents[j] != parent:
                continue
            if tree[j][0] != "decl":
                break
            lines |= set(range(tree[j][1], tree[j][2] + 1))
        return lines

    texts = source.split("\n")
    remaining = set(range(1, len(texts) + 1))
    targets = [i for i, record in enumerate(tree)
               if record[0] in ("if", "for", "while", "do_while", "try")]
    targets.sort(key=lambda i: (-tree[i][1], -tree[i][3], i))
    chunks = []
    for i in targets:
        own = set(range(tree[i][1], tree[i][2] + 1))
        if not own & remaining:
            continue
        run = declaration_run(i) & remaining
        chunks.append(("control_flow", sorted((own & remaining) | run)))
        remaining -= own | run
    segment = []
    for line in sorted(remaining):
        if segment and line != segment[-1] + 1:
            chunks.append(("segment", segment))
            segment = []
        segment.append(line)
    if segment:
        chunks.append(("segment", segment))
    chunks.sort(key=lambda chunk: chunk[1][0])
    return [(kind, tuple(lines), "\n".join(texts[n - 1] for n in lines))
            for kind, lines in chunks]
