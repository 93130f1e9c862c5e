"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed and
returns plain data plus the counts its inputs imply by construction; the
benchmark writes the data to files and mutkit only ever sees those files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------- corpus

_NAMES = ("count", "total", "index", "limit", "offset", "width", "height",
          "size", "delta", "score", "level", "depth", "start", "stop")
_OPS = ("+", "-", "*", "/", "%")
_CMPS = ("<", "<=", ">", ">=", "==", "!=")


def _corpus_statement(rng, names: list[str]) -> str:
    pick = rng.random()
    a, b = rng.sample(names, 2)
    if pick < 0.4:
        return (f"    int {names[2]}{rng.randint(0, 99)} = "
                f"{a} {rng.choice(_OPS)} {rng.randint(1, 64)};")
    if pick < 0.7:
        return f"    {a} {rng.choice(_OPS)}= {b} {rng.choice(_OPS)} {rng.randint(1, 9)};"
    return f"    if ({a} {rng.choice(_CMPS)} {rng.randint(0, 99)}) {a} = {b};"


def _corpus_method(rng, number: int) -> list[str]:
    """A small method whose lines are all distinct.

    Repeated lines would let the line diff align a one-line edit in two
    ways, so a pair meant to have one hunk could come out as two.
    """
    names = rng.sample(_NAMES, 3)
    lines = [f"public static int f{number}(int {names[0]}, int {names[1]}) {{"]
    for _ in range(rng.randint(3, 6)):
        statement = _corpus_statement(rng, names)
        while statement in lines:
            statement = _corpus_statement(rng, names)
        lines.append(statement)
    lines.append(f"    return {names[0]} {rng.choice(_OPS)} {names[1]};")
    lines.append("}")
    return lines


def _perturb(rng, line: str) -> str:
    """A one-line bug: change a constant, or an operator if there is none."""
    numbers = list(re.finditer(r"\d+", line))
    if numbers:
        match = rng.choice(numbers)
        value = int(match.group()) + rng.randint(1, 5)
        return line[:match.start()] + str(value) + line[match.end():]
    return line.replace(" + ", " - ", 1) if " + " in line else line + " // off"


def corpus_records(rng, pairs: int, multi_hunk_share: float = 0.03):
    """Bug-fix records: ``pairs`` single-hunk ones plus some multi-hunk ones.

    Returns (records, expected_pairs, expected_skipped).  Multi-hunk
    records change two lines with an unchanged line between them, so
    ingest must skip them.
    """
    skipped = round(pairs * multi_hunk_share)
    records = []
    order = ["pair"] * pairs + ["skip"] * skipped
    rng.shuffle(order)
    for number, kind in enumerate(order):
        fixed = _corpus_method(rng, number)
        buggy = list(fixed)
        body = range(1, len(fixed) - 1)
        if kind == "pair":
            line = rng.choice(body)
            buggy[line] = _perturb(rng, fixed[line])
            if buggy[line] == fixed[line]:
                buggy[line] += " // bug"
        else:
            buggy[1] = fixed[1] + " // bug"
            buggy[3] = fixed[3] + " // bug"
        records.append({
            "id": f"p{number:06d}",
            "project": f"proj{number % 7}",
            "pre_fix_code": "\n".join(buggy),
            "post_fix_code": "\n".join(fixed),
        })
    return records, pairs, skipped


# ------------------------------------------------------- nested methods

def _cf_block(rng, indent: int, depth: int, counter: list[int]) -> tuple[list[str], int]:
    """One control-flow statement with a non-empty body; (lines, cf nodes)."""
    pad = "    " * indent
    kind = rng.choice(("if", "if-else", "for", "while"))
    k = rng.randint(0, 9)
    if kind.startswith("if"):
        head = f"{pad}if (a > {k}) {{"
    elif kind == "for":
        counter[0] += 1
        var = f"i{counter[0]}"
        head = f"{pad}for (int {var} = 0; {var} < {k + 1}; {var}++) {{"
    else:
        head = f"{pad}while (a < {k + 1}) {{"
    lines = [head]
    body, nodes = _body(rng, indent + 1, depth + 1, counter)
    lines += body
    if kind == "if-else":
        lines.append(f"{pad}}} else {{")
        body, more = _body(rng, indent + 1, depth + 1, counter)
        lines += body
        nodes += more
    lines.append(f"{pad}}}")
    return lines, nodes + 1


def _simple(rng, indent: int, counter: list[int]) -> tuple[str, str]:
    pad = "    " * indent
    if rng.random() < 0.5:
        counter[0] += 1
        return "decl", f"{pad}int v{counter[0]} = a * {rng.randint(1, 9)};"
    return "expr", f"{pad}b += a - {rng.randint(1, 9)};"


def _body(rng, indent: int, depth: int, counter: list[int]) -> tuple[list[str], int]:
    lines: list[str] = []
    nodes = 0
    for _ in range(rng.randint(1, 3)):
        if depth < 3 and rng.random() < 0.4:
            block, more = _cf_block(rng, indent, depth, counter)
            lines += block
            nodes += more
        else:
            lines.append(_simple(rng, indent, counter)[1])
    return lines, nodes


def nested_method(rng, name: str) -> tuple[str, int]:
    """A nested Java-subset method and the chunk count it implies.

    The chunker claims every control-flow statement as one chunk together
    with the run of declarations directly above it; each maximal run of
    remaining lines becomes one more chunk.  The generator tracks the
    top-level layout, so it knows both numbers without running mutkit.
    """
    counter = [0]
    lines = [f"public static int {name}(int a, int b) {{"]
    claimed: set[int] = set()
    nodes = 0
    items: list[tuple[str, list[str], int]] = []
    for _ in range(rng.randint(4, 7)):
        if rng.random() < 0.45:
            block, more = _cf_block(rng, 1, 0, counter)
            items.append(("cf", block, more))
        else:
            kind, text = _simple(rng, 1, counter)
            items.append((kind, [text], 0))
    line_no = 1
    spans = []
    for kind, block, more in items:
        spans.append((kind, line_no + 1, line_no + len(block)))
        line_no += len(block)
        lines += block
        nodes += more
    for position, (kind, first, last) in enumerate(spans):
        if kind != "cf":
            continue
        claimed.update(range(first, last + 1))
        back = position - 1
        while back >= 0 and spans[back][0] == "decl":
            claimed.add(spans[back][1])
            back -= 1
    lines += ["    return b;", "}"]
    leftover = sorted(set(range(1, len(lines) + 1)) - claimed)
    segments = sum(1 for i, n in enumerate(leftover)
                   if i == 0 or n != leftover[i - 1] + 1)
    return "\n".join(lines), nodes + segments


def mutate_line(text: str) -> str:
    """The aftercode a scripted reply proposes for one chunk line."""
    stripped = text.strip()
    match = re.search(r"\d+", stripped)
    if match:
        value = int(match.group()) + 1
        return stripped[:match.start()] + str(value) + stripped[match.end():]
    if stripped == "}":
        return "};"
    return stripped.replace("return b;", "return a;") if "return" in stripped \
        else stripped + " "


_CHUNK_MARK = "Only mutate these lines: "
_EXAMPLES_MARK = "\n\n[Few-Shot Examples]"


def chunk_lines(prompt: str) -> list[str]:
    """The chunk lines a rendered prompt asks to mutate."""
    start = prompt.index(_CHUNK_MARK) + len(_CHUNK_MARK)
    return prompt[start:prompt.index(_EXAMPLES_MARK)].split("\n")


def rag_reply(prompt: str) -> str:
    """One pair per chunk line, one out-of-chunk pair, one malformed object.

    So per prompt: parsed pairs = chunk lines + 1, materialized = chunk
    lines, rejected = 1, dropped = 1.
    """
    objects = [{"precode": line.strip(), "aftercode": mutate_line(line)}
               for line in chunk_lines(prompt)]
    objects.append({"precode": "int nowhere = 0;", "aftercode": "int nowhere = 1;"})
    objects.append({"precode": 7})
    return "<json>" + json.dumps(objects) + "</json>"


def rag_targets(rng, prompts: int):
    """Targets rows whose chunks add up to exactly ``prompts``.

    Random methods are drawn while they fit; a method of plain statements
    (one chunk) fills any remainder.  Returns (rows, prompts, lines).
    """
    sources = []
    remaining = prompts
    while remaining:
        for _ in range(20):
            source, chunks = nested_method(rng, f"g{len(sources)}")
            if chunks <= remaining:
                break
        else:
            source, chunks = (f"public static int g{len(sources)}(int a, int b) {{\n"
                              f"    b += a - {rng.randint(1, 9)};\n    return b;\n}}"), 1
        sources.append(source)
        remaining -= chunks
    rows = [{"bug_id": f"R-{number:03d}", "method": source, "project": f"proj{number % 3}"}
            for number, source in enumerate(sources)]
    return rows, prompts, sum(len(source.split("\n")) for source in sources)


# ------------------------------------------------------- toyrunner bugs

def _clamp(rng):
    limit, value = rng.choice((("limit", "value"), ("cap", "x"), ("hi", "v")))
    spare = f"int spare = {rng.randint(1, 9)};"
    fixed = "\n".join([
        f"public static int clamp(int {value}) {{",
        f"    int {limit} = 10;",
        f"    {spare}",
        f"    if ({value} > {limit}) {{",
        f"        return {limit};",
        "    }",
        f"    return {value};",
        "}"])
    table = {
        f"int {limit} = 10;": [f"int {limit} = 11;", f"int {limit} = 9;",
                               f"int {limit} = 10;", f"int {limit} = @@;"],
        f"if ({value} > {limit}) {{": [f"if ({value} >= {limit}) {{",
                                       f"if ({value} < {limit}) {{"],
        f"return {limit};": [f"return {value};", f"return {limit} + 1;"],
        f"return {value};": [f"return {limit};", f"return {value} - 1;",
                             f"return {value} -;"],
        spare: [spare.replace("=", "= 1 +")],
    }
    revealing = rng.sample(["t_above", "t_big", "t_at_limit", "t_small"],
                           rng.randint(1, 2))
    return fixed, {"bug_revealing_tests": sorted(revealing)}, table


def _sum_to(rng):
    total, var = rng.choice((("total", "i"), ("acc", "k"), ("s", "j")))
    fixed_lines = [
        "public static int sumTo(int n) {",
        f"    int {total} = 0;",
        f"    for (int {var} = 1; {var} <= n; {var}++) {{",
        f"        {total} += {var};",
        "    }",
        f"    return {total};",
        "}"]
    buggy_lines = list(fixed_lines)
    if rng.random() < 0.5:
        buggy_lines[1] = f"    int {total} = 1;"
    else:
        buggy_lines[2] = buggy_lines[2].replace("<=", "<")
    table = {
        f"int {total} = 0;": [f"int {total} = 1;", f"int {total} = 0;",
                              f"int {total} = -1;"],
        f"for (int {var} = 1; {var} <= n; {var}++) {{": [
            f"for (int {var} = 1; {var} < n; {var}++) {{",
            f"for (int {var} = 0; {var} <= n; {var}++) {{",
            f"for (int {var} = 2; {var} <= n; {var}++) {{",
            f"for (int {var} = 1; {var} <= n; {var}++) {{ {{"],
        f"{total} += {var};": [f"{total} += 1;", f"{total} -= {var};",
                               f"{total} += {var} * 1;", f"{total} += ;"],
        f"return {total};": [f"return 0;", f"return {total} + 0;",
                             f"return {total};"],
    }
    return "\n".join(fixed_lines), {"buggy_method": "\n".join(buggy_lines)}, table


def eval_bugs(rng, count: int):
    """Fixed-mode toyrunner bugs, alternating clamp and sumTo.

    Returns (targets rows, reply table).  The table maps a trimmed source
    line to the aftercodes a reply proposes for it: some kill, some
    survive, some repeat the original line (duplicates) and some do not
    compile under toyrunner --check.
    """
    rows = []
    table: dict[str, list[str]] = {}
    for number in range(count):
        make = _clamp if number % 2 == 0 else _sum_to
        fixed, extra, bug_table = make(rng)
        rows.append({"bug_id": f"E-{number:03d}", "method": fixed,
                     "project": "clamp" if make is _clamp else "sum", **extra})
        for line, aftercodes in bug_table.items():
            table.setdefault(line, aftercodes)
    return rows, table


def eval_reply(prompt: str, table: dict[str, list[str]]) -> str:
    objects = []
    for line in chunk_lines(prompt):
        for aftercode in table.get(line.strip(), ()):
            objects.append({"precode": line.strip(), "aftercode": aftercode})
    return "<json>" + json.dumps(objects) + "</json>"


# ----------------------------------------------------- analysis matrices

def structured_matrix(rng, mutants: int, tests: int):
    """Kill cells with never-killed rows, duplicate columns and mixed density.

    Returns (kills, original_failing, faulty_lines, statement_of, lines).
    """
    nprng = np.random.default_rng(rng.getrandbits(32))
    density = nprng.uniform(0.02, 0.35, size=mutants)
    kills = nprng.random((mutants, tests)) < density[:, None]
    survivors = nprng.random(mutants) < 0.15
    kills[survivors] = False
    copies = nprng.choice(tests, size=tests // 8, replace=False)
    for column in copies:
        kills[:, column] = kills[:, int(nprng.integers(tests))]
    lines = max(10, mutants // 4)
    statement_of = [int(v) for v in nprng.integers(1, lines + 1, size=mutants)]
    failing = sorted(int(v) for v in nprng.choice(tests, size=max(1, tests // 20),
                                                   replace=False))
    faulty = sorted({statement_of[int(nprng.integers(mutants))]})
    return kills, failing, faulty, statement_of, lines


def write_matrix_inputs(root: Path, bugs: list[tuple[int, int]], rng) -> dict:
    """Write matrices/<bug>.matrix and .original.txt plus the JSON side inputs.

    ``bugs`` lists (mutants, tests) per bug.  Returns the ground truth the
    checks compare against, keyed by bug id.
    """
    matrices = root / "matrices"
    detection = root / "detection"
    matrices.mkdir(parents=True, exist_ok=True)
    detection.mkdir(parents=True, exist_ok=True)
    truth = {}
    revealing, statements, faulty_map, space = {}, {}, {}, {}
    for number, (mutants, tests) in enumerate(bugs):
        bug = f"A-{number:02d}"
        kills, failing, faulty, statement_of, lines = structured_matrix(
            rng, mutants, tests)
        mutant_ids = [f"m{i:04d}" for i in range(mutants)]
        test_ids = [f"t{j:04d}" for j in range(tests)]
        with (matrices / f"{bug}.matrix").open("w", encoding="utf-8") as handle:
            handle.write("MUTANTS " + " ".join(mutant_ids) + "\n")
            handle.write("TESTS " + " ".join(test_ids) + "\n")
            for row in kills:
                handle.write("".join("1" if hit else "0" for hit in row) + "\n")
        failing_ids = [test_ids[j] for j in failing]
        with (matrices / f"{bug}.original.txt").open("w", encoding="utf-8") as handle:
            for test in test_ids:
                status = "FAIL" if test in failing_ids else "PASS"
                handle.write(f"{test} {status}\n")
        revealing[bug] = failing_ids
        statements[bug] = dict(zip(mutant_ids, statement_of))
        faulty_map[bug] = faulty
        space[bug] = list(range(1, lines + 1))
        (detection / f"{bug}.json").write_text(json.dumps({bug: failing_ids}),
                                               encoding="utf-8")
        truth[bug] = {"mutant_ids": mutant_ids, "test_ids": test_ids,
                      "kills": kills, "revealing": failing_ids,
                      "space": space[bug]}
    for name, payload in (("revealing", revealing), ("statements", statements),
                          ("faulty", faulty_map), ("space", space)):
        (root / f"{name}.json").write_text(json.dumps(payload, sort_keys=True),
                                           encoding="utf-8")
    return truth
