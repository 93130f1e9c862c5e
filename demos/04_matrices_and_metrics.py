"""Walkthrough: kill matrices, validity rates, effectiveness, and TCP.

Everything downstream of execution reads the kill matrix built from
outcome vectors, so this demo constructs the vectors by hand: one
original program plus four mutants over five tests.  It then walks the validity bookkeeping, the
per-bug effectiveness metrics, and the three prioritization strategies.

    python3 demos/04_matrices_and_metrics.py
"""

from mutkit.chunker import chunk_method, parse_method
from mutkit.execution import TestOutcomeVector, build_kill_matrix
from mutkit.metrics import (BugContext, bug_ochiai, coupled_mutants,
                            coupling_rate, effectiveness_report, mutation_score)
from mutkit.promptgen import MutationPair, materialize
from mutkit.tcp import apfd, grd, grk, hyb
from mutkit.validity import ValidityLedger, dedup, validity_metrics

METHOD = """\
public static int cap(int value) {
    int limit = 10;
    if (value > limit) {
        return limit;
    }
    return value;
}"""

TESTS = ("t_low", "t_edge", "t_high", "t_huge", "t_zero")


def main() -> None:
    print("== 1. Materialize four mutants of one method ==")
    method = parse_method(METHOD)
    chunks = chunk_method(method)
    source_lines = method.source.splitlines()
    edits = [
        ("int limit = 10;", "int limit = 11;"),
        ("int limit = 10;", "int  limit  =  11;"),  # duplicate modulo spaces
        ("if (value > limit) {", "if (value >= limit) {"),
        ("return limit;", "return limit;  "),        # equals the original
    ]
    mutants = []
    for seq, (precode, aftercode) in enumerate(edits):
        chunk = next(c for c in chunks
                     if any(source_lines[n - 1].strip() == precode
                            for n in c.line_numbers))
        mutants.append(materialize(METHOD, chunk,
                                   MutationPair(precode, aftercode),
                                   mutant_id=f"Cap-1-m{seq:03d}", bug_id="Cap-1",
                                   chunk_id="c00"))
    for mutant in mutants:
        print(f"  {mutant.id}: line {mutant.target_line} -> "
              f"{mutant.mutated_line_text.strip()}")

    print("\n== 2. Validity: duplicates and the useful set ==")
    duplicates = dedup(mutants, METHOD)
    ledger = ValidityLedger(expected=6,
                            generated=[m.id for m in mutants],
                            duplicates=duplicates,
                            compilable={m.id for m in mutants})
    row = validity_metrics(ledger)
    print(f"duplicates: {sorted(duplicates)}")
    print(f"useful mutants: {sorted(ledger.useful())}")
    print(f"generation rate: {row['generation_rate']:.2%}  "
          f"non-duplicate: {row['nonduplicate_rate']:.2%}  "
          f"compilable: {row['compilable_rate']:.2%}")

    print("\n== 3. Kill matrix from outcome vectors ==")
    all_pass = {t: "pass" for t in TESTS}
    original = TestOutcomeVector(program_id="Cap-1", outcomes=all_pass)
    observed = {
        "Cap-1-m000": {"t_edge": "fail", "t_high": "fail"},
        "Cap-1-m002": {"t_high": "fail", "t_huge": "fail"},
    }
    useful = sorted(ledger.useful())
    vectors = [TestOutcomeVector(program_id=m,
                                 outcomes={**all_pass, **observed.get(m, {})})
               for m in useful]
    matrix = build_kill_matrix(original, vectors, bug_id="Cap-1")
    header = " ".join(f"{t:>7}" for t in matrix.test_ids)
    print(f"  {'':12} {header}")
    for m, kills in zip(matrix.mutant_ids, matrix.kills):
        row = " ".join(f"{'X' if hit else '.':>7}" for hit in kills)
        print(f"  {m:12} {row}")

    print("\n== 4. Effectiveness against the real bug ==")
    ctx = BugContext(bug_id="Cap-1", matrix=matrix,
                     bug_revealing_tests=frozenset({"t_high"}))
    print(f"mutation score: {mutation_score(ctx):.2f}")
    print(f"mean Ochiai vs the bug: {bug_ochiai(ctx):.4f}")
    print(f"coupled mutants: {sorted(coupled_mutants(ctx))} "
          f"(rate {coupling_rate(ctx):.2f})")
    section = effectiveness_report([ctx])
    print(f"report section: R.B.D. {section['real_bug_detection']['macro']:.2f}, "
          f"AOC {section['aoc']:.4f}, coupled {section['coupled_mutants']}")

    print("\n== 5. Prioritize the suite ==")
    detection = {"Cap-1": {"t_high"}}
    for suite in (grk(matrix), grd(matrix), hyb(matrix, weight=0.5)):
        value = apfd(suite.order, detection)
        print(f"{suite.strategy:<8} order={list(suite.order)} "
              f"APFD={value:.3f}")


if __name__ == "__main__":
    main()
