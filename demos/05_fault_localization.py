"""Walkthrough: mutation-based fault localization on a buggy program.

A program with a fault on statement 3 fails two of its five tests.
Mutants of the faulty statement make those failures pass, mutants of
healthy statements do not; MUSE and Metallaxis both turn that signal
into a suspiciousness ranking with the fault on top.

    python3 demos/05_fault_localization.py
"""

from mutkit.execution import TestOutcomeVector, build_kill_matrix
from mutkit.mbfl import fl_metrics, localize

STATEMENTS = (1, 2, 3, 4)
FAULTY = 3

ORIGINAL = {"t1": "pass", "t2": "fail", "t3": "pass", "t4": "fail",
            "t5": "pass"}

# mutant id -> (statement, tests whose outcome the mutant flips)
MUTANTS = {
    "m1": (1, ()),              # dead edit: changes nothing observable
    "m2": (2, ("t1",)),         # breaks a passing test
    "m3": (3, ("t2",)),         # fixes one failure
    "m4": (3, ("t2", "t4")),    # fixes both failures
    "m5": (4, ("t3", "t5")),    # breaks two passing tests
}


def main() -> None:
    print("== 1. The outcome vectors ==")
    original = TestOutcomeVector(outcomes=ORIGINAL)
    print(f"original failing tests: {sorted(original.failing())}")
    mutant_outcomes = {}
    statement_of = {}
    for mutant_id, (statement, flips) in MUTANTS.items():
        outcomes = {t: ("pass" if s == "fail" else "fail") if t in flips else s
                    for t, s in ORIGINAL.items()}
        mutant_outcomes[mutant_id] = TestOutcomeVector(outcomes=outcomes)
        statement_of[mutant_id] = statement
        print(f"  {mutant_id} (stmt {statement}) flips {list(flips) or '-'}")
    # A kill is a flip against the original, so the matrix holds the flips.
    matrix = build_kill_matrix(original, mutant_outcomes, "Bug-7")

    reports = localize("Bug-7", original, matrix, statement_of,
                       statements=STATEMENTS, faulty_statements=[FAULTY])
    for method, report in reports.items():
        print(f"\n== Suspiciousness under {method} ==")
        for statement in sorted(report.scores, key=report.expected_ranks.get):
            marker = "  <-- fault" if statement == FAULTY else ""
            print(f"  stmt {statement}: score {report.scores[statement]:+.4f} "
                  f"expected rank {report.expected_ranks[statement]:.1f}"
                  f"{marker}")

    print("\n== Localization quality over the bug set ==")
    for method, report in reports.items():
        metrics = fl_metrics([report])
        print(f"{method}: Top-k counts {metrics['top_k']}  "
              f"MAR {metrics['mar']:.2f}  MFR {metrics['mfr']:.2f}  "
              f"(from {metrics['evaluated_bugs']} bug)")


if __name__ == "__main__":
    main()
