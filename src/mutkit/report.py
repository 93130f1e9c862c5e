"""Report sections: the validity, TCP and MBFL payloads, every section's
text table, and the JSON writer for every report file and ``--out`` file.

The analysis modules return what the report writes: a bug's validity row
(``validity.validity_metrics``), the effectiveness section
(``metrics.effectiveness_report``), one bug's rankings
(``mbfl.localize``) and a method's localization metrics
(``mbfl.fl_metrics``).  This module only gathers them per bug, sums the
validity counts per project and overall, and renders the tables.
``pipeline.run_evaluate`` and the standalone ``mutkit metrics``, ``tcp``
and ``mbfl`` commands share it; each caller decides only where inputs
come from, which bugs it skips, and whether an error is a warning or a
failure.  Kernels are called through their modules (``tcp.grk``), so
instrumentation that rebinds module functions sees them.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from pathlib import Path

from . import mbfl, tcp, validity
from .execution import KillMatrix
from .mbfl import MbflError, SuspiciousnessReport

_COUNTS = ("expected", "generated", "duplicates", "compilable", "useful")


def dumps(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(dumps(payload), encoding="utf-8")


def write_section(out_dir: Path, name: str, section: dict, render) -> None:
    """Write <name>.json and its text table <name>.txt."""
    write_json(out_dir / f"{name}.json", section)
    (out_dir / f"{name}.txt").write_text(render(section), encoding="utf-8")


def validity_section(ledgers: Mapping[str, tuple[str, validity.ValidityLedger]],
                     ) -> dict:
    """Counts and rates per bug, per project and overall; ``ledgers`` maps
    each bug id to its (project, ledger)."""
    per_bug = {}
    per_project: dict[str, dict] = {}
    for bug_id in sorted(ledgers):
        project, ledger = ledgers[bug_id]
        row = validity.validity_metrics(ledger)
        per_bug[bug_id] = {"project": project, **row}
        totals = per_project.setdefault(project or "(none)",
                                        dict.fromkeys(_COUNTS, 0))
        for key in _COUNTS:
            totals[key] += row[key]
    overall = {key: sum(p[key] for p in per_project.values()) for key in _COUNTS}
    for row in (*per_project.values(), overall):
        row.update(validity.rates(row))
    return {"per_bug": per_bug, "per_project": per_project, "overall": overall}


def tcp_strategies(weight: float) -> dict[str, Callable]:
    """GRK, GRD and HYB(<weight>) keyed by report name; checks the weight."""
    tcp.check_weight(weight)
    return {"GRK": tcp.grk, "GRD": tcp.grd,
            f"HYB({weight:g})": lambda matrix: tcp.hyb(matrix, weight)}


def tcp_records(matrix: KillMatrix, strategies: Mapping[str, Callable],
                detection: dict[str, set[str]] | None) -> dict[str, dict]:
    """Each strategy's order and step gains, plus its APFD against
    ``detection`` (fault -> detecting tests) when that is given."""
    records = {}
    for name, strategy in strategies.items():
        suite = strategy(matrix)
        record = {"order": list(suite.order),
                  "step_kills": list(suite.step_kills),
                  "step_pairs": list(suite.step_pairs)}
        if detection is not None:
            record["apfd"] = tcp.apfd(suite.order, detection)
        records[name] = record
    return records


def tcp_section(strategies: Mapping[str, Callable],
                per_bug: dict[str, dict[str, dict]]) -> dict:
    """Per-bug records plus each strategy's mean APFD over the bugs with one."""
    mean_apfd = {}
    for name in strategies:
        values = [entry[name]["apfd"] for entry in per_bug.values()
                  if "apfd" in entry[name]]
        mean_apfd[name] = sum(values) / len(values) if values else None
    return {"strategies": sorted(strategies), "per_bug": per_bug,
            "mean_apfd": mean_apfd}


def _suspiciousness_entry(report: SuspiciousnessReport) -> dict:
    return {
        "scores": {str(s): v for s, v in sorted(report.scores.items())},
        "expected_ranks": {str(s): v for s, v
                           in sorted(report.expected_ranks.items())},
        "faulty_ranks": report.faulty_ranks(),
    }


def mbfl_section(per_bug: dict[str, dict[str, SuspiciousnessReport]],
                 warnings: list[str] | None = None) -> dict:
    """Per-bug rankings plus Top-k/MAR/MFR per method over the bugs that
    have faulty statements (None when none has).  An MbflError while aggregating a method goes to
    ``warnings`` (the metrics are then None) or, with no list, is raised."""
    section: dict = {
        "per_bug": {bug_id: {method: _suspiciousness_entry(report)
                             for method, report in reports.items()}
                    for bug_id, reports in per_bug.items()},
        "metrics": {},
    }
    for method in mbfl.AGGREGATION_METHODS:
        reports = [by_method[method] for by_method in per_bug.values()
                   if by_method[method].faulty_statements]
        section["metrics"][method] = None
        if not reports:
            continue
        try:
            section["metrics"][method] = mbfl.fl_metrics(reports)
        except MbflError as error:
            if warnings is None:
                raise
            warnings.append(f"mbfl: {method}: {error}")
    return section


def _percent(value: float | None) -> str:
    return "n/a" if value is None else f"{100 * value:.2f}%"


def _fixed(value: float | None, digits: int = 4) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"


def validity_text(section: dict) -> str:
    lines = ["VALIDITY (per project)", ""]
    header = f"{'Project':<16}{'Exp.':>8}{'Gen.':>8}{'Gen.Rate':>10}" \
             f"{'ND Rate':>10}{'Comp.Rate':>11}{'Useful':>8}"
    lines += [header, "-" * len(header)]
    rows = dict(section["per_project"])
    rows["Overall"] = section["overall"]
    for name, row in rows.items():
        lines.append(
            f"{name:<16}{row['expected']:>8}{row['generated']:>8}"
            f"{_percent(row['generation_rate']):>10}"
            f"{_percent(row['nonduplicate_rate']):>10}"
            f"{_percent(row['compilable_rate']):>11}"
            f"{row['useful']:>8}")
    return "\n".join(lines) + "\n"


def effectiveness_text(section: dict) -> str:
    lines = ["EFFECTIVENESS", ""]
    for label, key, kind in (
            ("Mutation score", "mutation_score", "micro"),
            ("Mutation score", "mutation_score", "macro"),
            ("Real bug detection", "real_bug_detection", "macro"),
            ("Real bug detection", "real_bug_detection", "micro"),
            ("Coupling rate", "coupling_rate", "micro"),
            ("Coupling rate", "coupling_rate", "macro")):
        lines.append(f"{f'{label} ({kind})':<32}{_fixed(section[key][kind])}")
    lines.append(f"{'Average Ochiai (AOC)':<32}{_fixed(section['aoc'])}")
    lines.append(f"{'Bugs with Ochiai >= 0.8':<32}"
                 f"{section['high_similarity_count']}")
    if section["excluded_bugs"]:
        lines.append(f"{'Excluded bugs':<32}{', '.join(section['excluded_bugs'])}")
    lines += ["", f"{'Bug':<24}{'MS':>8}{'Ochiai':>10}"]
    for bug_id, score in section["per_bug_mutation_score"].items():
        ochiai_value = section["bug_ochiai"].get(bug_id)
        lines.append(f"{bug_id:<24}{_fixed(score):>8}"
                     f"{_fixed(ochiai_value):>10}")
    return "\n".join(lines) + "\n"


def tcp_text(section: dict) -> str:
    names = sorted(section["mean_apfd"])
    lines = ["TEST PRIORITIZATION (mean APFD)", ""]
    lines += [f"{name:<16}{_fixed(section['mean_apfd'][name])}" for name in names]
    lines += ["", f"{'Bug':<24}" + "".join(f"{name:>12}" for name in names)]
    for bug_id, entry in section["per_bug"].items():
        cells = "".join(f"{_fixed(entry[name].get('apfd')):>12}" for name in names)
        lines.append(f"{bug_id:<24}{cells}")
    return "\n".join(lines) + "\n"


def mbfl_text(section: dict) -> str:
    lines = ["FAULT LOCALIZATION", ""]
    header = f"{'Method':<14}{'Top-1':>7}{'Top-3':>7}{'Top-5':>7}" \
             f"{'MAR':>8}{'MFR':>8}"
    lines += [header, "-" * len(header)]
    for method in mbfl.AGGREGATION_METHODS:
        result = section["metrics"].get(method)
        if result is None:
            lines.append(f"{method:<14}{'n/a':>7}")
            continue
        lines.append(
            f"{method:<14}{result['top_k'].get('1', 0):>7}"
            f"{result['top_k'].get('3', 0):>7}"
            f"{result['top_k'].get('5', 0):>7}"
            f"{_fixed(result['mar'], 2):>8}{_fixed(result['mfr'], 2):>8}")
    return "\n".join(lines) + "\n"
