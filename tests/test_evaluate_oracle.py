"""The evaluate stage checked against an independent oracle.

The bugs and the model's replies come from the benchmark's generators
(``perfbench/gen.py``): some replies kill, some survive, some repeat the
original line or an earlier reply, and some do not compile.  Some replies
are broken: without tags, not JSON, or holding a repeated and a malformed
object.  ``perfbench/checks.py`` shares no code with mutkit: it recomputes
every bug's useful set and kill cells by running toyrunner in-process,
and recounts the prioritization gains and mutation scores.
``run_evaluate`` drives the real runner in child processes, with one and
with two workers, cold and then warm.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402
from mutkit.config import PipelineConfig, TargetSpec  # noqa: E402
from mutkit.generate import run_generate  # noqa: E402
from mutkit.llm import Completion  # noqa: E402
from mutkit.pipeline import run_evaluate  # noqa: E402

RUNNER = ROOT / "tests" / "toyrunner.py"
# -S skips the interpreter's site set-up, most of a toyrunner start.
COMPILE_COMMAND = f'"{sys.executable}" -S "{RUNNER}" --check {{source}}'
TEST_COMMAND = f'"{sys.executable}" -S "{RUNNER}" {{source}}'
BUGS = 4


class TableModel:
    """A stand-in model that answers each prompt from the generator's table.

    Replies alternate between two forms.  For a prompt the table has
    nothing for, that is a reply without tags or one that is not JSON; a
    reply that proposes something is sent as it is, or repeats its first
    object and adds a malformed one.  ``sent`` counts each kind.
    """

    in_flight = 1

    def __init__(self, table: dict[str, list[str]]):
        self.table = table
        self.sent = Counter()

    def complete(self, prompt: str) -> Completion:
        reply = gen.eval_reply(prompt, self.table)
        objects = json.loads(reply.removeprefix("<json>").removesuffix("</json>"))
        turn = sum(self.sent.values()) % 2
        if not objects:
            kind, text = [("no tags", "[]"), ("not JSON", "<json>[{</json>")][turn]
        else:
            kind = ("proposals", "with a repeat and a malformed object")[turn]
            if turn:
                objects += [objects[0], {"precode": 7, "aftercode": "x"}]
            text = "<json>" + json.dumps(objects) + "</json>"
        self.sent[kind] += 1
        return Completion(text=text)

    def end_batch(self) -> None:
        pass


def target_spec(row: dict) -> TargetSpec:
    return TargetSpec(bug_id=row["bug_id"], method=row["method"], project=row["project"],
                      bug_revealing_tests=tuple(row.get("bug_revealing_tests", ())),
                      buggy_method=row.get("buggy_method"))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def revealing_tests(oracle, row: dict, test_ids: list[str], scratch: Path) -> set[str]:
    """The tests toyrunner says reveal a bug: its listed ones, or those the
    buggy version fails differently from the fixed one."""
    if "buggy_method" not in row:
        return set(row["bug_revealing_tests"]) & set(test_ids)
    outcomes = []
    for name in ("method", "buggy_method"):
        source = scratch / f"{row['bug_id']}-{name}.java"
        source.write_text(row[name], encoding="utf-8")
        outcomes.append(oracle.outcomes(source))
    fixed, buggy = outcomes
    return {test for test in test_ids if buggy[test] != fixed[test]}


@pytest.fixture(scope="module")
def evaluations(tmp_path_factory):
    """Per worker count: the output directory and its tree after the cold
    and after the warm report."""
    rows, table = gen.eval_bugs(random.Random(7), BUGS)
    # Each line's first aftercode is proposed twice, so that some mutants
    # repeat an earlier one.
    table = {line: aftercodes + aftercodes[:1] for line, aftercodes in table.items()}
    targets = [target_spec(row) for row in rows]
    base = tmp_path_factory.mktemp("oracle")
    runs = {}
    for workers in (1, 2):
        out = base / f"workers-{workers}"
        config = PipelineConfig(output_dir=str(out), retrieval=False, workers=workers,
                                compile_command=COMPILE_COMMAND,
                                test_command=TEST_COMMAND)
        model = TableModel(table)
        generated = run_generate(config, targets, backend=model)
        assert generated.succeeded == BUGS
        assert len(model.sent) == 4
        totals = Counter()
        for entry in generated.summary["targets"].values():
            totals.update({key: entry[key] for key in ("parse_failures", "pairs_dropped")})
        sent = model.sent
        assert totals == {"parse_failures": sent["no tags"] + sent["not JSON"],
                          "pairs_dropped": sent["with a repeat and a malformed object"]}
        trees = []
        for _ in ("cold", "warm"):
            run_evaluate(config, targets)
            trees.append(checks.tree_digest(out))
        runs[workers] = out, trees
    return rows, base, runs


@pytest.mark.parametrize("workers", [1, 2])
def test_every_kill_matrix_and_useful_set_is_the_oracle_s(evaluations, workers):
    rows, base, runs = evaluations
    out, _ = runs[workers]
    failures, coupled = checks.check_toy_evaluation(
        checks.ToyOracle(RUNNER), rows, out, base / f"oracle-{workers}")
    assert failures == []
    assert coupled > 0
    # Some cells are kills and some are not, and some mutants are not useful.
    matrices = [checks.read_matrix(out / "matrices" / f"{row['bug_id']}.matrix")
                for row in rows]
    cells = "".join("".join(row_cells) for _, _, row_cells in matrices)
    assert "0" in cells and "1" in cells
    useful = sum(len(mutant_ids) for mutant_ids, _, _ in matrices)
    generated = len(list((out / "mutants").glob("*.java")))
    assert 0 < useful < generated
    effectiveness = read_json(out / "report" / "effectiveness.json")
    assert sum(map(len, effectiveness["coupled_mutants"].values())) == coupled


@pytest.mark.parametrize("workers", [1, 2])
def test_prioritization_and_effectiveness_are_the_oracle_s(evaluations, workers,
                                                           tmp_path):
    rows, _, runs = evaluations
    out, _ = runs[workers]
    oracle = checks.ToyOracle(RUNNER)
    tcp = read_json(out / "report" / "tcp.json")
    effectiveness = read_json(out / "report" / "effectiveness.json")
    failures, truth = [], {}
    for row in rows:
        bug = row["bug_id"]
        mutant_ids, test_ids, cells = checks.read_matrix(out / "matrices" / f"{bug}.matrix")
        kills = np.array([[cell == "1" for cell in line] for line in cells],
                         dtype=bool).reshape(len(mutant_ids), len(test_ids))
        truth[bug] = {"test_ids": test_ids, "kills": kills,
                      "revealing": revealing_tests(oracle, row, test_ids, tmp_path)}
        assert truth[bug]["revealing"]
        failures += checks.check_tcp(bug, {"strategies": tcp["per_bug"][bug]}, truth[bug])
    mutated = {bug: facts for bug, facts in truth.items() if len(facts["kills"])}
    failures += checks.check_metrics(effectiveness, mutated)
    assert failures == []
    assert mutated and effectiveness["excluded_bugs"] == sorted(set(truth) - set(mutated))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warm_report_leaves_the_cold_tree(evaluations, workers):
    _, _, runs = evaluations
    cold, warm = runs[workers][1]
    assert any(name.startswith("matrices/runs/") for name in cold)
    assert warm == cold


def test_one_and_two_workers_write_the_same_tree(evaluations):
    _, _, runs = evaluations
    assert runs[1][1][0] == runs[2][1][0]
