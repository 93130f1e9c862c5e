"""The evaluate stage checked against an independent oracle.

The bugs and the model's replies come from the benchmark's generators
(``perfbench/gen.py``): some replies kill, some survive, some repeat the
original line or an earlier reply, and some do not compile.  ``perfbench/checks.py`` shares no
code with mutkit: it recomputes every bug's useful set and kill cells by
running toyrunner in-process.  ``run_evaluate`` drives the real runner in
child processes, with one and with two workers, cold and then warm.
"""

import random
import sys
from pathlib import Path

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
    """A stand-in model that answers each prompt from the generator's table."""

    in_flight = 1

    def __init__(self, table: dict[str, list[str]]):
        self.table = table

    def complete(self, prompt: str) -> Completion:
        return Completion(text=gen.eval_reply(prompt, self.table))

    def end_batch(self) -> None:
        pass


def target_spec(row: dict) -> TargetSpec:
    return TargetSpec(bug_id=row["bug_id"], method=row["method"], project=row["project"],
                      bug_revealing_tests=tuple(row.get("bug_revealing_tests", ())),
                      buggy_method=row.get("buggy_method"))


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
        generated = run_generate(config, targets, backend=TableModel(table))
        assert generated.succeeded == BUGS
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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warm_report_leaves_the_cold_tree(evaluations, workers):
    _, _, runs = evaluations
    cold, warm = runs[workers][1]
    assert any(name.startswith("matrices/runs/") for name in cold)
    assert warm == cold


def test_one_and_two_workers_write_the_same_tree(evaluations):
    _, _, runs = evaluations
    assert runs[1][1][0] == runs[2][1][0]
