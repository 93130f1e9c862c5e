"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mutkit import tcp  # noqa: E402
from mutkit.chunker import chunk_method, parse_method  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestGenerators:
    def test_same_seed_same_inputs(self):
        for seed in (0, 7):
            assert gen.corpus_records(random.Random(seed), 40) == \
                gen.corpus_records(random.Random(seed), 40)
            assert gen.rag_targets(random.Random(seed), 30) == \
                gen.rag_targets(random.Random(seed), 30)
            assert gen.eval_bugs(random.Random(seed), 4) == \
                gen.eval_bugs(random.Random(seed), 4)
        assert gen.corpus_records(random.Random(1), 40) != \
            gen.corpus_records(random.Random(2), 40)

    def test_matrix_files_repeat_per_seed(self, tmp_path):
        for name in ("a", "b"):
            gen.write_matrix_inputs(tmp_path / name, [(12, 6), (20, 9)], random.Random(3))
        gen.write_matrix_inputs(tmp_path / "c", [(12, 6), (20, 9)], random.Random(4))
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
        assert _tree(tmp_path / "a") != _tree(tmp_path / "c")

    def test_corpus_hunk_counts_hold(self):
        from mutkit.corpus import HunkError, diff_hunk

        records, pairs, skipped = gen.corpus_records(random.Random(101), 4000)
        single = 0
        for record in records:
            try:
                diff_hunk(record["pre_fix_code"], record["post_fix_code"])
                single += 1
            except HunkError:
                pass
        assert (single, len(records) - single) == (pairs, skipped)

    def test_prompt_total_is_exact(self):
        rows, prompts, lines = gen.rag_targets(random.Random(5), 37)
        chunks = sum(len(chunk_method(parse_method(row["method"]))) for row in rows)
        assert chunks == prompts == 37
        assert lines == sum(len(row["method"].split("\n")) for row in rows)

    def test_nested_method_chunk_count_matches_chunker(self):
        rng = random.Random(11)
        for number in range(200):
            source, chunks = gen.nested_method(rng, f"g{number}")
            assert len(chunk_method(parse_method(source))) == chunks, source


def _span(id_, start, end, parent=None, layer="x", run=0):
    return spans.Span(id_, f"{layer}.f{id_}", layer, start, end, parent, run, 0)


class TestSpanArithmetic:
    def test_self_time_subtracts_union_of_children(self):
        tree = [
            _span(1, 0.0, 10.0, layer="cli"),
            _span(2, 1.0, 3.0, parent=1, layer="tcp"),
            _span(3, 2.0, 5.0, parent=1, layer="tcp"),   # overlaps span 2
            _span(4, 8.0, 12.0, parent=1, layer="mbfl"),  # clipped at 10
            _span(5, 2.5, 2.75, parent=3, layer="execution"),
        ]
        selfs = spans.self_times(tree)
        assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert selfs[3] == pytest.approx(3.0 - 0.25)
        assert selfs[5] == pytest.approx(0.25)

    def test_wall_time_splits_parallel_leaves(self):
        tree = [
            _span(1, 0.0, 10.0, layer="bench"),
            _span(2, 2.0, 6.0, parent=1, layer="validity"),
            _span(3, 4.0, 8.0, parent=1, layer="execution"),
        ]
        wall = spans.wall_by_layer(tree)
        assert sum(wall.values()) == pytest.approx(10.0)
        assert wall["bench"] == pytest.approx(4.0)
        assert wall["validity"] == pytest.approx(2.0 + 1.0)
        assert wall["execution"] == pytest.approx(1.0 + 2.0)

    def test_recorder_wraps_both_names_and_restores_them(self):
        from mutkit import execution, pipeline

        original = execution.run_suite
        assert pipeline.run_suite is original
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            assert execution.run_suite is not original
            assert pipeline.run_suite is execution.run_suite
            matrix = execution.KillMatrix("b", ("m1", "m2"), ("t1", "t2"),
                                          [[True, False], [False, False]])
            with recorder.span("step"):
                tcp.grd(matrix)
        finally:
            recorder.uninstall()
        assert execution.run_suite is original and pipeline.run_suite is original
        names = {span.name for span in recorder.spans}
        assert {"bench.step", "tcp.grd"} <= names
        metrics = spans.layer_metrics(recorder.spans)
        assert metrics["tcp.grd_s"] > 0
        assert metrics["bench.wall_s"] + metrics["tcp.wall_s"] == pytest.approx(
            next(s.seconds for s in recorder.spans if s.name == "bench.step"))


class TestChecks:
    def test_recount_matches_mutkit_greedy(self):
        rng = random.Random(2)
        kills, *_ = gen.structured_matrix(rng, 30, 12)
        matrix = tcp.KillMatrix("b", tuple(f"m{i:02d}" for i in range(30)),
                                tuple(f"t{j:02d}" for j in range(12)), kills)
        for name, suite in (("GRK", tcp.grk(matrix)), ("GRD", tcp.grd(matrix)),
                            ("HYB", tcp.hyb(matrix))):
            order = [matrix.test_ids.index(t) for t in suite.order]
            assert checks.recount_gains(kills, order, name) == \
                (list(suite.step_kills), list(suite.step_pairs))

    def test_corrupted_kill_cell_is_caught(self, tmp_path):
        workload = workloads.EvalToy(ROOT, tmp_path / "work", seed=3, tiny=True)
        workload.setup()
        directory = tmp_path / "run"
        directory.mkdir()
        out = directory / "out"
        config = workload._config(directory, out)
        workload._generate(config)
        workload.cli("report", ["report", "--config", str(config),
                                "--targets", str(workload.targets)])
        assert workload.ops.failed == 0, workload.ops.reasons
        failures, _ = checks.check_toy_evaluation(workload.oracle, workload.rows, out,
                                                  directory / "oracle")
        assert failures == []
        path = out / "matrices" / "E-000.matrix"
        lines = path.read_text().splitlines()
        row = lines[2]
        lines[2] = ("1" if row[0] == "0" else "0") + row[1:]
        path.write_text("\n".join(lines) + "\n")
        failures, _ = checks.check_toy_evaluation(workload.oracle, workload.rows, out,
                                                  directory / "oracle")
        assert failures and "kill row" in failures[0]

    def test_corrupted_input_matrix_fails_the_analysis_run(self, tmp_path):
        workload = workloads.Analysis(ROOT, tmp_path, seed=1, tiny=True)
        workload.setup()
        path = workload.inputs / "matrices" / "A-00.matrix"
        lines = path.read_text().splitlines()
        survivor = next(i for i in range(2, len(lines)) if "1" not in lines[i])
        lines[survivor] = "1" + lines[survivor][1:]
        path.write_text("\n".join(lines) + "\n")
        workload.iteration(0)
        assert workload.ops.failed >= 1
        assert any("mutation score" in reason for reason in workload.ops.reasons)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean_twice(name, tmp_path):
    workload = workloads.WORKLOADS[name](ROOT, tmp_path, seed=5, tiny=True)
    workload.setup()
    for index in range(2):
        times = workload.iteration(index)
        assert set(times) == set(workload.steps)
    assert workload.ops.failed == 0, workload.ops.reasons
