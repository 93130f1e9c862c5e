"""Tests for suite running, kill-matrix assembly, and persistence."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit.execution import (
    KillMatrix,
    MatrixError,
    RunnerError,
    TestOutcomeVector,
    build_kill_matrix,
    load_matrix,
    load_outcomes,
    parse_outcome_lines,
    run_queue,
    run_suite,
    save_matrix,
    save_outcomes,
)
from mutkit.validity import CompileResult, ValidityError
from oracles import oracle_id_error


def vector(**outcomes):
    return TestOutcomeVector(outcomes=dict(outcomes))


def assert_same_cells(first, second):
    """Same ids and kills once both are put in id-sorted order."""
    first, second = first.sorted_copy(), second.sorted_copy()
    assert first.mutant_ids == second.mutant_ids
    assert first.test_ids == second.test_ids
    assert np.array_equal(first.kills, second.kills)


class TestParseOutcomeLines:
    def test_basic_lines(self):
        assert parse_outcome_lines("t1 PASS\nt2 FAIL\n") == {"t1": "pass", "t2": "fail"}

    def test_noise_lines_ignored(self):
        text = "starting suite...\nt1 PASS\n[debug] xyz\nt2 FAIL\ndone\n"
        assert parse_outcome_lines(text) == {"t1": "pass", "t2": "fail"}

    def test_duplicate_test_id_is_ambiguous(self):
        with pytest.raises(RunnerError, match="ambiguous"):
            parse_outcome_lines("t1 PASS\nt1 PASS\n")


RUNNER = (
    f"{sys.executable} -c \""
    "import sys\n"
    "content = open(sys.argv[1]).read()\n"
    "print('t1', 'PASS' if 'alpha' in content else 'FAIL')\n"
    "print('t2', 'PASS' if 'beta' in content else 'FAIL')\n"
    "\" {source}"
)


# Prints a status line, then a log line starting with byte 0xff.
NOT_UTF8_RUNNER = (f"{sys.executable} -c \"import sys; "
                   "sys.stdout.buffer.write(b't1 PASS\\n\\xff log line\\n')\" {source}")


class TestRunSuite:
    def test_runner_lines_become_vector(self):
        result = run_suite("alpha", RUNNER, program_id="orig",
                           expected_tests=["t1", "t2"])
        assert result.outcomes == {"t1": "pass", "t2": "fail"}
        assert result.flags == {}

    def test_timeout_records_remaining_as_fail_with_flag(self):
        slow = f"{sys.executable} -c \"import time,sys; print('t1 PASS', flush=True); time.sleep(10)\" {{source}}"
        result = run_suite("x", slow, program_id="m1",
                           expected_tests=["t1", "t2"], timeout=0.5)
        assert result.outcomes["t2"] == "fail"
        assert result.flags["t2"] == "timeout"

    def test_crash_without_status_lines_is_error(self):
        crash = f"{sys.executable} -c \"import sys; sys.exit(3)\" {{source}}"
        with pytest.raises(RunnerError, match="no test outcomes"):
            run_suite("x", crash, program_id="m1", expected_tests=["t1"])

    def test_missing_test_flagged(self):
        partial = f"{sys.executable} -c \"print('t1 PASS')\" {{source}}"
        result = run_suite("x", partial, program_id="m1",
                           expected_tests=["t1", "t2"])
        assert result.outcomes["t2"] == "fail"
        assert result.flags["t2"] == "missing"

    def test_unknown_test_id_rejected(self):
        with pytest.raises(RunnerError, match="unknown"):
            run_suite("alpha", RUNNER, program_id="orig", expected_tests=["t1"])

    def test_output_that_is_not_utf8_is_replaced(self):
        result = run_suite("x", NOT_UTF8_RUNNER, program_id="m1",
                           expected_tests=["t1"])
        assert result.outcomes == {"t1": "pass"} and result.flags == {}

    def test_output_that_is_not_utf8_through_the_run_queue(self, tmp_path):
        with run_queue(tmp_path, workers=1) as queue:
            result = queue.suite("x", NOT_UTF8_RUNNER, program_id="m1",
                                 expected_tests=["t1"]).result()
        assert result.outcomes == {"t1": "pass"} and result.flags == {}


class TestBuildKillMatrix:
    def test_identical_vector_survives(self):
        original = vector(t1="pass", t2="pass")
        mutant = vector(t1="pass", t2="pass")
        matrix = build_kill_matrix(original, {"m1": mutant}, "b")
        assert matrix.kills.tolist() == [[False, False]]

    def test_single_flip_sets_single_cell(self):
        original = vector(t1="pass", t2="pass")
        mutant = vector(t1="pass", t2="fail")
        matrix = build_kill_matrix(original, {"m1": mutant}, "b")
        assert matrix.test_ids == ("t1", "t2")
        assert matrix.kills.tolist() == [[False, True]]

    def test_fail_to_pass_flip_is_a_kill(self):
        # Buggy-version mode: the original fails t2; the mutant passes it.
        original = vector(t1="pass", t2="fail")
        mutant = vector(t1="pass", t2="pass")
        matrix = build_kill_matrix(original, {"m1": mutant}, "b")
        assert matrix.test_ids == ("t1", "t2")
        assert matrix.kills.tolist() == [[False, True]]

    def test_test_id_mismatch_rejected(self):
        original = vector(t1="pass")
        mutant = vector(t2="pass")
        with pytest.raises(MatrixError, match="mismatch"):
            build_kill_matrix(original, {"m1": mutant}, "b")

    def test_cells_keyed_by_id_not_dict_order(self):
        original = TestOutcomeVector({"t2": "pass", "t1": "pass"})
        mutant = TestOutcomeVector({"t1": "fail", "t2": "pass"})
        matrix = build_kill_matrix(original, {"m1": mutant}, "b")
        assert matrix.test_ids == ("t1", "t2")
        assert matrix.kills.tolist() == [[True, False]]


class TestMatrixPersistence:
    def random_matrix(self, rng, mutants=20, tests=30):
        mutant_ids = tuple(f"m{i:02d}" for i in range(mutants))
        test_ids = tuple(f"t{j:02d}" for j in range(tests))
        cells = np.array([[rng.random() < 0.4 for _ in test_ids] for _ in mutant_ids])
        return KillMatrix(bug_id="bug", mutant_ids=mutant_ids,
                          test_ids=test_ids, kills=cells)

    def test_round_trip_20x30(self, tmp_path):
        matrix = self.random_matrix(random.Random(7))
        path = str(tmp_path / "bug.matrix")
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert_same_cells(loaded, matrix)
        assert loaded.bug_id == "bug"

    def test_cells_follow_ids_under_permutation(self, tmp_path):
        matrix = self.random_matrix(random.Random(8), mutants=5, tests=4)
        rng = random.Random(9)
        mutant_order = list(range(5))
        test_order = list(range(4))
        rng.shuffle(mutant_order)
        rng.shuffle(test_order)
        permuted = KillMatrix(
            bug_id="bug",
            mutant_ids=tuple(matrix.mutant_ids[i] for i in mutant_order),
            test_ids=tuple(matrix.test_ids[j] for j in test_order),
            kills=matrix.kills[np.ix_(mutant_order, test_order)],
        )
        original_path = str(tmp_path / "a.matrix")
        permuted_path = str(tmp_path / "b.matrix")
        save_matrix(matrix, original_path)
        save_matrix(permuted, permuted_path)
        assert_same_cells(load_matrix(original_path), load_matrix(permuted_path))

    def test_canonical_save_is_byte_stable(self, tmp_path):
        matrix = self.random_matrix(random.Random(10), mutants=6, tests=5)
        first = tmp_path / "first.matrix"
        second = tmp_path / "second.matrix"
        save_matrix(matrix, str(first))
        save_matrix(load_matrix(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bug_id", ["Clamp-1", "a.b", "a.", ".", ".."])
    def test_the_bug_id_is_the_name_the_matrix_was_saved_under(self, tmp_path, bug_id):
        path = tmp_path / f"{bug_id}.matrix"
        save_matrix(self.random_matrix(random.Random(11), mutants=2, tests=2), str(path))
        assert load_matrix(str(path)).bug_id == bug_id

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.matrix"
        path.write_text("")
        with pytest.raises(MatrixError, match="empty"):
            load_matrix(str(path))

    def test_bad_row_width_rejected(self, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text("MUTANTS m1\nTESTS t1 t2\n101\n")
        with pytest.raises(MatrixError, match="0/1"):
            load_matrix(str(path))

    @pytest.mark.parametrize("row", ["102", "1 0", "1\u00e90", "10"])
    def test_bad_cells_name_the_row(self, tmp_path, row):
        path = tmp_path / "bad.matrix"
        path.write_text(f"MUTANTS m1 m2\nTESTS t1 t2 t3\n110\n{row}\n", encoding="utf-8")
        with pytest.raises(MatrixError) as caught:
            load_matrix(str(path))
        assert str(caught.value) == f"matrix file {path}: row 2 is not 3 0/1 cells"

    @pytest.mark.parametrize("rows", [("12", "1"), ("2", "10"), ("2", "0")])
    def test_first_bad_row_is_reported(self, tmp_path, rows):
        path = tmp_path / "bad.matrix"
        path.write_text("MUTANTS m1 m2 m3\nTESTS t1\n1\n" + "\n".join(rows) + "\n")
        with pytest.raises(MatrixError, match="row 2 is not 1 0/1 cells"):
            load_matrix(str(path))

    def test_cells_parse_to_the_written_bits(self, tmp_path):
        path = tmp_path / "bug.matrix"
        path.write_text("MUTANTS m1 m2\nTESTS t1 t2 t3\n 101 \n010\n")
        np.testing.assert_array_equal(load_matrix(str(path)).kills,
                                      [[True, False, True], [False, True, False]])

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.matrix"
        path.write_text("MUTANTS m1 m2\nTESTS t1\n1\n")
        with pytest.raises(MatrixError, match="rows"):
            load_matrix(str(path))

    def test_whitespace_in_ids_rejected(self):
        with pytest.raises(MatrixError, match="whitespace"):
            KillMatrix(bug_id="b", mutant_ids=("m 1",), test_ids=("t1",),
                       kills=np.zeros((1, 1), dtype=bool))

    @pytest.mark.parametrize("ids, message", [
        (("m1", ""), "mutant id '' is empty or has whitespace"),
        (("m 1",), "mutant id 'm 1' is empty or has whitespace"),
        (("m1", "m\u00a01"), "mutant id 'm\\xa01' is empty or has whitespace"),
        (("m1", "m2\n"), "mutant id 'm2\\n' is empty or has whitespace"),
        (("m1", "m2", "m1"), "duplicate mutant id 'm1'"),
        (("m1", "m1", ""), "duplicate mutant id 'm1'"),
        (("", "m1", "m1"), "mutant id '' is empty or has whitespace"),
        (("m1", "m 2", "m1"), "mutant id 'm 2' is empty or has whitespace"),
    ])
    def test_the_first_bad_id_is_named(self, ids, message):
        with pytest.raises(MatrixError) as caught:
            KillMatrix(bug_id="b", mutant_ids=ids, test_ids=("t1",),
                       kills=np.zeros((len(ids), 1), dtype=bool))
        assert str(caught.value) == message

    @settings(max_examples=300, deadline=None)
    @given(mutant_ids=st.lists(st.sampled_from(["a", "b", "c", "", " ", "a b", "\u2028"]),
                               max_size=6).map(tuple),
           test_ids=st.lists(st.sampled_from(["t", "u", "", "t\t"]), max_size=4).map(tuple))
    def test_id_checks_agree_with_the_oracle(self, mutant_ids, test_ids):
        expected = (oracle_id_error(mutant_ids, "mutant")
                    or oracle_id_error(test_ids, "test"))
        try:
            KillMatrix(bug_id="b", mutant_ids=mutant_ids, test_ids=test_ids,
                       kills=np.zeros((len(mutant_ids), len(test_ids)), dtype=bool))
        except MatrixError as error:
            assert str(error) == expected
        else:
            assert expected is None


# Sleeps longer for shorter sources, so later submissions finish first.
SLOW_RUNNER = (
    f"{sys.executable} -c \""
    "import sys, time\n"
    "content = open(sys.argv[1]).read()\n"
    "time.sleep(0.3 / (1 + len(content)))\n"
    "print('t1', 'PASS' if 'alpha' in content else 'FAIL')\n"
    "print('t2', 'PASS' if 'beta' in content else 'FAIL')\n"
    "\" {source}"
)


class TestRunMutantSuites:
    def test_results_sorted_by_mutant_id(self, tmp_path):
        sources = {"m2": "alpha beta", "m1": "alpha", "m3": ""}
        with run_queue(tmp_path / "runs", workers=3) as queue:
            runs = {mid: queue.suite(sources[mid], SLOW_RUNNER, program_id=mid,
                                     expected_tests=["t1", "t2"])
                    for mid in sorted(sources, reverse=True)}
            vectors = [runs[mid].result() for mid in sorted(runs)]
        assert vectors[0].outcomes == {"t1": "pass", "t2": "fail"}
        assert vectors[1].outcomes == {"t1": "pass", "t2": "pass"}
        assert vectors[2].outcomes == {"t1": "fail", "t2": "fail"}


CHECKER = f"{sys.executable} -c \"import sys; sys.exit('x' in open(sys.argv[1]).read())\" {{source}}"


def run_once(directory, source="alpha", command=RUNNER,
             expected=("t1", "t2"), program_id="m1"):
    with run_queue(directory, workers=2) as queue:
        return queue.suite(source, command, program_id=program_id,
                           expected_tests=list(expected)).result()


class TestRunQueueCache:
    def test_rerun_reads_the_cache_and_starts_no_process(self, tmp_path,
                                                         process_count):
        first = run_once(tmp_path)
        with run_queue(tmp_path, workers=2) as queue:
            compiles = [queue.compile(text, CHECKER, timeout=30.0) for text in "ax"]
            assert [run.result() for run in compiles] == [True, False]
        assert len(process_count) == 3
        second = run_once(tmp_path, program_id="m7")
        with run_queue(tmp_path, workers=2) as queue:
            compiles = [queue.compile(text, CHECKER, timeout=30.0) for text in "ax"]
            assert [run.result() for run in compiles] == [True, False]
        assert len(process_count) == 3
        assert second.outcomes == first.outcomes and not second.flags

    def test_identical_submissions_share_one_process(self, tmp_path, process_count):
        with run_queue(tmp_path, workers=4) as queue:
            runs = [queue.suite("alpha", RUNNER, program_id=f"m{i}",
                                expected_tests=["t1", "t2"]) for i in range(4)]
            vectors = [run.result() for run in runs]
        assert len(process_count) == 1
        assert all(run is runs[0] for run in runs)
        assert vectors[0].outcomes == {"t1": "pass", "t2": "fail"}

    # The ids are kept from when the source suffix was a key part (change2).
    @pytest.mark.parametrize("change", [
        pytest.param({"source": "alpha beta"}, id="change0"),
        pytest.param({"command": RUNNER.replace("print('t2'", "print( 't2'")},
                     id="change1"),
        pytest.param({"expected": ("t1", "t2", "t3")}, id="change3"),
    ])
    def test_any_key_part_changed_is_a_miss(self, tmp_path, process_count, change):
        run_once(tmp_path)
        run_once(tmp_path)
        assert len(process_count) == 1
        changed = run_once(tmp_path, **change)
        assert len(process_count) == 2
        if not changed.flags:  # a vector with a missing test is never stored
            run_once(tmp_path, **change)
            assert len(process_count) == 2

    def test_flagged_vector_is_not_cached(self, tmp_path, process_count):
        vector = run_once(tmp_path, expected=("t1", "t2", "t3"))
        assert vector.flags == {"t3": "missing"}
        run_once(tmp_path, expected=("t1", "t2", "t3"))
        assert len(process_count) == 2
        assert list(tmp_path.iterdir()) == []

    def test_timed_out_compile_is_not_cached(self, tmp_path, process_count):
        slow = f'{sys.executable} -c "import time; time.sleep(5)" {{source}}'
        for _ in range(2):
            with run_queue(tmp_path, workers=1) as queue:
                assert queue.compile("x", slow, timeout=0.3).result() is False
        assert len(process_count) == 2
        assert list(tmp_path.iterdir()) == []

    def test_errors_propagate_and_are_not_cached(self, tmp_path, process_count):
        crash = f'{sys.executable} -c "import sys; sys.exit(3)" {{source}}'
        for _ in range(2):
            with run_queue(tmp_path, workers=1) as queue:
                with pytest.raises(RunnerError, match="no test outcomes for m1"):
                    queue.suite("x", crash, program_id="m1").result()
                with pytest.raises(ValidityError, match="not found"):
                    queue.compile("x", "no_such_compiler_zz {source}",
                                  timeout=30.0).result()
        assert len(process_count) == 4
        assert list(tmp_path.iterdir()) == []

    def test_a_store_that_fails_part_way_leaves_no_temp_file(self, tmp_path,
                                                             monkeypatch):
        # A test id that UTF-8 cannot encode makes the write itself fail.
        monkeypatch.setattr("mutkit.execution.run_suite", lambda *args, **kwargs:
                            vector(**{"t\udcff": "pass"}))
        with run_queue(tmp_path, workers=1) as queue:
            with pytest.raises(UnicodeEncodeError):
                queue.suite("x", "run {source}", program_id="m1").result()
        assert list(tmp_path.iterdir()) == []

    def test_leaving_the_queue_cancels_every_caller_of_a_queued_run(
            self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocking_suite(*args, **kwargs):
            started.set()
            release.wait(30)
            return vector(t1="pass")

        monkeypatch.setattr("mutkit.execution.run_suite", blocking_suite)
        with run_queue(tmp_path, workers=1) as queue:
            running = queue.suite("a", "run {source}", program_id="m1")
            assert started.wait(30)
            queued = [queue.suite("b", "run {source}", program_id=f"m{i}")
                      for i in (2, 3)]
            # Cancelling the shared run on exit lets the running one finish.
            queued[-1].add_done_callback(lambda _: release.set())
        assert [run.cancelled() for run in queued] == [True, True]
        assert running.result().outcomes == {"t1": "pass"}

    def test_many_workers_share_runs_under_fast_thread_switching(
            self, tmp_path, process_count):
        sources = ["alpha", "beta", "alpha beta", "gamma"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with run_queue(tmp_path, workers=8) as queue:
                runs = [(sources[i % 4], queue.suite(
                    sources[i % 4], RUNNER, program_id=f"m{i:02d}",
                    expected_tests=["t1", "t2"])) for i in range(40)]
                vectors = [(source, run.result(timeout=60)) for source, run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert len(process_count) == len(sources)
        assert len({run for _, run in runs}) == len(sources)
        for source, vector in vectors:
            assert vector.outcomes == {
                "t1": "pass" if "alpha" in source else "fail",
                "t2": "pass" if "beta" in source else "fail"}
        assert len(list(tmp_path.iterdir())) == len(sources)

    @pytest.mark.parametrize("garbage", [
        "", "t1 PASS\n", "t1 PASS\nt2 FA", "t2 FAIL\nt1 PASS\n",
        "t1 PASS\nt1 PASS\n", "t1 PASS\nt2 FAIL\nnoise\n", "\udcff"])
    def test_corrupt_file_is_rerun_and_overwritten(self, tmp_path, process_count,
                                                   garbage):
        run_once(tmp_path)
        (stored,) = tmp_path.iterdir()
        intact = stored.read_bytes()
        stored.write_text(garbage, encoding="utf-8", errors="surrogateescape")
        vector = run_once(tmp_path)
        assert vector.outcomes == {"t1": "pass", "t2": "fail"}
        assert len(process_count) == 2
        assert [p.name for p in tmp_path.iterdir()] == [stored.name]
        assert stored.read_bytes() == intact

    @pytest.mark.parametrize("garbage", ["", "ok", "OK\n", "fail\nok\n"])
    def test_corrupt_compile_file_is_rerun(self, tmp_path, process_count, garbage):
        for _ in range(2):
            with run_queue(tmp_path, workers=1) as queue:
                assert queue.compile("a", CHECKER, timeout=30.0).result() is True
            (stored,) = tmp_path.iterdir()
            assert stored.read_text() == "ok\n"
            stored.write_text(garbage)
        assert len(process_count) == 2


class TestRunKeys:
    """Run-cache file names are pinned, so entries already stored under
    ``runs/`` keep being found."""

    COMPILE_KEY = "8030a990855ed257d18728cb857292f889ed6a8a86cca92a2a76643aae8501dc"
    SUITE_KEY = "a530b9b0b0a462a5b68ae3594e0fa10d4d2867dcad7b2d1b37edeb3bb5813eb2"

    def test_compile_and_suite_keys_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.setattr("mutkit.execution.check_compile",
                            lambda *args, **kwargs: CompileResult(ok=True))
        monkeypatch.setattr("mutkit.execution.run_suite", lambda *args, **kwargs:
                            vector(t1="pass", t2="fail"))
        with run_queue(tmp_path / "compile", workers=1) as queue:
            assert queue.compile("class A {}", "javac {source}", timeout=30.0).result()
        with run_queue(tmp_path / "suite", workers=1) as queue:
            queue.suite("class A {}", "run-tests {source}", program_id="m1",
                        expected_tests=["t2", "t1"]).result()
        assert [p.name for p in (tmp_path / "compile").iterdir()] == [self.COMPILE_KEY]
        assert [p.name for p in (tmp_path / "suite").iterdir()] == [self.SUITE_KEY]


class TestOutcomesPersistence:
    def test_round_trip(self, tmp_path):
        original = vector(t2="fail", t1="pass")
        path = str(tmp_path / "orig.outcomes")
        save_outcomes(original, path)
        loaded = load_outcomes(path)
        assert loaded.outcomes == original.outcomes

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.outcomes"
        path.write_text("nothing here\n")
        with pytest.raises(RunnerError, match="no status lines"):
            load_outcomes(str(path))
