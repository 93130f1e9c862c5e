"""Tests for the evaluate stage, and the offline fixtures that the tests
of the other stages share.

The end-to-end cases run fully offline: a scripted mock backend answers
the prompts and a toy runner (tests/toyrunner.py) interprets the Java-ish
sources so mutants genuinely pass or fail the emulated suites.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mutkit.config import PipelineConfig, PipelineError, TargetSpec
from mutkit.generate import GenerateOutcome, make_backend, run_generate
from mutkit.llm import MockBackend
from mutkit.pipeline import run_evaluate

RUNNER = Path(__file__).parent / "toyrunner.py"
TEST_COMMAND = f"{sys.executable} {RUNNER} {{source}}"
COMPILE_COMMAND = f"{sys.executable} {RUNNER} --check {{source}}"

CLAMP_FIXED = """public static int clamp(int value) {
    int limit = 10;
    if (value > limit) {
        return limit;
    }
    return value;
}"""

SUM_FIXED = """public static int sumTo(int n) {
    int total = 0;
    for (int i = 1; i <= n; i++) {
        total += i;
    }
    return total;
}"""

SUM_BUGGY = """public static int sumTo(int n) {
    int total = 1;
    for (int i = 1; i <= n; i++) {
        total += i;
    }
    return total;
}"""

# The buggy sumTo again, in lines the mutation table has no entry for.
SUM_BUGGY_UNMUTATED = """public static int sumTo(int n) {
    int sum = 1;
    for (int k = 1; k <= n; k++) {
        sum += k;
    }
    return sum;
}"""

MUTATION_TABLE = {
    "int limit = 10;": ["int limit = 11;", "int limit = 11;", "int limit = @@;"],
    "if (value > limit) {": ["if (value >= limit) {"],
    "return limit;": ["return value;"],
    "return value;": ["return limit;"],
    "int total = 0;": ["int total = 1;"],
    "int total = 1;": ["int total = 0;"],
    "for (int i = 1; i <= n; i++) {": ["for (int i = 1; i < n; i++) {"],
    "total += i;": ["total += 2;"],
    "return total;": ["return 0;"],
}


def requested_chunk(prompt: str) -> str:
    marker = "Only mutate these lines: "
    start = prompt.index(marker) + len(marker)
    return prompt[start:prompt.index("\n\n[Few-Shot Examples]")]


def craft_response(prompt: str) -> str:
    """Reply to one prompt the way the e2e fixtures expect.

    Proposes the table's mutations for every line of the requested chunk,
    always appends one schema-violating object, and, for the chunk holding
    the clamp limit, one pair whose precode lives outside the chunk.
    """
    chunk_text = requested_chunk(prompt)
    objects = []
    for line in chunk_text.split("\n"):
        for aftercode in MUTATION_TABLE.get(line.strip(), ()):
            objects.append({"precode": line.strip(), "aftercode": aftercode})
    objects.append({"precode": 42})
    if "int limit = 10;" in chunk_text:
        objects.append({"precode": "return value;", "aftercode": "return 0;"})
    return "<json>" + json.dumps(objects) + "</json>"


def write_corpus(path: Path, pairs: int = 20) -> None:
    projects = ("Lang", "Math", "Chart", "Time")
    records = []
    for i in range(pairs):
        fixed = (f"public static int scale{i}(int x) {{\n"
                 f"    int factor = {i + 2};\n"
                 f"    return x * factor;\n"
                 f"}}")
        buggy = fixed.replace(f"int factor = {i + 2};", f"int factor = {i + 3};")
        records.append({
            "id": f"pair-{i:03d}",
            "project": projects[i % len(projects)],
            "pre_fix_code": buggy,
            "post_fix_code": fixed,
        })
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def build_index_file(corpus_path: Path, index_path: Path,
                     dimension: int = 64) -> None:
    from mutkit.corpus import ingest_corpus
    from mutkit.embedder import LexicalEmbedder, build_index

    corpus = ingest_corpus(str(corpus_path))
    index = build_index(corpus.pairs, backend=LexicalEmbedder(dimension=dimension))
    index.save(str(index_path))


def scripted_generate(config: PipelineConfig,
                      targets: list[TargetSpec],
                      tmp_path: Path, respond=craft_response) -> GenerateOutcome:
    """Author the mock script in record mode (replies from ``respond``),
    then run for real."""
    record_path = tmp_path / "record.jsonl"
    recorder = MockBackend({}, record_path=str(record_path))
    first = run_generate(config, targets, backend=recorder)
    assert first.succeeded == 0
    script_path = tmp_path / "script.jsonl"
    with script_path.open("w", encoding="utf-8") as handle:
        for line in record_path.read_text(encoding="utf-8").splitlines():
            item = json.loads(line)
            handle.write(json.dumps({
                "prompt_digest": item["prompt_digest"],
                "response_text": respond(item["prompt"]),
                "prompt_tokens": 11,
                "completion_tokens": 7,
            }) + "\n")
    return run_generate(config, targets, backend=script_backend(script_path))


def script_backend(path: Path) -> MockBackend:
    """The mock backend that make_backend builds from the script at path."""
    return make_backend(PipelineConfig(backend={"mode": "mock", "script": str(path)}))


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in read_tree(root).items()}


def section_warnings(outcome, prefix: str) -> list[str]:
    """The report's warnings of the section whose warnings start with prefix."""
    return [warning for warning in outcome.sections["warnings"]
            if warning.startswith(prefix)]


@pytest.fixture
def fixed_run(tmp_path):
    """Generate plus evaluate for the two fixed-mode bugs."""
    corpus_path = tmp_path / "corpus.jsonl"
    index_path = tmp_path / "corpus.index"
    write_corpus(corpus_path)
    build_index_file(corpus_path, index_path)
    config = PipelineConfig(corpus=str(corpus_path), index=str(index_path),
                            dimension=64, output_dir=str(tmp_path / "out"),
                            test_command=TEST_COMMAND,
                            compile_command=COMPILE_COMMAND)
    targets = [
        TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED, project="Alpha",
                   bug_revealing_tests=("t_above",)),
        TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                   buggy_method=SUM_BUGGY),
    ]
    scripted_generate(config, targets, tmp_path)
    outcome = run_evaluate(config, targets)
    return config, targets, outcome


class TestEvaluateFixedMode:
    # The report tree of the criterion-8 fixture; a refactor of the
    # analysis modules must not change a byte of it.
    GOLDEN_REPORT = {
        "effectiveness.json":
            "270b0ad933aace648d6a4db4b2634ee6cbc554bb0f37fc67140e570cf4838ef1",
        "effectiveness.txt":
            "1a2a900c7ad8b2179436dff34448ef9a3778eb7039cc5cf1cf87d3042d0db447",
        "report.json":
            "bad44b88bdb8ef8a6a820de4465de3397f63668eba41b7a14abc2a9f94c5501c",
        "tcp.json":
            "fb8c54026df6009275f312810d983119e94d1ab580d1cd5d3cc735a84b580f0d",
        "tcp.txt":
            "694787c7aecee80258eee0e4ccad82383c70c424ad176852f199a88ecc08dc16",
        "validity.json":
            "522172598c2bab681c40701d0982ca33b4cb57ecf7f75266a9e350d9daab1d38",
        "validity.txt":
            "928ecc9496eb2065b77b394b2870e30394880546eb65d36cf9d8e1113c2955ce",
    }

    def test_report_tree_matches_the_golden_digests(self, fixed_run):
        _, _, outcome = fixed_run
        assert tree_digests(outcome.out_dir) == self.GOLDEN_REPORT

    def test_validity_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["validity"]
        clamp = section["per_bug"]["Clamp-1"]
        assert clamp == {
            "project": "Alpha", "expected": 7, "generated": 7,
            "duplicates": 1, "compilable": 5, "useful": 4,
            "generation_rate": 1.0, "nonduplicate_rate": 6 / 7,
            "compilable_rate": 5 / 7,
        }
        sum_bug = section["per_bug"]["Sum-1"]
        assert sum_bug["generated"] == 4
        assert sum_bug["useful"] == 4
        overall = section["overall"]
        assert overall["expected"] == 14
        assert overall["generated"] == 11
        assert overall["generation_rate"] == 11 / 14

    def test_effectiveness_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["metrics"]
        assert section["per_bug_mutation_score"]["Clamp-1"] == 0.75
        assert section["per_bug_mutation_score"]["Sum-1"] == 1.0
        assert section["mutation_score"]["micro"] == 7 / 8
        clamp_ochiai = (1 / 2 ** 0.5 + 0 + 1 / 2 ** 0.5 + 0) / 4
        sum_ochiai = (1.0 + 3 * (2 / 8 ** 0.5)) / 4
        assert section["bug_ochiai"]["Clamp-1"] == pytest.approx(clamp_ochiai)
        assert section["bug_ochiai"]["Sum-1"] == pytest.approx(sum_ochiai)
        assert section["aoc"] == pytest.approx((clamp_ochiai + sum_ochiai) / 2)
        assert section["high_similarity_count"] == 0
        assert section["real_bug_detection"]["macro"] == 1.0
        assert section["coupling_rate"]["macro"] == pytest.approx(0.75)
        assert set(section["coupled_mutants"]["Sum-1"]) == {
            "Sum-1-c01-m000", "Sum-1-c01-m001", "Sum-1-c01-m002",
            "Sum-1-c02-m000"}

    def test_tcp_section(self, fixed_run):
        _, _, outcome = fixed_run
        section = outcome.sections["tcp"]
        clamp = section["per_bug"]["Clamp-1"]["GRK"]
        assert clamp["order"] == ["t_above", "t_small", "t_big", "t_at_limit"]
        assert clamp["step_kills"] == [2, 1, 2, 0]
        assert clamp["apfd"] == pytest.approx(0.875)
        assert section["mean_apfd"]["GRK"] == pytest.approx(0.875)
        assert set(section["mean_apfd"]) == {"GRK", "GRD", "HYB(0.5)"}

    def test_unrevealed_bug_warns_once_not_per_strategy(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                              bug_revealing_tests=("t_gone",))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        expected = ["tcp: bug Clamp-1 has no revealing test in the matrix; "
                    "APFD skipped"]
        assert section_warnings(outcome, "tcp: ") == expected
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert report["warnings"] == outcome.sections["warnings"]
        per_strategy = outcome.sections["tcp"]["per_bug"]["Clamp-1"]
        assert len(per_strategy) == 3
        assert all("apfd" not in record for record in per_strategy.values())

    def test_a_matrix_without_tests_is_left_out_of_tcp(self, fixed_run):
        # A matrix given without a test_command may name no tests, as one
        # for a bug with no useful mutant can.
        config, targets, _ = fixed_run
        clamp = [target for target in targets if target.bug_id == "Clamp-1"]
        (Path(config.output_dir) / "matrices" / "Clamp-1.matrix").write_text(
            "MUTANTS\nTESTS\n", encoding="utf-8")
        failing = f'{sys.executable} -c "raise SystemExit(1)" {{source}}'
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  compile_command=failing)
        outcome = run_evaluate(external, clamp)
        assert section_warnings(outcome, "tcp: ") == [
            "tcp: bug Clamp-1 has no kill matrix tests"]
        assert outcome.sections["tcp"]["per_bug"] == {}

    def test_mbfl_skipped_in_fixed_mode(self, fixed_run):
        _, _, outcome = fixed_run
        assert "mbfl" not in outcome.sections or outcome.sections.get(
            "mbfl") is None
        assert any("mbfl" in w for w in outcome.sections["warnings"])

    def test_report_files_written(self, fixed_run):
        config, _, outcome = fixed_run
        names = {p.name for p in outcome.out_dir.iterdir()}
        assert {"validity.json", "validity.txt", "effectiveness.json",
                "effectiveness.txt", "tcp.json", "tcp.txt",
                "report.json"} <= names
        matrices = Path(config.output_dir) / "matrices"
        assert (matrices / "Clamp-1.matrix").exists()
        assert (matrices / "Clamp-1.original.txt").exists()
        text = (outcome.out_dir / "validity.txt").read_text(encoding="utf-8")
        assert "100.00%" in text
        assert "Overall" in text

    def test_reevaluate_loads_matrices_and_is_byte_identical(self, fixed_run):
        config, targets, outcome = fixed_run
        before = read_tree(outcome.out_dir)
        second = run_evaluate(config, targets)
        assert read_tree(second.out_dir) == before

    @pytest.mark.parametrize("through", ["validity", "tcp", "", None])
    def test_a_depth_other_than_the_three_commands_raises(self, tmp_path, through):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        with pytest.raises(PipelineError, match=f"got {through!r}"):
            run_evaluate(config, targets, through=through)
        assert not (tmp_path / "out").exists()


class TestEvaluateRunCache:
    def test_warm_evaluate_starts_no_process(self, fixed_run, process_count):
        config, targets, _ = fixed_run
        before = read_tree(Path(config.output_dir))
        run_evaluate(config, targets)
        assert process_count == []
        assert read_tree(Path(config.output_dir)) == before

    def test_warm_evaluate_without_matrices_starts_no_process(self, fixed_run,
                                                              process_count):
        config, targets, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        before = read_tree(Path(config.output_dir))
        for path in matrices.glob("*.*"):
            path.unlink()
        run_evaluate(config, targets)
        assert process_count == []
        assert read_tree(Path(config.output_dir)) == before

    def test_identical_sources_in_two_bugs_start_one_process(self, tmp_path,
                                                             process_count):
        # The shared runs' results still name each bug's own mutants and
        # original: the two-bug files equal the one-bug files, renamed.
        counts = []
        for bug_ids in (("Clamp-1",), ("Clamp-1", "Clamp-2")):
            base = tmp_path / str(len(bug_ids))
            base.mkdir()
            config = PipelineConfig(output_dir=str(base / "out"), retrieval=False,
                                    test_command=TEST_COMMAND,
                                    compile_command=COMPILE_COMMAND)
            targets = [TargetSpec(bug_id=bug_id, method=CLAMP_FIXED,
                                  bug_revealing_tests=("t_above",))
                       for bug_id in bug_ids]
            scripted_generate(config, targets, base)
            process_count.clear()
            outcome = run_evaluate(config, targets)
            counts.append(len(process_count))
        # per bug: 6 mutant sources, 5 of them distinct; 1 original; 4 useful
        assert counts == [5 + 1 + 4] * 2
        scores = outcome.sections["metrics"]["per_bug_mutation_score"]
        assert scores == {"Clamp-1": 0.75, "Clamp-2": 0.75}
        alone = tmp_path / "1" / "out" / "matrices"
        shared = tmp_path / "2" / "out" / "matrices"
        for bug_id in ("Clamp-1", "Clamp-2"):
            matrix = (shared / f"{bug_id}.matrix").read_text(encoding="utf-8")
            assert matrix == (alone / "Clamp-1.matrix").read_text(
                encoding="utf-8").replace("Clamp-1-", f"{bug_id}-")
            mutant_ids = matrix.split("\n")[0].split()[1:]
            assert len(mutant_ids) == 4
            assert all(mid.startswith(f"{bug_id}-") for mid in mutant_ids)
            assert (shared / f"{bug_id}.original.txt").read_bytes() == (
                alone / "Clamp-1.original.txt").read_bytes()

    def test_new_sources_under_old_mutant_ids_rebuild_the_matrix(self, fixed_run):
        config, targets, _ = fixed_run
        out = Path(config.output_dir)
        matrix_path = out / "matrices" / "Clamp-1.matrix"
        lines = matrix_path.read_text().splitlines()
        mutant_ids = lines[0].split()[1:]
        killed = next(mid for mid, row in zip(mutant_ids, lines[2:]) if "1" in row)
        # A second generate reuses the id with another source: here the
        # unchanged method, which compiles and kills no test.
        (out / "mutants" / f"{killed}.java").write_text(CLAMP_FIXED)
        outcome = run_evaluate(config, targets)
        rows = dict(zip(mutant_ids, matrix_path.read_text().splitlines()[2:]))
        assert set(rows[killed]) == {"0"}
        assert outcome.sections["metrics"]["per_bug_mutation_score"]["Clamp-1"] == 0.5

    def test_matrices_load_as_given_without_a_test_command(self, fixed_run,
                                                           process_count):
        config, targets, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        before = read_tree(matrices)
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  compile_command=COMPILE_COMMAND)
        outcome = run_evaluate(external, targets, through="execute")
        assert process_count == []
        assert read_tree(matrices) == before
        assert "validity" in outcome.sections

    def test_evaluate_with_a_test_command_writes_no_key_file(self, fixed_run):
        config, _, _ = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        assert sorted(path.name for path in matrices.glob("Clamp-1.*")) == [
            "Clamp-1.matrix", "Clamp-1.original.txt"]
        assert list(matrices.glob("*.key")) == []

    def test_without_runs_the_suites_rerun_and_rewrite_the_same_bytes(
            self, process_count, fixed_run):
        # process_count comes first, so it also counts fixed_run's cold evaluate.
        config, targets, _ = fixed_run
        cold = len(process_count)
        out = Path(config.output_dir)
        before = read_tree(out)
        for path in (out / "matrices" / "runs").iterdir():
            path.unlink()
        process_count.clear()
        run_evaluate(config, targets)
        assert cold > 0
        assert len(process_count) == cold
        assert read_tree(out) == before

    def test_edited_matrices_are_rebuilt_with_a_test_command(self, fixed_run):
        config, targets, outcome = fixed_run
        matrices = Path(config.output_dir) / "matrices"
        report_before = read_tree(outcome.out_dir)
        saved = {}
        for name in ("Clamp-1.matrix", "Clamp-1.original.txt"):
            saved[name] = (matrices / name).read_bytes()
        lines = saved["Clamp-1.matrix"].decode().splitlines()
        (matrices / "Clamp-1.matrix").write_text("\n".join(
            lines[:2] + ["1" * len(row) for row in lines[2:]]) + "\n")
        (matrices / "Clamp-1.original.txt").write_text(
            saved["Clamp-1.original.txt"].decode().replace("PASS", "FAIL"))
        second = run_evaluate(config, targets)
        assert read_tree(second.out_dir) == report_before
        for name, data in saved.items():
            assert (matrices / name).read_bytes() == data

    def test_worker_count_does_not_change_any_byte(self, tmp_path):
        trees = []
        for workers in (1, 4):
            base = tmp_path / f"w{workers}"
            base.mkdir()
            config = PipelineConfig(output_dir=str(base / "out"), retrieval=False,
                                    test_command=TEST_COMMAND,
                                    compile_command=COMPILE_COMMAND,
                                    workers=workers)
            targets = [
                TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                           bug_revealing_tests=("t_above",)),
                TargetSpec(bug_id="Sum-1", method=SUM_FIXED, buggy_method=SUM_BUGGY),
                TargetSpec(bug_id="Sum-3", method=SUM_FIXED, buggy_method=SUM_BUGGY),
            ]
            scripted_generate(config, targets, base)
            run_evaluate(config, targets)
            trees.append(read_tree(base / "out"))
        assert trees[0] == trees[1]
        assert any(name.startswith("matrices/runs/") for name in trees[0])


class _RecordedRun:
    """A run's future that logs when the evaluation waits for it."""

    def __init__(self, future, label, events):
        self._future, self._label, self._events = future, label, events

    def result(self):
        self._events.append(("result", self._label))
        return self._future.result()


class _RecordingQueue:
    """The real run queue, logging each submission, whether validity.json
    exists at that moment, and each wait."""

    def __init__(self, queue, validity_path: Path, events: list):
        self._queue, self._validity_path, self._events = queue, validity_path, events

    def __enter__(self):
        self._queue.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._queue.__exit__(*exc_info)

    def compile(self, source, command, *, timeout):
        label = ("compile", source)
        self._events.append(("submit", label, self._validity_path.exists()))
        return _RecordedRun(self._queue.compile(source, command, timeout=timeout),
                            label, self._events)

    def suite(self, source, command, *, program_id, **kwargs):
        label = ("suite", program_id)
        self._events.append(("submit", label, self._validity_path.exists()))
        return _RecordedRun(self._queue.suite(source, command, program_id=program_id,
                                              **kwargs), label, self._events)


class TestEvaluateRunOrder:
    """Evaluate submits to its run queue in two waves across all bugs:
    compiles and original runs, then mutant suites and buggy runs.  A bug's
    suites go in once its own compiles are done, not every bug's."""

    @pytest.fixture
    def recorded(self, tmp_path, monkeypatch):
        from mutkit import execution

        config = PipelineConfig(output_dir=str(tmp_path / "out"), retrieval=False,
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND, workers=2)
        targets = [
            TargetSpec(bug_id="Sum-2", method=SUM_FIXED, bug_revealing_tests=("t_five",)),
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                       bug_revealing_tests=("t_above",)),
            TargetSpec(bug_id="Sum-1", method=SUM_FIXED, buggy_method=SUM_BUGGY),
        ]
        scripted_generate(config, targets, tmp_path)
        out = Path(config.output_dir)
        events: list = []
        real_queue = execution.run_queue
        monkeypatch.setattr(execution, "run_queue", lambda directory, workers: (
            _RecordingQueue(real_queue(directory, workers),
                            out / "report" / "validity.json", events)))
        run_evaluate(config, targets)
        return out, events

    def test_the_queue_receives_two_waves_in_sorted_bug_order(self, recorded):
        out, events = recorded
        bug_ids = ["Clamp-1", "Sum-1", "Sum-2"]
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in (out / "mutants").glob("*.java")}
        first_wave = [label for bug_id in bug_ids
                      for label in [("compile", sources[mid]) for mid in sorted(sources)
                                    if mid.startswith(f"{bug_id}-")]
                      + [("suite", bug_id)]]
        rows = {bug_id: (out / "matrices" / f"{bug_id}.matrix").read_text(
            encoding="utf-8").splitlines()[0].split()[1:] for bug_id in bug_ids}
        second_wave = [("suite", program_id) for bug_id in bug_ids
                       for program_id in rows[bug_id]
                       + (["Sum-1-buggy"] if bug_id == "Sum-1" else [])]
        assert all(rows.values())

        submits = [index for index, event in enumerate(events) if event[0] == "submit"]
        waits = [index for index, event in enumerate(events) if event[0] == "result"]
        assert [events[index][1] for index in submits] == first_wave + second_wave
        assert submits[len(first_wave) - 1] < waits[0]
        # validity.json is written once the queue is closed.
        assert not any(events[index][2] for index in submits)
        # The first bug's suites do not wait for the last bug's compiles.
        compile_waits = [index for index in waits if events[index][1][0] == "compile"]
        assert submits[len(first_wave)] < compile_waits[-1]
        second_waits = [index for index in waits if events[index][1] in second_wave]
        assert second_waits and min(second_waits) > submits[-1]


class TestEvaluateBuggyMode:
    # The report tree of the buggy fixture, mbfl section included.
    GOLDEN_REPORT = {
        "effectiveness.json":
            "169b92af0470195386847819de7b86dbf309f4d2963edc700ff947dd139ba200",
        "effectiveness.txt":
            "5b05af20f2e0a6d0acaf30b1715b86160986642e25374b7495b09583292368e7",
        "mbfl.json":
            "3906fe4277167df7555cef9de44a79f343ec783a24cd601d4fbc769c4c411d6b",
        "mbfl.txt":
            "cff2f15c6a27245022ebabd156883013e466ca2629405ad077cd6496c7723548",
        "report.json":
            "bb9785f1f487542509ee6b157d468c83488ced95e7b078d9eef07eed456f6e6d",
        "tcp.json":
            "f64b1dcfa813e46d92ba847f03bc89436c72603874b508426c8f9a73c191b4c9",
        "tcp.txt":
            "169c36484e3bcbdf87e3bf257e0ec9b2af97ca6d746942ba3a9e6c5853c17ca4",
        "validity.json":
            "493b6a6bd16778ae6bd45654ef337ce57a7f7c6ddf3977e5e40ff80ca56587af",
        "validity.txt":
            "735ff36dc6563610b47bf12e3096efe0340c301e6c08b49069494afaa4f1630c",
    }

    @pytest.fixture
    def buggy_run(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Sum-2", method=SUM_BUGGY,
                              project="Alpha", faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        return config, targets, outcome

    def test_mbfl_localizes_the_seeded_fault(self, buggy_run):
        _, _, outcome = buggy_run
        section = outcome.sections["mbfl"]
        per_bug = section["per_bug"]["Sum-2"]
        assert per_bug["muse"]["scores"]["2"] == 4.0
        assert per_bug["muse"]["scores"]["6"] == 2.0
        assert per_bug["muse"]["expected_ranks"]["2"] == 1.0
        assert per_bug["muse"]["faulty_ranks"] == [1.0]
        assert per_bug["metallaxis"]["scores"]["2"] == 1.0
        assert per_bug["metallaxis"]["scores"]["3"] == pytest.approx(0.5)
        for method in ("muse", "metallaxis"):
            metrics = section["metrics"][method]
            assert metrics["top_k"] == {"1": 1, "3": 1, "5": 1}
            assert metrics["mar"] == 1.0
            assert metrics["mfr"] == 1.0
            assert metrics["first_rank_mean"] == metrics["mfr"]
            assert metrics["evaluated_bugs"] == 1

    def test_report_tree_matches_the_golden_digests(self, buggy_run):
        _, _, outcome = buggy_run
        assert tree_digests(outcome.out_dir) == self.GOLDEN_REPORT

    def test_buggy_mode_revealing_tests_are_original_failures(self, buggy_run):
        _, _, outcome = buggy_run
        metrics = outcome.sections["metrics"]
        expected = (1.0 + 0.5 + 0.0 + 2 / 8 ** 0.5) / 4
        assert metrics["bug_ochiai"]["Sum-2"] == pytest.approx(expected)
        assert metrics["per_bug_mutation_score"]["Sum-2"] == 0.75

    def test_outcomes_naming_other_tests_become_a_warning(self, buggy_run):
        config, targets, _ = buggy_run
        original = Path(config.output_dir) / "matrices" / "Sum-2.original.txt"
        lines = original.read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = lines[0].split()[0]
        original.write_text("".join(lines[1:]), encoding="utf-8")
        # With a test_command the original comes from its run, so only
        # external matrices can disagree with their outcome file.
        external = PipelineConfig(output_dir=config.output_dir, retrieval=False,
                                  mode="buggy", compile_command=COMPILE_COMMAND)
        outcome = run_evaluate(external, targets)
        assert outcome.sections["mbfl"]["per_bug"] == {}
        assert section_warnings(outcome, "mbfl: ") == [
            f"mbfl: bug Sum-2: the kill matrix and the original outcomes "
            f"name different tests: ['{dropped}']"]

    @pytest.mark.parametrize("method, faulty_lines, reason", [
        (CLAMP_FIXED, (2,), "lacks a failing original run"),
        (SUM_BUGGY, (), "has no faulty_lines ground truth"),
        (SUM_BUGGY_UNMUTATED, (2,), "has no useful mutants"),
    ])
    def test_mbfl_leaves_out_a_bug_it_cannot_localize(self, tmp_path, method,
                                                      faulty_lines, reason):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Sum-2", method=SUM_BUGGY, faulty_lines=(2,)),
                   TargetSpec(bug_id="Weak-1", method=method,
                              faulty_lines=faulty_lines)]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert section_warnings(outcome, "mbfl: ") == [f"mbfl: bug Weak-1 {reason}"]
        assert list(outcome.sections["mbfl"]["per_bug"]) == ["Sum-2"]

    def test_a_bug_without_revealing_tests_is_left_out_of_effectiveness(
            self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        # The fixed clamp fails no test, so its original run reveals none.
        targets = [TargetSpec(bug_id="Clamp-2", method=CLAMP_FIXED,
                              faulty_lines=(2,)),
                   TargetSpec(bug_id="Sum-2", method=SUM_BUGGY,
                              project="Alpha", faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert "metrics: bug Clamp-2 has no bug-revealing test" in \
            outcome.sections["warnings"]
        assert list(outcome.sections["metrics"]["bug_ochiai"]) == ["Sum-2"]
        digests = tree_digests(outcome.out_dir)
        assert digests["effectiveness.json"] == \
            self.GOLDEN_REPORT["effectiveness.json"]
        assert {"tcp.json", "mbfl.json", "report.json"} <= set(digests)

    def test_effectiveness_is_skipped_when_no_bug_reveals_itself(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-2", method=CLAMP_FIXED,
                              faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert section_warnings(outcome, "metrics: ") == [
            "metrics: bug Clamp-2 has no bug-revealing test",
            "metrics: skipped (no bug has a bug-revealing test)"]
        assert "metrics" not in outcome.sections
        assert not (outcome.out_dir / "effectiveness.json").exists()
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert report["warnings"] == outcome.sections["warnings"]

    def test_effectiveness_is_skipped_when_no_bug_has_a_useful_mutant(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, mode="buggy",
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        # The buggy sum reveals itself, but no reply mutates its lines.
        targets = [TargetSpec(bug_id="Sum-3", method=SUM_BUGGY_UNMUTATED,
                              faulty_lines=(2,))]
        scripted_generate(config, targets, tmp_path)
        outcome = run_evaluate(config, targets)
        assert "metrics: skipped (no bug has a useful mutant)" in \
            outcome.sections["warnings"]
        assert "mbfl: bug Sum-3 has no useful mutants" in outcome.sections["warnings"]
        assert "metrics" not in outcome.sections
        assert not (outcome.out_dir / "effectiveness.json").exists()
        report = json.loads((outcome.out_dir / "report.json").read_text())
        assert {"validity", "tcp", "mbfl"} <= set(report)
        assert report["warnings"] == outcome.sections["warnings"]

    def test_mbfl_report_files(self, buggy_run):
        _, _, outcome = buggy_run
        assert (outcome.out_dir / "mbfl.json").exists()
        text = (outcome.out_dir / "mbfl.txt").read_text(encoding="utf-8")
        assert "muse" in text and "metallaxis" in text
        payload = json.loads(
            (outcome.out_dir / "mbfl.json").read_text(encoding="utf-8"))
        assert payload["metrics"]["muse"]["top_k"]["1"] == 1


class TestEvaluateErrors:
    def test_missing_artifacts_rejected(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "missing"),
                                retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        with pytest.raises(PipelineError, match="run generate first"):
            run_evaluate(config, targets)

    def test_execution_requires_matrix_or_runner(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED,
                              bug_revealing_tests=("t_above",))]
        scripted_generate(config, targets, tmp_path)
        with pytest.raises(PipelineError, match="no test_command"):
            run_evaluate(config, targets)

    def test_fixed_mode_requires_ground_truth(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"),
                                retrieval=False, test_command=TEST_COMMAND)
        targets = [TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED)]
        scripted_generate(config, targets, tmp_path)
        with pytest.raises(PipelineError, match="bug-revealing"):
            run_evaluate(config, targets)
