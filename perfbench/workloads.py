"""The three workloads: seeded set-up, one timed iteration, output checks.

Every timed step calls a real mutkit entry point in this process: the
``mutkit`` CLI through ``mutkit.cli.main``, or ``mutkit.pipeline.run_generate``
where the model transport has to be injected.  Attributes are looked up on
the modules at call time, so the span recorder's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import threading
import time
from pathlib import Path

import checks
import gen


class Ops:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.reasons += [f"{label}: {reason}" for reason in failures]


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class Workload:
    """Shared base: ``setup`` writes inputs, ``iteration`` runs the timed steps."""

    name = ""
    steps: tuple[str, ...] = ()

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool = False):
        self.root = root
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.ops = Ops()
        self.previous_tree: dict[str, str] | None = None
        self.recorder = None

    def cli(self, label: str, argv: list[str]) -> str:
        """Run one mutkit command in-process; count a nonzero exit as failed."""
        from mutkit import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as error:  # a crash is a failed operation, not a benchmark crash
            code = f"{type(error).__name__}: {error}"
        self.ops.add(label, 1, [] if code == 0 else
                     [f"exit {code}: {err.getvalue().strip()[-300:]}"])
        return out.getvalue()

    def timed(self, times: dict, name: str, fn, *args):
        """Run one step, adding its wall time to ``times[name]``."""
        span = self.recorder.span(name) if self.recorder else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            result = fn(*args)
        times[name] = times.get(name, 0.0) + time.perf_counter() - start
        return result

    def fresh_dir(self, index: int) -> Path:
        directory = self.work / f"iter{index}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        return directory

    def finish(self, directory: Path, artifacts: Path) -> None:
        """Compare the artifact tree with the previous iteration's, then clean up."""
        tree = checks.tree_digest(artifacts)
        self.ops.add("byte-identical rerun", 1,
                     checks.compare_trees(self.name, self.previous_tree, tree))
        self.previous_tree = tree
        shutil.rmtree(directory, ignore_errors=True)

    def derived(self, medians: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {}


# ------------------------------------------------------------------ rag-gen

class RagGen(Workload):
    """rag build, then generate with retrieval and chunking over nested methods."""

    name = "rag-gen-4k"
    steps = ("index_build_s", "generate_s")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        pairs, prompts = (300, 12) if self.tiny else (4000, 150)
        records, self.expected_pairs, _ = gen.corpus_records(rng, pairs)
        _write_jsonl(inputs / "corpus.jsonl", records)
        rows, self.expected_prompts, self.expected_lines = gen.rag_targets(rng, prompts)
        self.targets = inputs / "targets.jsonl"
        _write_jsonl(self.targets, rows)
        self.target_count = len(rows)
        self.index = inputs / "corpus.index"
        record = inputs / "record.jsonl"
        config = self._config(inputs / "record-config.json", self.index,
                              inputs / "record-out", {"mode": "mock", "record": str(record)})
        from mutkit import cli

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["rag", "build", "--config", str(config)])
            cli.main(["generate", "--config", str(config), "--targets", str(self.targets)])
        script = {}
        for item in _read_jsonl(record):
            script[item["prompt_digest"]] = {
                "prompt_digest": item["prompt_digest"],
                "response_text": gen.rag_reply(item["prompt"]),
                "prompt_tokens": len(item["prompt"]) // 4,
                "completion_tokens": 64,
            }
        self.script = inputs / "script.jsonl"
        _write_jsonl(self.script, (script[key] for key in sorted(script)))

    def _config(self, path: Path, index: Path, output: Path, backend: dict) -> Path:
        path.write_text(json.dumps({
            "corpus": str(self.work / "inputs" / "corpus.jsonl"),
            "index": str(index),
            "output_dir": str(output),
            "dimension": 512,
            "workers": 2,
            "backend": backend,
        }), encoding="utf-8")
        return path

    def iteration(self, index: int) -> dict[str, float]:
        directory = self.fresh_dir(index)
        artifacts = directory / "artifacts"
        artifacts.mkdir()
        config = self._config(directory / "config.json", artifacts / "corpus.index",
                              artifacts / "out", {"mode": "mock", "script": str(self.script)})
        times: dict[str, float] = {}
        built = self.timed(times, "index_build_s", self.cli, "rag build",
                           ["rag", "build", "--config", str(config)])
        self.timed(times, "generate_s", self.cli, "generate",
                   ["generate", "--config", str(config), "--targets", str(self.targets)])
        self.check(artifacts, built)
        self.finish(directory, artifacts)
        return times

    def check(self, artifacts: Path, built: str) -> None:
        out = artifacts / "out"
        failures: list[str] = []
        if (artifacts / "corpus.index").read_bytes() != self.index.read_bytes():
            failures.append("index differs from the set-up build of the same corpus")
        try:
            entries = json.loads(built)["entries"]
        except (ValueError, KeyError):
            entries = None
        if entries != self.expected_pairs:
            failures.append(f"index has {entries} entries, expected {self.expected_pairs}")
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            prompts = _read_jsonl(out / "prompts.jsonl")
        except OSError as error:
            self.ops.add("generate output", 1, [str(error)])
            return
        totals = summary["totals"]
        errors = [row["error"] for row in prompts if row["error"]]
        self.ops.add("generate targets", self.target_count,
                     [f"{totals['failed']} targets failed"] * totals["failed"])
        self.ops.add("backend calls", len(prompts), errors)
        failures += checks.compare_counts("generate", totals, {
            "targets": self.target_count,
            "prompts": self.expected_prompts,
            "expected": self.expected_lines,
            "materialized": self.expected_lines,
            "pairs_parsed": self.expected_lines + self.expected_prompts,
            "rejected": self.expected_prompts,
        })
        written = len(list((out / "mutants").glob("*.java")))
        if written != self.expected_lines:
            failures.append(f"{written} mutant files, expected {self.expected_lines}")
        self.ops.add("rag-gen output check", 1, failures)

    def derived(self, medians):
        return {"prompts_per_s": (self.expected_prompts / medians["generate_s"], "1/s")}


# ------------------------------------------------------------ eval-toyrunner

class ScriptedModel:
    """In-process chat transport: fixed latency, seeded 429s on first attempts."""

    def __init__(self, seed: int, table: dict, latency: float = 0.05,
                 throttle_share: float = 0.2):
        self.seed = seed
        self.table = table
        self.latency = latency
        self.throttle_share = throttle_share
        self.attempts: dict[str, int] = {}
        self.lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        digest = hashlib.sha256(f"{self.seed}:{prompt}".encode()).hexdigest()
        with self.lock:
            attempt = self.attempts[digest] = self.attempts.get(digest, 0) + 1
        time.sleep(self.latency)
        if attempt == 1 and int(digest[:8], 16) < self.throttle_share * 16 ** 8:
            return 429, "rate limited"
        reply = gen.eval_reply(prompt, self.table)
        return 200, json.dumps({
            "choices": [{"message": {"content": reply}}],
            "usage": {"prompt_tokens": len(prompt) // 4,
                      "completion_tokens": len(reply) // 4},
        })


class EvalToy(Workload):
    """generate over HTTP, cold and warm evaluate through toyrunner, export-sft."""

    name = "eval-toyrunner"
    steps = ("generate_s", "evaluate_s", "reevaluate_s", "export_sft_s")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        rows, self.table = gen.eval_bugs(rng, 2 if self.tiny else 6)
        self.rows = rows
        self.targets = inputs / "targets.jsonl"
        _write_jsonl(self.targets, rows)
        self.oracle = checks.ToyOracle(self.root / "tests" / "toyrunner.py")

    def _config(self, directory: Path, output: Path) -> Path:
        runner = self.root / "tests" / "toyrunner.py"
        path = directory / "config.json"
        path.write_text(json.dumps({
            "output_dir": str(output),
            "retrieval": False,
            "workers": 2,
            "timeout": 30.0,
            "compile_command": f'"{sys.executable}" "{runner}" --check {{source}}',
            "test_command": f'"{sys.executable}" "{runner}" {{source}}',
        }), encoding="utf-8")
        return path

    def _generate(self, config_path: Path):
        from mutkit import llm, pipeline

        config = pipeline.load_config(config_path)
        backend = llm.HttpChatBackend(
            llm.BackendConfig(endpoint="inproc://scripted-model", model="scripted",
                              max_retries=3, backoff_base=0.05),
            transport=ScriptedModel(self.seed, self.table))
        return pipeline.run_generate(config, pipeline.load_targets(self.targets),
                                     backend=backend)

    def iteration(self, index: int) -> dict[str, float]:
        directory = self.fresh_dir(index)
        out = directory / "out"
        config = self._config(directory, out)
        common = ["--config", str(config), "--targets", str(self.targets)]
        times: dict[str, float] = {}
        try:
            outcome = self.timed(times, "generate_s", self._generate, config)
        except Exception as error:  # a crash is a failed operation; nothing to evaluate
            self.ops.add("generate", 1, [f"{type(error).__name__}: {error}"])
            return times
        self.prompt_count = len(outcome.prompts)
        self.ops.add("generate targets", len(self.rows),
                     [f"{outcome.failed} targets failed"] * outcome.failed)
        self.ops.add("backend calls", len(outcome.prompts),
                     [row["error"] for row in outcome.prompts if row["error"]])
        self.timed(times, "evaluate_s", self.cli, "report (cold)", ["report", *common])
        cold = checks.tree_digest(out / "report")
        self.timed(times, "reevaluate_s", self.cli, "report (warm)", ["report", *common])
        self.ops.add("warm report", 1, checks.compare_trees(
            "warm report", cold, checks.tree_digest(out / "report")))
        self.timed(times, "export_sft_s", self.cli, "export-sft",
                   ["export-sft", "--config", str(config), "--out", str(out / "sft.jsonl")])
        self.check(directory, out)
        self.finish(directory, out)
        return times

    def check(self, directory: Path, out: Path) -> None:
        self.useful = 0
        try:
            failures, coupled = checks.check_toy_evaluation(
                self.oracle, self.rows, out, directory / "oracle")
            validity = json.loads((out / "report" / "validity.json").read_text("utf-8"))
            self.useful = validity["overall"]["useful"]
            instances = len((out / "sft.jsonl").read_text("utf-8").splitlines())
        except (OSError, KeyError, ValueError) as error:
            failures, instances, coupled = [f"{type(error).__name__}: {error}"], 0, 0
        if instances != coupled:
            failures.append(f"export-sft wrote {instances} instances, {coupled} coupled")
        self.ops.add("eval-toyrunner output check", 1, failures)

    def derived(self, medians):
        return {"mutants_per_s": (self.useful / medians["evaluate_s"], "1/s"),
                "prompts_per_s": (self.prompt_count / medians["generate_s"], "1/s")}


# --------------------------------------------------------- analysis-matrices

class Analysis(Workload):
    """metrics, tcp per bug and mbfl over seeded structured matrices."""

    name = "analysis-matrices"
    steps = ("metrics_cmd_s", "tcp_cmd_s", "mbfl_cmd_s")
    SIZES = ((80, 40), (120, 60), (160, 90), (200, 120), (240, 150), (280, 180))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = self.work / "inputs"
        shutil.rmtree(self.inputs, ignore_errors=True)
        sizes = ((12, 6), (20, 9)) if self.tiny else self.SIZES
        self.truth = gen.write_matrix_inputs(self.inputs, list(sizes), rng)

    def iteration(self, index: int) -> dict[str, float]:
        directory = self.fresh_dir(index)
        artifacts = directory / "artifacts"
        artifacts.mkdir()
        inputs = self.inputs
        times: dict[str, float] = {}
        self.timed(times, "metrics_cmd_s", self.cli, "metrics", [
            "metrics", "--matrices", str(inputs / "matrices"),
            "--revealing", str(inputs / "revealing.json"),
            "--out", str(artifacts / "metrics.json")])
        for bug in sorted(self.truth):
            self.timed(times, "tcp_cmd_s", self.cli, f"tcp {bug}", [
                "tcp", "--matrix", str(inputs / "matrices" / f"{bug}.matrix"),
                "--detection", str(inputs / "detection" / f"{bug}.json"),
                "--out", str(artifacts / f"tcp-{bug}.json")])
        self.timed(times, "mbfl_cmd_s", self.cli, "mbfl", [
            "mbfl", "--matrices", str(inputs / "matrices"),
            "--statements", str(inputs / "statements.json"),
            "--faulty", str(inputs / "faulty.json"),
            "--statement-space", str(inputs / "space.json"),
            "--out", str(artifacts / "mbfl.json")])
        self.check(artifacts)
        self.finish(directory, artifacts)
        return times

    def check(self, artifacts: Path) -> None:
        def load(name):
            return json.loads((artifacts / name).read_text(encoding="utf-8"))

        try:
            failures = checks.check_metrics(load("metrics.json"), self.truth)
            for bug in sorted(self.truth):
                failures += checks.check_tcp(bug, load(f"tcp-{bug}.json"), self.truth[bug])
            failures += checks.check_mbfl(load("mbfl.json"), self.truth)
        except (OSError, KeyError, ValueError) as error:
            failures = [f"{type(error).__name__}: {error}"]
        self.ops.add("analysis output check", 1, failures)


WORKLOADS = {cls.name: cls for cls in (RagGen, EvalToy, Analysis)}
