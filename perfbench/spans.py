"""In-memory span recorder around mutkit's public callables, and the
per-layer report derived from its spans.

The recorder rebinds every module attribute through which callers reach a
public function (``mutkit.execution.run_suite`` and the
``mutkit.pipeline.run_suite`` imported from it are the same function under
two names, and both are wrapped), patches public methods on their classes,
and swaps the thread pools mutkit creates for ones that carry the
submitting span into the worker, so a span started in a pool thread knows
its parent.  mutkit itself is not modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("corpus", "embedder", "chunker", "promptgen", "llm", "validity",
          "execution", "pipeline", "metrics", "tcp", "mbfl", "sft", "cli")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Counts recorded at the boundary where the work happens, keyed by span name.
COUNTERS = {
    "corpus.ingest_corpus": lambda args, result: {
        "pairs": len(result.pairs), "skipped": len(result.skipped)},
    "chunker.chunk_method": lambda args, result: {"chunks": len(result)},
    "chunker.whole_method_chunk": lambda args, result: {"chunks": 1},
    "promptgen.parse_response": lambda args, result: {"pairs": len(result.pairs)},
    "llm.HttpChatBackend.complete": lambda args, result: {"retries": result.retries},
    "llm.MockBackend.complete": lambda args, result: {"retries": result.retries},
    "validity.validity_metrics": lambda args, result: {
        "generated": len(args[0].generated),
        "useful": len(args[0].compilable - args[0].duplicates)},
    "execution.run_suite": lambda args, result: {
        "timeouts": sum(1 for flag in result.flags.values() if flag == "timeout")},
    "sft.write_instances": lambda args, result: {"instances": result},
}


class SpanRecorder:
    """Collects spans while installed; ``run`` tags spans with an iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, layer: str, fn):
        recorder = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(recorder._ids)
            parent = recorder.current()
            stack = recorder._stack()
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, result) if count and error is None else {}
                span = Span(span_id, name, layer, start, end, parent, recorder.run,
                            threading.get_ident(), error, counts)
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def span(self, name: str):
        """Context manager for a benchmark-side span (layer ``bench``)."""
        return _BenchSpan(self, name)

    def _executor(self):
        recorder = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def run_with_parent(*inner_args, **inner_kwargs):
                    recorder._local.inherited = parent
                    try:
                        return fn(*inner_args, **inner_kwargs)
                    finally:
                        recorder._local.inherited = None

                return super().submit(run_with_parent, *args, **kwargs)

        return PropagatingExecutor

    # -- installation
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mutkit.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        executor = self._executor()
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])
                elif obj is ThreadPoolExecutor:
                    self._patch(module, attr, executor)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, layer, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, layer, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, self.wrap(name, layer, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def of_run(self, run: int) -> list[Span]:
        return [span for span in self.spans if span.run == run]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class _BenchSpan:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.id = next(self.recorder._ids)
        self.parent = self.recorder.current()
        self.recorder._stack().append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.recorder._stack().pop()
        with self.recorder._lock:
            self.recorder.spans.append(Span(
                self.id, f"bench.{self.name}", "bench", self.start, end, self.parent,
                self.recorder.run, threading.get_ident()))
        return False


# ------------------------------------------------------------------ report

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.seconds - covered
    return result


def wall_by_layer(spans: list[Span]) -> dict[str, float]:
    """Split wall time among the innermost running spans, layer by layer.

    At every instant the time goes to the spans that are running and have
    no running child, shared equally when several run in parallel; the
    shares sum to the wall time the spans cover.
    """
    by_id = {span.id: span for span in spans}
    events = sorted([(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans])
    running: set[int] = set()
    running_children: Counter = Counter()
    totals: dict[str, float] = defaultdict(float)
    last = 0.0
    for when, is_start, span_id in events:
        leaves = [i for i in running if not running_children[i]]
        for leaf in leaves:
            totals[by_id[leaf].layer] += (when - last) / len(leaves)
        last = when
        parent = by_id[span_id].parent
        step = 1 if is_start else -1
        if parent in by_id:
            running_children[parent] += step
        if is_start:
            running.add(span_id)
        else:
            running.discard(span_id)
    return dict(totals)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    selfs = self_times(spans)

    def group(*names):
        return [s for name in names for s in named.get(name, ())]

    def busy(*names):
        return sum(s.seconds for s in group(*names))

    def calls(*names):
        return len(group(*names))

    def total(key, *names):
        return sum(s.counts.get(key, 0) for s in group(*names))

    def ms(q, *names):
        return _percentile([s.seconds * 1000 for s in group(*names)], q)

    def own(*names):
        return sum(selfs[s.id] for s in group(*names))

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    complete = ("llm.HttpChatBackend.complete", "llm.MockBackend.complete")
    parsed = total("pairs", "promptgen.parse_response")
    materialized = sum(1 for s in group("promptgen.materialize") if s.error is None)
    generated = total("generated", "validity.validity_metrics")
    evaluate_wall = busy("pipeline.run_evaluate")
    compile_busy = busy("validity.check_compile")
    suite_busy = busy("execution.run_suite")
    metrics = {
        "corpus.ingest_s": busy("corpus.ingest_corpus"),
        "corpus.pairs": total("pairs", "corpus.ingest_corpus"),
        "corpus.skipped": total("skipped", "corpus.ingest_corpus"),
        "embedder.embed.calls": calls("embedder.LexicalEmbedder.embed"),
        "embedder.embed_s": busy("embedder.LexicalEmbedder.embed"),
        "embedder.add_s": busy("embedder.VectorIndex.add"),
        "embedder.save_s": busy("embedder.VectorIndex.save"),
        "embedder.load_s": busy("embedder.VectorIndex.load"),
        "embedder.query.calls": calls("embedder.VectorIndex.query"),
        "embedder.query_s": busy("embedder.VectorIndex.query"),
        "embedder.query_p50_ms": ms(50, "embedder.VectorIndex.query"),
        "embedder.query_p90_ms": ms(90, "embedder.VectorIndex.query"),
        "chunker.parse_s": busy("chunker.parse_method"),
        "chunker.chunk_s": busy("chunker.chunk_method", "chunker.whole_method_chunk"),
        "chunker.chunks": total("chunks", "chunker.chunk_method",
                                "chunker.whole_method_chunk"),
        "promptgen.render_s": busy("promptgen.render_prompt", "promptgen.render_examples"),
        "promptgen.parse_s": busy("promptgen.parse_response"),
        "promptgen.materialize_s": busy("promptgen.materialize"),
        "promptgen.pairs_parsed": parsed,
        "promptgen.materialized_ratio": ratio(materialized, parsed),
        "llm.complete.calls": calls(*complete),
        "llm.complete_p50_ms": ms(50, *complete),
        "llm.complete_p90_ms": ms(90, *complete),
        "llm.batch_s": busy("llm.complete_batch"),
        "llm.overlap": ratio(busy(*complete), busy("llm.complete_batch")),
        "llm.retries": total("retries", *complete),
        "llm.errors": sum(1 for s in group(*complete) if s.error),
        "validity.dedup_s": busy("validity.dedup"),
        "validity.compile.calls": calls("validity.check_compile"),
        "validity.compile_busy_s": compile_busy,
        "validity.compile_p50_ms": ms(50, "validity.check_compile"),
        "validity.compile_p90_ms": ms(90, "validity.check_compile"),
        "validity.generated": generated,
        "validity.useful_ratio": ratio(total("useful", "validity.validity_metrics"),
                                       generated),
        "execution.suite.calls": calls("execution.run_suite"),
        "execution.suite_busy_s": suite_busy,
        "execution.suite_p50_ms": ms(50, "execution.run_suite"),
        "execution.suite_p90_ms": ms(90, "execution.run_suite"),
        "execution.timeouts": total("timeouts", "execution.run_suite"),
        "execution.runner_errors": sum(1 for s in group("execution.run_suite")
                                       if s.error == "RunnerError"),
        "execution.load_matrix_s": busy("execution.load_matrix"),
        "execution.matrix_loads": calls("execution.load_matrix"),
        "pipeline.evaluate_s": evaluate_wall,
        "pipeline.subprocess_overlap": ratio(compile_busy + suite_busy, evaluate_wall),
        "pipeline.evaluate_self_s": own("pipeline.run_evaluate"),
        "pipeline.generate_self_s": own("pipeline.run_generate"),
        "pipeline.outcomes_from_matrix_s": busy("pipeline.mutant_outcomes_from_matrix"),
        "mbfl.localize_s": busy("mbfl.localize"),
        "mbfl.fl_metrics_s": busy("mbfl.fl_metrics"),
        "metrics.effectiveness_s": busy("metrics.effectiveness_report"),
        "tcp.grk_s": busy("tcp.grk"),
        "tcp.grd_s": busy("tcp.grd"),
        "tcp.hyb_s": busy("tcp.hyb"),
        "sft.export_s": busy("sft.export", "sft.write_instances"),
        "sft.instances": total("instances", "sft.write_instances"),
    }
    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += selfs[span.id]
    wall = wall_by_layer(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for layer in ("bench",) + LAYERS:
        metrics[f"{layer}.wall_s"] = wall.get(layer, 0.0)
    metrics["trace.spans"] = len(spans)
    return metrics


PER_LAYER_UNITS = {
    "calls": "count", "pairs": "count", "skipped": "count", "chunks": "count",
    "pairs_parsed": "count", "retries": "count", "errors": "count",
    "generated": "count", "timeouts": "count", "runner_errors": "count",
    "matrix_loads": "count", "instances": "count", "spans": "count",
    "materialized_ratio": "ratio", "useful_ratio": "ratio", "overlap": "ratio",
    "subprocess_overlap": "ratio", "overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    tail = name.rsplit(".", 1)[-1]
    if tail in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[tail]
    if tail.endswith("_ms"):
        return "ms"
    return "s"
