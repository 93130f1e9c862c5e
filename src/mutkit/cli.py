"""Command-line interface: one subcommand per pipeline capability.

Two families of subcommands share a JSON config (--config, overridable
by flags).  The artifact pipeline runs end to end:

    mutkit ingest --corpus pairs.jsonl
    mutkit rag build --config run.json
    mutkit generate --config run.json --targets targets.jsonl
    mutkit report --config run.json --targets targets.jsonl

The analysis commands (metrics, tcp, mbfl) also work standalone on
explicit matrix and outcome files, with no generation artifacts needed.
They build their payloads with the same section builders as
``mutkit report`` (``metrics.effectiveness_report``, ``mbfl.localize``
and the ``report`` sections).  ``config`` reads every JSON input and
checks its types; this module turns its errors into exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from . import mbfl, metrics, report
from .chunker import ChunkerError, chunk_method, chunks_as_dicts, parse_method
from .config import (
    MODE_CHOICES,
    PipelineConfig,
    PipelineError,
    load_config,
    load_mutants,
    load_targets,
    read_bug_table,
    read_coupled_mutants,
    read_generation,
    read_prompts,
    read_text,
)
from .corpus import CorpusError, ingest_corpus
from .embedder import (
    KEY_SIDES,
    METRICS,
    EmbeddingError,
    IndexFormatError,
    LexicalEmbedder,
    VectorIndex,
    build_index,
    describe_index,
)
from .execution import MatrixError, RunnerError, load_matrix, load_outcomes
from .generate import probe_embedder, run_generate
from .llm import BackendError
from .mbfl import MbflError
from .metrics import BugContext, MetricsError
from .pipeline import run_evaluate
from .sft import SftContext, SftError, export, write_instances
from .tcp import DEFAULT_HYB_WEIGHT, TcpError
from .validity import ValidityError

CLI_ERRORS = (PipelineError, CorpusError, ChunkerError, EmbeddingError,
              IndexFormatError, BackendError, ValidityError, RunnerError,
              MatrixError, MetricsError, TcpError, MbflError, SftError,
              OSError, json.JSONDecodeError, UnicodeDecodeError)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {name: getattr(args, name, None)
                 for name in PipelineConfig.__dataclass_fields__}
    if args.config:
        return load_config(args.config, overrides)
    return PipelineConfig(**{k: v for k, v in overrides.items() if v is not None})


def _emit(payload, out: str | None = None) -> None:
    """Print the payload's JSON text; with --out, also write it there."""
    text = report.dumps(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.corpus:
        raise PipelineError("ingest needs --corpus or a config with one")
    corpus = ingest_corpus(config.corpus)
    reasons = Counter(record.reason for record in corpus.skipped)
    _emit({
        "pairs": len(corpus.pairs),
        "skipped": len(corpus.skipped),
        "skip_reasons": dict(sorted(reasons.items())),
        "projects": sorted({p.project for p in corpus.pairs}),
    })
    return 0


def cmd_rag_build(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.corpus or not config.index:
        raise PipelineError("rag build needs corpus and index paths")
    corpus = ingest_corpus(config.corpus)
    embedder = LexicalEmbedder(dimension=config.dimension)
    index = build_index(corpus.pairs, backend=embedder, metric=config.metric,
                        key_side=config.key_side)
    index.save(config.index)
    _emit(describe_index(index))
    return 0


def cmd_rag_query(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.index:
        raise PipelineError("rag query needs an index path")
    index = VectorIndex.load(config.index)
    embedder = probe_embedder(index)
    if args.code is not None:
        code = args.code
    else:
        code = read_text(Path(args.code_file))
    n = args.n if args.n is not None else config.retrieval_n
    neighbors = index.query(embedder.embed(code), n=min(n, len(index)))
    _emit([{"id": pair_id, "score": score} for pair_id, score in neighbors])
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    source = read_text(Path(args.source))
    method = parse_method(source)
    chunks = chunk_method(method)
    _emit({"lines": len(method.lines), "chunks": chunks_as_dicts(chunks)})
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    targets = load_targets(args.targets)
    outcome = run_generate(config, targets)
    _emit(outcome.summary["totals"])
    return 0 if outcome.succeeded > 0 else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    """validate, execute and report: evaluate as deep as the command goes."""
    config = _config_from_args(args)
    outcome = run_evaluate(config, load_targets(args.targets),
                           manifest_dir=args.artifacts, out_dir=args.report_dir,
                           through=args.command)
    _emit({"out_dir": str(outcome.out_dir),
           "sections": sorted(set(outcome.sections) - {"mode", "variant", "warnings"}),
           "warnings": outcome.sections["warnings"]})
    return 0


def _load_matrix_dir(matrices: Path) -> dict[str, "object"]:
    paths = sorted(matrices.glob("*.matrix"))
    if not paths:
        raise PipelineError(f"no .matrix files under {matrices}")
    return {path.stem: load_matrix(str(path)) for path in paths}


def cmd_metrics(args: argparse.Namespace) -> int:
    """Effectiveness report from matrix files plus a revealing-test list."""
    by_bug = _load_matrix_dir(Path(args.matrices))
    revealing = read_bug_table(args.revealing, list[str])
    contexts = []
    for bug_id in sorted(by_bug):
        if bug_id not in revealing:
            raise PipelineError(
                f"bug {bug_id} missing from revealing-test file {args.revealing}")
        contexts.append(BugContext(bug_id=bug_id, matrix=by_bug[bug_id],
                                   bug_revealing_tests=revealing[bug_id]))
    _emit(metrics.effectiveness_report(contexts), args.out)
    return 0


def cmd_tcp(args: argparse.Namespace) -> int:
    """Prioritize one matrix's tests and score the order against detection."""
    strategies = report.tcp_strategies(args.weight)
    matrix = load_matrix(args.matrix)
    detection = {bug: set(tests) for bug, tests
                 in read_bug_table(args.detection, list[str]).items()}
    _emit({"strategies": report.tcp_records(matrix, strategies, detection)},
          args.out)
    return 0


def cmd_mbfl(args: argparse.Namespace) -> int:
    """Localize from buggy-mode matrix/outcome files plus faulty lines.

    --matrices holds <bug>.matrix and <bug>.original.txt per bug;
    --statements maps bug -> {mutant-id: line}; --faulty maps
    bug -> [faulty lines]; --statement-space (optional) maps
    bug -> [candidate lines] for zero-padding unmutated statements.
    A bug without faulty lines keeps its ranking but, when another bug
    has some, is left out of Top-k/MAR/MFR with a warning on stderr.
    """
    matrices = Path(args.matrices)
    by_bug = _load_matrix_dir(matrices)
    statements = read_bug_table(args.statements, dict[str, int])
    faulty = read_bug_table(args.faulty, list[int])
    space = (read_bug_table(args.statement_space, list[int])
             if args.statement_space else {})
    per_bug = {}
    for bug_id in sorted(by_bug):
        original = load_outcomes(str(matrices / f"{bug_id}.original.txt"))
        if bug_id not in statements:
            raise PipelineError(f"bug {bug_id} missing from {args.statements}")
        per_bug[bug_id] = mbfl.localize(
            bug_id, original, by_bug[bug_id], statements[bug_id],
            statements=space.get(bug_id, ()),
            faulty_statements=faulty.get(bug_id, ()))
    unscored = [bug_id for bug_id in sorted(by_bug) if not faulty.get(bug_id)]
    if len(unscored) < len(by_bug):
        for bug_id in unscored:
            print(f"warning: mbfl: bug {bug_id} has no faulty lines in "
                  f"{args.faulty}; left out of Top-k/MAR/MFR", file=sys.stderr)
    _emit(report.mbfl_section(per_bug), args.out)
    return 0


def cmd_export_sft(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    artifacts = Path(args.artifacts or config.output_dir)
    summary, manifest = read_generation(artifacts)
    projects = {bug_id: entry.get("project", "")
                for bug_id, entry in summary["targets"].items()}
    contexts = {(row["bug_id"], row["chunk_id"]): SftContext(
        bug_id=row["bug_id"], chunk_id=row["chunk_id"], prompt=row["prompt"],
        project=projects.get(row["bug_id"], ""))
        for row in read_prompts(artifacts) if not row["error"]}
    mutants = list(load_mutants(artifacts, manifest).values())
    report_dir = Path(args.report_dir or artifacts / "report")
    result = export(mutants, read_coupled_mutants(report_dir), contexts,
                    grouped=args.grouped, exclude_projects=tuple(args.exclude_projects))
    count = write_instances(result.instances, args.out)
    _emit({
        "instances": count,
        "skipped": [[s.mutant_id, s.reason] for s in result.skipped],
        "excluded_uncoupled": result.excluded_uncoupled,
        "excluded_projects": result.excluded_projects,
        "out": str(args.out),
    })
    return 0


def _config_flags() -> argparse.ArgumentParser:
    """The flags that override config fields, as a parent parser that the
    subcommands building a ``PipelineConfig`` share."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--corpus", help="bug-fix corpus JSONL path")
    parser.add_argument("--index", help="vector index path")
    parser.add_argument("--output-dir", help="artifact directory (default: out)")
    parser.add_argument("--metric", choices=METRICS)
    parser.add_argument("--key-side", choices=KEY_SIDES)
    parser.add_argument("--dimension", type=int,
                        help="embedding dimension for lexical indexes")
    parser.add_argument("--mode", choices=MODE_CHOICES,
                        help="whether targets are fixed or buggy versions")
    parser.add_argument("--retrieval-n", type=int,
                        help="few-shot examples per prompt (default 6)")
    parser.add_argument("--no-retrieval", dest="retrieval", action="store_const",
                        const=False, help="disable retrieval (ablation)")
    parser.add_argument("--no-chunking", dest="chunking", action="store_const",
                        const=False, help="disable chunking (ablation)")
    parser.add_argument("--compile-command",
                        help="compile check template with {source}")
    parser.add_argument("--test-command", help="test runner template with {source}")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sample-targets", type=int)
    parser.add_argument("--hyb-weight", type=float)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutkit",
        description="LLM-assisted mutation generation and analysis toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    subparsers = parser.add_subparsers(dest="command", required=True)
    config_flags = [_config_flags()]
    # main keeps one parser for the process, so each handler looks its cmd_*
    # function up when it runs: a later rebinding (a test's monkeypatch, a
    # tracer's wrapper) takes effect.

    ingest = subparsers.add_parser(
        "ingest", parents=config_flags,
        help="validate a corpus file and summarize it")
    ingest.set_defaults(handler=lambda args: cmd_ingest(args))

    rag = subparsers.add_parser("rag", help="retrieval index operations")
    rag_sub = rag.add_subparsers(dest="rag_command", required=True)
    rag_build = rag_sub.add_parser("build", parents=config_flags,
                                   help="embed a corpus into an index")
    rag_build.set_defaults(handler=lambda args: cmd_rag_build(args))
    rag_query = rag_sub.add_parser("query", parents=config_flags,
                                   help="query an index")
    code_source = rag_query.add_mutually_exclusive_group(required=True)
    code_source.add_argument("--code", help="code snippet to embed")
    code_source.add_argument("--code-file", help="file holding the snippet")
    rag_query.add_argument("-n", type=int, help="neighbors to return")
    rag_query.set_defaults(handler=lambda args: cmd_rag_query(args))

    chunk = subparsers.add_parser("chunk", help="chunk one method source file")
    chunk.add_argument("source", help="file holding the method text")
    chunk.set_defaults(handler=lambda args: cmd_chunk(args))

    generate = subparsers.add_parser(
        "generate", parents=config_flags,
        help="generate mutants for every target")
    generate.add_argument("--targets", required=True, help="targets JSONL file")
    generate.set_defaults(handler=lambda args: cmd_generate(args))

    for name, help_text in (
            ("validate", "validity rates over generation artifacts"),
            ("execute", "build or load kill matrices"),
            ("report", "full evaluation report")):
        sub = subparsers.add_parser(name, parents=config_flags, help=help_text)
        sub.add_argument("--targets", required=True)
        sub.add_argument("--artifacts",
                         help="generation artifact dir (default: output_dir)")
        sub.add_argument("--report-dir",
                         help="report output dir (default: <artifacts>/report)")
        sub.set_defaults(handler=lambda args: cmd_evaluate(args))

    metrics_parser = subparsers.add_parser(
        "metrics", help="effectiveness report from matrix files")
    metrics_parser.add_argument("--matrices", required=True,
                                help="directory of <bug>.matrix files")
    metrics_parser.add_argument("--revealing", required=True,
                                help="JSON file mapping bug id to revealing tests")
    metrics_parser.add_argument("--out", help="also write the JSON report here")
    metrics_parser.set_defaults(handler=lambda args: cmd_metrics(args))

    tcp = subparsers.add_parser(
        "tcp", help="prioritize one matrix's tests and score with APFD")
    tcp.add_argument("--matrix", required=True, help="matrix file")
    tcp.add_argument("--detection", required=True,
                     help="JSON file mapping bug id to detecting tests")
    tcp.add_argument("--weight", type=float, default=DEFAULT_HYB_WEIGHT,
                     help="HYB kill weight in [0, 1] (default %(default)s)")
    tcp.add_argument("--out", help="also write the JSON report here")
    tcp.set_defaults(handler=lambda args: cmd_tcp(args))

    mbfl_parser = subparsers.add_parser(
        "mbfl", help="fault localization from matrix and outcome files")
    mbfl_parser.add_argument("--matrices", required=True,
                             help="directory of <bug>.matrix + <bug>.original.txt")
    mbfl_parser.add_argument("--statements", required=True,
                             help="JSON file: bug id -> {mutant id: line}")
    mbfl_parser.add_argument("--faulty", required=True,
                             help="JSON file: bug id -> [faulty lines]")
    mbfl_parser.add_argument("--statement-space",
                             help="JSON file: bug id -> [all candidate lines]")
    mbfl_parser.add_argument("--out", help="also write the JSON report here")
    mbfl_parser.set_defaults(handler=lambda args: cmd_mbfl(args))

    export_sft = subparsers.add_parser(
        "export-sft", parents=config_flags,
        help="export coupled mutants as training instances")
    export_sft.add_argument("--artifacts",
                            help="generation artifact dir (default: output_dir)")
    export_sft.add_argument("--report-dir",
                            help="report dir holding effectiveness.json")
    export_sft.add_argument("--out", required=True, help="output JSONL path")
    export_sft.add_argument("--grouped", action="store_true",
                            help="one instance per chunk instead of per mutant")
    export_sft.add_argument("--exclude-projects", nargs="*", default=(),
                            help="hold out these projects")
    export_sft.set_defaults(handler=lambda args: cmd_export_sft(args))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser is built on the first call and reused,
    so main may be called repeatedly in one process."""
    args = _parser().parse_args(argv)
    # basicConfig adds a handler only to a root logger that has none, so the
    # level of each call is set apart from it.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.handler(args)
    except CLI_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
