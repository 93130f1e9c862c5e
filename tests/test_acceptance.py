"""Acceptance gate: one test per shipped acceptance criterion.

Each criterion pins the published arithmetic, an oracle-equivalence
property, or an end-to-end behaviour the package commits to, together
with its runtime budget.  The hook in conftest.py prints one PASS/FAIL
line per criterion at the end of the run.

The oracles are deliberately reimported from tests/oracles.py and the
sibling test modules so the gate shares no metric code with the package.
"""

import itertools
import json
import random
import time

import pytest

from mutkit.chunker import chunk_method, parse_method
from mutkit.cli import main
from mutkit.corpus import ingest_corpus, select_pairs
from mutkit.embedder import LexicalEmbedder, VectorIndex
from mutkit.execution import TestOutcomeVector, build_kill_matrix
from mutkit.mbfl import localize, rank
from mutkit.metrics import (
    BugContext,
    aoc,
    bug_ochiai,
    coupling_rate,
    high_similarity_count,
    mutation_score,
    ochiai,
    real_bug_detection,
)
from mutkit.pipeline import PipelineConfig, TargetSpec, run_evaluate
from mutkit.promptgen import (
    MutationPair,
    materialize,
    parse_response,
    render_examples,
    render_prompt,
)
from mutkit.tcp import apfd, grd, grk, hyb
from mutkit.validity import rates

from oracles import (
    oracle_apfd,
    oracle_bug_ochiai,
    oracle_coupling,
    oracle_detection,
    oracle_high_similarity,
    oracle_mutation_score,
    oracle_ochiai,
    oracle_tie_ranks,
    random_kill_table,
)
from test_chunker import assert_partition, reconstruct, synthesize_method
from test_metrics import matrix_from_table
from test_pipeline import (
    CLAMP_FIXED,
    COMPILE_COMMAND,
    SUM_BUGGY,
    SUM_FIXED,
    TEST_COMMAND,
    build_index_file,
    read_tree,
    scripted_generate,
    write_corpus,
)
from test_tcp import oracle_greedy


def test_criterion_1_generation_rate_arithmetic():
    """Published generation rates reproduce to within 0.005 points."""
    for expected, generated, percent in ((35979, 23083, 64.16), (46873, 23708, 50.58)):
        row = rates({"expected": expected, "generated": generated,
                     "duplicates": 0, "compilable": 0})
        assert row["generation_rate"] * 100 == pytest.approx(percent, abs=0.005)


def test_criterion_2_chunking_partition_property():
    """Chunks partition and reconstruct 120 random nested methods in < 5 s."""
    started = time.perf_counter()
    rng = random.Random(20260815)
    for _ in range(120):
        source = synthesize_method(rng)
        method = parse_method(source)
        chunks = chunk_method(method)
        assert_partition(method, chunks)
        assert reconstruct(method, chunks) == source
    assert time.perf_counter() - started < 5.0


def test_criterion_3_metric_oracle_equivalence():
    """MS, Ochiai, AOC, coupling, and R.B.D. match brute force on 1,000 matrices."""
    started = time.perf_counter()
    rng = random.Random(3)
    mine_per_bug: dict[str, float] = {}
    oracle_per_bug: dict[str, float] = {}
    contexts: list[BugContext] = []
    oracle_fractions: list[tuple[int, int]] = []
    for i in range(1000):
        table, tests = random_kill_table(rng)
        revealing = {t for t in tests if rng.random() < 0.3}
        bug_id = f"b{i:04d}"
        ctx = BugContext(bug_id=bug_id, matrix=matrix_from_table(table, tests, bug_id),
                         bug_revealing_tests=frozenset(revealing))
        assert mutation_score(ctx) == oracle_mutation_score(table)
        assert coupling_rate(ctx) == oracle_coupling(table, revealing)
        for mutant_id, row in zip(ctx.matrix.mutant_ids, ctx.matrix.kills):
            killed = {t for t, hit in zip(ctx.matrix.test_ids, row) if hit}
            assert (ochiai(len(killed & revealing), len(killed), len(revealing))
                    == oracle_ochiai(table[mutant_id], revealing))
        value = bug_ochiai(ctx)
        assert value == oracle_bug_ochiai(table, revealing)
        mine_per_bug[bug_id] = value
        oracle_per_bug[bug_id] = oracle_bug_ochiai(table, revealing)
        if revealing:
            contexts.append(ctx)
            oracle_fractions.append(oracle_detection(table, revealing))
    assert aoc(mine_per_bug) == sum(oracle_per_bug.values()) / len(oracle_per_bug)
    assert (high_similarity_count(mine_per_bug)
            == oracle_high_similarity(oracle_per_bug.values()))
    detection = real_bug_detection(contexts)
    fractions = [detected / revealing for detected, revealing in oracle_fractions]
    assert [real_bug_detection([ctx])["macro"] for ctx in contexts] == fractions
    assert detection["macro"] == sum(fractions) / len(fractions)
    pooled_detected = sum(d for d, _ in oracle_fractions)
    pooled_revealing = sum(r for _, r in oracle_fractions)
    assert detection["micro"] == pooled_detected / pooled_revealing
    assert time.perf_counter() - started < 30.0


def test_criterion_4_apfd_bounds_and_hand_case():
    """APFD stays inside [1/2n, 1-1/2n] on 1,000 random orderings."""
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(1, 30)
        order = [f"t{i:02d}" for i in range(n)]
        rng.shuffle(order)
        detection = {f"f{j}": set(rng.sample(order, rng.randint(1, n)))
                     for j in range(rng.randint(1, 8))}
        value = apfd(tuple(order), detection)
        assert 1 / (2 * n) - 1e-12 <= value <= 1 - 1 / (2 * n) + 1e-12
        assert value == pytest.approx(oracle_apfd(order, detection), abs=1e-12)
    hand = apfd(("t1", "t2", "t3", "t4", "t5"), {"f1": {"t1"}, "f2": {"t3"}})
    assert hand == pytest.approx(0.7, abs=1e-12)


def _all_small_tables():
    """Every kill table with up to 3 mutants and 3 tests."""
    for n_mutants in range(1, 4):
        for n_tests in range(1, 4):
            mutants = [f"m{i}" for i in range(n_mutants)]
            tests = [f"t{j}" for j in range(n_tests)]
            cells = n_mutants * n_tests
            for mask in range(2 ** cells):
                table = {m: set() for m in mutants}
                for bit in range(cells):
                    if mask >> bit & 1:
                        table[mutants[bit // n_tests]].add(tests[bit % n_tests])
                yield table, tests


def _random_table(rng: random.Random, n_mutants: int, n_tests: int):
    mutants = [f"m{i}" for i in range(n_mutants)]
    tests = [f"t{j:02d}" for j in range(n_tests)]
    density = rng.uniform(0.1, 0.7)
    return {m: {t for t in tests if rng.random() < density} for m in mutants}, tests


def test_criterion_5_greedy_per_step_optimality():
    """Each greedy step picks a maximal-score test; hyb extremes match grk/grd."""
    rng = random.Random(5)
    cases = list(_all_small_tables())
    for _ in range(500):
        cases.append(_random_table(rng, rng.randint(1, 6), rng.randint(1, 6)))
    for table, tests in cases:
        matrix = matrix_from_table(table, tests)
        for mode, suite in (("grk", grk(matrix)), ("grd", grd(matrix)),
                            ("hyb", hyb(matrix, 0.5))):
            order, step_kills, step_pairs = oracle_greedy(table, tests, mode)
            assert suite.order == tuple(order)
            assert suite.step_kills == tuple(step_kills)
            assert suite.step_pairs == tuple(step_pairs)
    for _ in range(100):
        table, tests = _random_table(rng, 10, 10)
        matrix = matrix_from_table(table, tests)
        assert hyb(matrix, 1.0).order == grk(matrix).order
        assert hyb(matrix, 0.0).order == grd(matrix).order


def _single_fault_instance(rng: random.Random, case: int):
    """A localization instance where one statement's mutants fix failures."""
    n_statements = rng.randint(2, 8)
    statements = list(range(1, n_statements + 1))
    faulty = rng.choice(statements)
    failing = [f"f{i}" for i in range(rng.randint(1, 4))]
    passing = [f"p{i}" for i in range(rng.randint(1, 5))]
    outcomes = {**{t: "fail" for t in failing}, **{t: "pass" for t in passing}}
    original = TestOutcomeVector(program_id=f"bug{case}", outcomes=outcomes)
    mutant_outcomes: dict[str, TestOutcomeVector] = {}
    statement_of: dict[str, int] = {}
    seq = 0
    for statement in statements:
        for _ in range(rng.randint(1, 3)):
            mutant_id = f"mut{seq:03d}"
            seq += 1
            statement_of[mutant_id] = statement
            flipped = dict(outcomes)
            if statement == faulty:
                for t in rng.sample(failing, rng.randint(1, len(failing))):
                    flipped[t] = "pass"
            else:
                for t in passing:
                    if rng.random() < 0.3:
                        flipped[t] = "fail"
            mutant_outcomes[mutant_id] = TestOutcomeVector(
                program_id=mutant_id, outcomes=flipped)
    return original, mutant_outcomes, statement_of, statements, faulty


def test_criterion_6_mbfl_single_fault_sanity():
    """Single-fault statements rank first; ranks sum to n(n+1)/2."""
    rng = random.Random(6)
    for case in range(40):
        original, mutant_outcomes, statement_of, statements, faulty = (
            _single_fault_instance(rng, case))
        matrix = build_kill_matrix(original, list(mutant_outcomes.values()))
        reports = localize(f"bug{case}", original, matrix, statement_of,
                           statements=statements, faulty_statements=[faulty])
        assert list(reports) == ["muse", "metallaxis"]
        for method, report in reports.items():
            assert report.expected_ranks[faulty] == 1.0
            assert report.faulty_ranks() == [1.0]
            if method == "metallaxis":
                assert all(0.0 <= score <= 1.0 for score in report.scores.values())
            total = sum(report.expected_ranks.values())
            n = len(statements)
            assert total == pytest.approx(n * (n + 1) / 2, abs=1e-9)
    for _ in range(200):
        n = rng.randint(1, 12)
        scores = {s: rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])
                  for s in range(1, n + 1)}
        ranks = rank(scores)
        assert sum(ranks.values()) == pytest.approx(n * (n + 1) / 2, abs=1e-9)
        assert ranks == oracle_tie_ranks(scores)


def test_criterion_7_retrieval_self_query_and_determinism(tmp_path, capsys):
    """Self-query scores 0 first; ranking ignores insertion order; N defaults to 6."""
    embedder = LexicalEmbedder(dimension=96)
    snippets = {f"s{i:02d}": f"int v{i} = compute({i}) + {i * 7};"
                for i in range(10)}
    entries = sorted(snippets)
    index = VectorIndex(entries, embedder.embed_many([snippets[i] for i in entries]))
    probe = embedder.embed(snippets["s04"])
    neighbors = index.query(probe, n=4)
    assert neighbors[0] == ("s04", 0.0)

    baseline = index.query(probe, n=len(entries))
    rng = random.Random(7)
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        permuted = VectorIndex(shuffled, embedder.embed_many([snippets[i] for i in shuffled]))
        assert permuted.query(probe, n=len(entries)) == baseline

    assert PipelineConfig().retrieval_n == 6
    corpus_path = tmp_path / "corpus.jsonl"
    index_path = tmp_path / "corpus.index"
    write_corpus(corpus_path)
    assert main(["rag", "build", "--corpus", str(corpus_path),
                 "--index", str(index_path)]) == 0
    capsys.readouterr()
    assert main(["rag", "query", "--index", str(index_path),
                 "--code", "int factor = 5;"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 6


def test_criterion_8_end_to_end_offline_determinism(tmp_path):
    """Two full offline generate + report runs are byte-identical in < 60 s."""
    started = time.perf_counter()
    trees = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        corpus_path = base / "corpus.jsonl"
        index_path = base / "corpus.index"
        write_corpus(corpus_path)
        build_index_file(corpus_path, index_path)
        config = PipelineConfig(corpus=str(corpus_path), index=str(index_path),
                                dimension=64, output_dir=str(base / "out"),
                                test_command=TEST_COMMAND,
                                compile_command=COMPILE_COMMAND)
        targets = [
            TargetSpec(bug_id="Clamp-1", method=CLAMP_FIXED, project="Alpha",
                       bug_revealing_tests=("t_above",)),
            TargetSpec(bug_id="Sum-1", method=SUM_FIXED, project="Beta",
                       buggy_method=SUM_BUGGY),
        ]
        outcome = scripted_generate(config, targets, base)
        assert outcome.succeeded == len(targets)
        evaluated = run_evaluate(config, targets)
        assert {"validity", "metrics", "tcp"} <= set(evaluated.sections)
        trees.append(read_tree(base / "out"))
    assert trees[0] == trees[1]
    assert time.perf_counter() - started < 60.0


def test_criterion_9_prompt_round_trip_and_materialize(tmp_path):
    """Rendered examples survive the response parser; edits stay in-chunk."""
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path)
    records = ingest_corpus(str(corpus_path)).pairs[:6]
    pairs, problems = select_pairs(records, [record.id for record in records])
    assert not problems
    examples = render_examples(list(pairs.values()))
    assert len(examples) == 6
    method = parse_method(CLAMP_FIXED)
    chunks = chunk_method(method)
    prompt = render_prompt(method, chunks[0], examples,
                           n=len(chunks[0].line_numbers))
    parsed = parse_response(prompt)
    assert parsed.failure is None
    assert parsed.dropped == 0
    assert ([(p.precode, p.aftercode) for p in parsed.pairs]
            == [(e.precode, e.aftercode) for e in examples])

    rng = random.Random(9)
    for i in range(100):
        source = synthesize_method(rng)
        method = parse_method(source)
        chunks = chunk_method(method)
        position = rng.randrange(len(chunks))
        chunk = chunks[position]
        original_lines = source.split("\n")
        precode = original_lines[rng.choice(chunk.line_numbers) - 1]
        pair = MutationPair(precode=precode, aftercode=f"zzMutated({i});")
        mutant = materialize(source, chunk, pair, mutant_id=f"x-m{i:03d}",
                             bug_id="x", chunk_id=f"c{position:02d}")
        mutated_lines = mutant.source.split("\n")
        assert len(mutated_lines) == len(original_lines)
        changed = [k + 1 for k, (before, after)
                   in enumerate(zip(original_lines, mutated_lines))
                   if before != after]
        assert changed == [mutant.target_line]
        assert mutant.target_line in chunk.line_numbers
