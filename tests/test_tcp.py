"""Tests for greedy test prioritization and APFD."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit.execution import KillMatrix
from mutkit.tcp import (
    DEFAULT_HYB_WEIGHT,
    PrioritizedSuite,
    TcpError,
    apfd,
    grd,
    grk,
    hyb,
)
from oracles import (
    additional_kills,
    additional_pairs,
    oracle_apfd,
    random_kill_table,
)


def matrix_from_table(table, tests, bug_id="b"):
    mutant_ids = tuple(sorted(table))
    if mutant_ids:
        cells = np.array([[t in table[m] for t in tests] for m in mutant_ids])
    else:
        cells = np.zeros((0, len(tests)), dtype=bool)
    return KillMatrix(bug_id=bug_id, mutant_ids=mutant_ids,
                      test_ids=tuple(tests), kills=cells)


def oracle_greedy(table, tests, mode, weight=0.5):
    """Naive reimplementation of the greedy loop over dicts and sets."""
    mutants = sorted(table)
    m = len(mutants)
    pair_total = m * (m - 1) // 2
    remaining = sorted(tests)
    covered = set()
    distinguished = set()
    order, kill_audit, pair_audit = [], [], []

    def score(test):
        kg = additional_kills(table, test, covered)
        pg = additional_pairs(table, mutants, test, distinguished)
        if mode == "grk":
            return float(kg)
        if mode == "grd":
            return float(pg)
        kill_term = kg / m if m else 0.0
        pair_term = pg / pair_total if pair_total else 0.0
        return weight * kill_term + (1.0 - weight) * pair_term

    while remaining:
        best = max(score(t) for t in remaining)
        if best <= 0 and (covered or distinguished):
            covered = set()
            distinguished = set()
            best = max(score(t) for t in remaining)
        chosen = min(t for t in remaining if score(t) == best)
        remaining.remove(chosen)
        kill_audit.append(additional_kills(table, chosen, covered))
        pair_audit.append(additional_pairs(table, mutants, chosen, distinguished))
        for mutant, killed_by in table.items():
            if chosen in killed_by:
                covered.add(mutant)
        for i, j in itertools.combinations(range(m), 2):
            if (chosen in table[mutants[i]]) != (chosen in table[mutants[j]]):
                distinguished.add((i, j))
        order.append(chosen)
    return order, kill_audit, pair_audit


def assert_matches_oracle(table, tests, weight=0.5):
    matrix = matrix_from_table(table, tests)
    for mode, suite in (("grk", grk(matrix)), ("grd", grd(matrix)),
                        ("hyb", hyb(matrix, weight))):
        order, kill_audit, pair_audit = oracle_greedy(table, tests, mode, weight=weight)
        assert list(suite.order) == order
        assert list(suite.step_kills) == kill_audit
        assert list(suite.step_pairs) == pair_audit


@st.composite
def structured_tables(draw):
    """Kill tables shaped to stress the greedy's class bookkeeping.

    Mutants either all get their own row or copy one of a few prototype
    rows (identical rows); columns are random, all-zero or all-one, and
    some tests duplicate another's column.  A single mutant and zero
    mutants are both reachable.
    """
    mutant_count = draw(st.integers(0, 20))
    if draw(st.booleans()):
        prototypes = max(1, mutant_count)
        row_of = list(range(mutant_count))
    else:
        prototypes = draw(st.integers(1, max(1, mutant_count)))
        row_of = draw(st.lists(st.integers(0, prototypes - 1),
                               min_size=mutant_count, max_size=mutant_count))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["random", "zeros", "ones"]),
                              min_size=1, max_size=14)):
        if kind == "random":
            cells = draw(st.lists(st.booleans(), min_size=prototypes,
                                  max_size=prototypes))
            columns.append([cells[r] for r in row_of])
        else:
            columns.append([kind == "ones"] * mutant_count)
    copies = draw(st.lists(st.integers(0, len(columns) - 1), max_size=6))
    columns += [columns[k] for k in copies]
    tests = draw(st.permutations([f"t{j:02d}" for j in range(len(columns))]))
    table = {f"m{i:02d}": {t for t, column in zip(tests, columns) if column[i]}
             for i in range(mutant_count)}
    return table, tests


@st.composite
def wide_tables(draw):
    """Kill tables with 40-80 tests over at most 6 mutants.

    Most tests copy one of a few columns, so scores tie often; the
    greedy compacts its chosen columns away several times and resets
    its classes many times in one ordering.
    """
    mutant_count = draw(st.integers(1, 6))
    columns = draw(st.lists(st.lists(st.booleans(), min_size=mutant_count,
                                     max_size=mutant_count),
                            min_size=1, max_size=6))
    test_count = draw(st.integers(40, 80))
    column_of = draw(st.lists(st.integers(0, len(columns) - 1),
                              min_size=test_count, max_size=test_count))
    tests = draw(st.permutations([f"t{j:02d}" for j in range(test_count)]))
    table = {f"m{i}": {t for t, k in zip(tests, column_of) if columns[k][i]}
             for i in range(mutant_count)}
    return table, tests


def golden_matrix(seed, mutant_count, test_count):
    """A seeded kill matrix with survivors, duplicate tests and twin mutants."""
    rng = np.random.default_rng(seed)
    density = 0.02 + 0.33 * rng.random(test_count)
    kills = rng.random((mutant_count, test_count)) < density
    kills[rng.random(mutant_count) < 0.15] = False
    copied = rng.random(test_count) < 0.2
    sources = (rng.random(test_count) * test_count).astype(int)
    kills[:, copied] = kills[:, sources[copied]]
    twinned = rng.random(mutant_count) < 0.15
    twins = (rng.random(mutant_count) * mutant_count).astype(int)
    kills[twinned] = kills[twins[twinned]]
    test_ids = tuple(f"t{j:03d}" for j in np.argsort(rng.random(test_count)))
    mutant_ids = tuple(f"m{i:03d}" for i in range(mutant_count))
    return KillMatrix(bug_id=f"g{seed}", mutant_ids=mutant_ids,
                      test_ids=test_ids, kills=kills)


# sha256 of [order, step_kills, step_pairs] as JSON, recorded from the
# earlier kernel that tracked distinguished pairs in an M x M matrix.
GOLDEN_DIGESTS = {
    ((120, 60), "GRK"): "216fa2fcc99a05c147b929a3b5e18e76c9006f6b46c31785ebe68e14969ccb4f",
    ((120, 60), "GRD"): "c6f1d34b67e21216afb0ead64b644440ca47f5a73a47d736ccb2a4ecd1ac56d3",
    ((120, 60), "HYB(0.3)"): "6135a0eea09c68c46aa02b9b8d9061662a6b867f3909e948c7a05e432346fde1",
    ((120, 60), "HYB(0.5)"): "c2b3a0fc3b7432d630e3487a526f65d075c1ffa65fa15b44c9df1c81acd4225b",
    ((280, 180), "GRK"): "3401f4849d9c9d57bc6751563728ac30ab31068afbdef44fb4529c6d4a23ff20",
    ((280, 180), "GRD"): "26f1b6c42caf9d72b126b958ad6e0118c37f34b2e51024ea434db81f94666704",
    ((280, 180), "HYB(0.3)"): "c4f9a6b9fcf795ee094959f2a5b3ec4f2677a9141cdb5b40aad2b1fc0228cf91",
    ((280, 180), "HYB(0.5)"): "721b0f8757233280ce9625bdd063ab34baf068d158db90888c02223f422be25c",
    # Recorded from the kernel that recounted every class's pair gains
    # on each step, before gains were updated incrementally.
    ((80, 40), "GRK"): "7aa681fef55bf26589dbb4e383484907b02a1e932b3257329c7fb5178dc31556",
    ((80, 40), "GRD"): "c38ab3e9cf5cb756e7f23a3734f24ff28d35ddaab024eca27fc27de8a058d28c",
    ((80, 40), "HYB(0.3)"): "2e5af4483c7a2a816474e70422aecb7be41b1969bcb468614001e4ff135fb257",
    ((80, 40), "HYB(0.5)"): "dc6923c374498094cb6c8219b7ef4d651c824b9211e7ab88659f388360d27d90",
    ((160, 90), "GRK"): "981992ef6ef51f30c200048d93a01427ed6a7cd7f2b5b143e811ff844f333023",
    ((160, 90), "GRD"): "71157c9017fdb49712b590e56073bb8e0e1d920813b791f776af9ffc95aeada4",
    ((160, 90), "HYB(0.3)"): "260bdd61584c5075c8d182b563757bdac6d17955060094d7c1ab66d1bfcaf419",
    ((160, 90), "HYB(0.5)"): "d962635250d199830059bbf49cc2fd6fe8c1a2792870cb2833af338e6eed63f2",
    ((240, 150), "GRK"): "a443d57d0cc913449fea214e60381acb038d40befce3d5426e205dc32bbdbea0",
    ((240, 150), "GRD"): "3be727b8a0807af00f359e342f839ac2f679c5d4825fc943e2bf14b09730be28",
    ((240, 150), "HYB(0.3)"): "61ec3e77abe3b854c130bb1a22d0fb9ec794ce7def82ad297998383877cb4f6f",
    ((240, 150), "HYB(0.5)"): "61ec3e77abe3b854c130bb1a22d0fb9ec794ce7def82ad297998383877cb4f6f",
}

GOLDEN_STRATEGIES = {
    "GRK": grk,
    "GRD": grd,
    "HYB(0.3)": lambda matrix: hyb(matrix, 0.3),
    "HYB(0.5)": lambda matrix: hyb(matrix, 0.5),
}


class TestGrkHandCases:
    def test_identity_matrix_orders_by_id(self):
        table = {"m1": {"t1"}, "m2": {"t2"}}
        suite = grk(matrix_from_table(table, ["t1", "t2"]))
        assert suite.order == ("t1", "t2")
        assert suite.step_kills == (1, 1)
        assert suite.strategy == "GRK"

    def test_test_killing_all_mutants_goes_first(self):
        table = {"m1": {"t1", "t2"}, "m2": {"t2"}, "m3": {"t2", "t3"}}
        suite = grk(matrix_from_table(table, ["t1", "t2", "t3"]))
        assert suite.order[0] == "t2"
        assert suite.step_kills[0] == 3

    def test_all_zero_matrix_falls_back_to_id_order(self):
        table = {"m1": set(), "m2": set()}
        suite = grk(matrix_from_table(table, ["t3", "t1", "t2"]))
        assert suite.order == ("t1", "t2", "t3")
        assert suite.step_kills == (0, 0, 0)
        assert suite.step_pairs == (0, 0, 0)

    def test_saturation_resets_and_continues(self):
        # Both tests kill only m1; after t1 saturates coverage the
        # covered set resets, so t2's audited gain is 1, not 0.
        table = {"m1": {"t1", "t2"}}
        suite = grk(matrix_from_table(table, ["t1", "t2"]))
        assert suite.order == ("t1", "t2")
        assert suite.step_kills == (1, 1)

    def test_tie_break_uses_id_not_column_position(self):
        table = {"m1": {"t1"}, "m2": {"t2"}}
        suite = grk(matrix_from_table(table, ["t2", "t1"]))
        assert suite.order == ("t1", "t2")


class TestGrdHandCases:
    def test_splitting_test_beats_kill_heavy_test(self):
        table = {"m1": {"t1", "t2"}, "m2": {"t2"}}
        by_pairs = grd(matrix_from_table(table, ["t1", "t2"]))
        by_kills = grk(matrix_from_table(table, ["t1", "t2"]))
        assert by_pairs.order == ("t1", "t2")
        assert by_kills.order == ("t2", "t1")

    def test_identical_rows_yield_no_pairs(self):
        table = {"m1": {"t1"}, "m2": {"t1"}}
        suite = grd(matrix_from_table(table, ["t1", "t2"]))
        assert suite.order == ("t1", "t2")
        assert suite.step_pairs == (0, 0)
        assert suite.strategy == "GRD"

    def test_constructed_matrix_where_grd_differs_from_grk(self):
        table = {"m1": {"t1", "t2"}, "m2": {"t1", "t3"}, "m3": {"t1"}}
        tests = ["t1", "t2", "t3"]
        kill_order = grk(matrix_from_table(table, tests))
        pair_order = grd(matrix_from_table(table, tests))
        assert kill_order.order == ("t1", "t2", "t3")
        assert kill_order.step_kills == (3, 1, 1)
        assert pair_order.order == ("t2", "t3", "t1")
        assert pair_order.step_pairs == (2, 1, 0)
        assert kill_order.order != pair_order.order

    def test_saturation_resets_pair_state(self):
        table = {"m1": {"t1"}, "m2": {"t2"}}
        suite = grd(matrix_from_table(table, ["t1", "t2"]))
        assert suite.order == ("t1", "t2")
        assert suite.step_pairs == (1, 1)


class TestHyb:
    def test_rejects_out_of_range_weights(self):
        matrix = matrix_from_table({"m1": {"t1"}}, ["t1"])
        with pytest.raises(TcpError):
            hyb(matrix, weight=-0.1)
        with pytest.raises(TcpError):
            hyb(matrix, weight=1.5)

    def test_default_weight_and_label(self):
        matrix = matrix_from_table({"m1": {"t1"}}, ["t1"])
        suite = hyb(matrix)
        assert DEFAULT_HYB_WEIGHT == 0.5
        assert suite.strategy == "HYB(0.5)"

    def test_weight_one_matches_grk_on_random_matrices(self):
        rng = random.Random(401)
        for _ in range(100):
            table, tests = random_kill_table(rng, max_mutants=10, max_tests=10)
            matrix = matrix_from_table(table, tests)
            assert hyb(matrix, weight=1.0).order == grk(matrix).order

    def test_weight_zero_matches_grd_on_random_matrices(self):
        rng = random.Random(402)
        for _ in range(100):
            table, tests = random_kill_table(rng, max_mutants=10, max_tests=10)
            matrix = matrix_from_table(table, tests)
            assert hyb(matrix, weight=0.0).order == grd(matrix).order

    def test_orders_are_total_permutations(self):
        rng = random.Random(403)
        for _ in range(50):
            table, tests = random_kill_table(rng, max_mutants=8, max_tests=8)
            matrix = matrix_from_table(table, tests)
            for suite in (grk(matrix), grd(matrix), hyb(matrix, 0.3)):
                assert sorted(suite.order) == sorted(tests)


class TestGreedyAgainstOracle:
    def test_grk_matches_naive_replay(self):
        rng = random.Random(411)
        for _ in range(150):
            table, tests = random_kill_table(rng, max_mutants=8, max_tests=8)
            suite = grk(matrix_from_table(table, tests))
            order, kill_audit, _ = oracle_greedy(table, tests, "grk")
            assert list(suite.order) == order
            assert list(suite.step_kills) == kill_audit

    def test_grd_matches_naive_replay(self):
        rng = random.Random(412)
        for _ in range(150):
            table, tests = random_kill_table(rng, max_mutants=8, max_tests=8)
            suite = grd(matrix_from_table(table, tests))
            order, _, pair_audit = oracle_greedy(table, tests, "grd")
            assert list(suite.order) == order
            assert list(suite.step_pairs) == pair_audit

    def test_hyb_matches_naive_replay(self):
        rng = random.Random(413)
        for _ in range(100):
            table, tests = random_kill_table(rng, max_mutants=8, max_tests=8)
            weight = rng.choice([0.25, 0.5, 0.75])
            suite = hyb(matrix_from_table(table, tests), weight=weight)
            order, _, _ = oracle_greedy(table, tests, "hyb", weight=weight)
            assert list(suite.order) == order

    def test_every_step_is_greedy_optimal(self):
        # Replaying the audit trail: each chosen test's gain must be
        # maximal among the tests still unscheduled at that step.
        rng = random.Random(414)
        for _ in range(60):
            table, tests = random_kill_table(rng, max_mutants=6, max_tests=6)
            suite = grk(matrix_from_table(table, tests))
            covered = set()
            remaining = set(tests)
            for test, gain in zip(suite.order, suite.step_kills):
                best = max(additional_kills(table, t, covered) for t in remaining)
                if best == 0 and covered:
                    covered = set()
                    best = max(additional_kills(table, t, covered) for t in remaining)
                assert additional_kills(table, test, covered) == best == gain
                remaining.remove(test)
                for mutant, killed_by in table.items():
                    if test in killed_by:
                        covered.add(mutant)


class TestGreedyProperties:
    @settings(max_examples=80, deadline=None)
    @given(structured_tables(), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_strategies_match_oracle_on_structured_tables(self, case, weight):
        assert_matches_oracle(*case, weight)

    def test_tests_over_zero_mutants_order_by_id(self):
        # Enough tests that the chosen columns are compacted away.
        tests = [f"t{j:02d}" for j in range(50)]
        matrix = matrix_from_table({}, random.Random(431).sample(tests, 50))
        for suite in (grk(matrix), grd(matrix), hyb(matrix, 0.3)):
            assert suite.order == tuple(tests)
            assert suite.step_kills == suite.step_pairs == (0,) * 50


class TestGreedyBookkeeping:
    """Paths of the greedy that few random matrices reach: one pick that
    kills every mutant not yet killed, and chosen columns compacted away."""

    def test_first_pick_kills_every_mutant_then_the_state_resets(self):
        table = {"m0": {"t0", "t1"}, "m1": {"t0", "t2"}, "m2": {"t0", "t2"},
                 "m3": {"t0"}}
        tests = ["t3", "t2", "t1", "t0"]
        suite = grk(matrix_from_table(table, tests))
        assert suite.order == ("t0", "t2", "t1", "t3")
        assert suite.step_kills == (4, 2, 1, 0)
        assert suite.step_pairs == (0, 4, 1, 0)
        for weight in (0.3, 0.9):
            assert_matches_oracle(table, tests, weight)

    def test_no_test_splits_a_pair_and_the_first_kills_everything(self):
        table = {"m0": {"t0", "t1"}, "m1": {"t0", "t1"}, "m2": {"t0", "t1"}}
        tests = ["t2", "t1", "t0"]
        suite = grd(matrix_from_table(table, tests))
        assert suite.order == ("t0", "t1", "t2")
        assert suite.step_kills == (3, 3, 0)
        assert suite.step_pairs == (0, 0, 0)
        assert_matches_oracle(table, tests)

    @settings(max_examples=30, deadline=None)
    @given(wide_tables(), st.sampled_from([0.3, 0.5]))
    def test_wide_tables_match_oracle(self, case, weight):
        table, tests = case
        assert_matches_oracle(table, tests, weight)
        matrix = matrix_from_table(table, tests)
        assert hyb(matrix, 1.0) == replace(grk(matrix), strategy="HYB(1)")
        assert hyb(matrix, 0.0) == replace(grd(matrix), strategy="HYB(0)")


class TestGoldenOrders:
    @pytest.mark.parametrize(("shape", "strategy"), sorted(GOLDEN_DIGESTS))
    def test_orders_and_audits_are_byte_identical(self, shape, strategy):
        suite = GOLDEN_STRATEGIES[strategy](golden_matrix(sum(shape), *shape))
        payload = json.dumps([list(suite.order), list(suite.step_kills),
                              list(suite.step_pairs)])
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGESTS[shape, strategy]


class TestPrioritizedSuiteValidation:
    def test_rejects_duplicate_test_ids(self):
        with pytest.raises(TcpError):
            PrioritizedSuite(strategy="GRK", order=("t1", "t1"),
                             step_kills=(1, 0), step_pairs=(0, 0))

    def test_rejects_misaligned_audit_trails(self):
        with pytest.raises(TcpError):
            PrioritizedSuite(strategy="GRK", order=("t1", "t2"),
                             step_kills=(1,), step_pairs=(0, 0))

    def test_rejects_empty_matrix(self):
        matrix = KillMatrix(bug_id="b", mutant_ids=(), test_ids=(),
                            kills=np.zeros((0, 0), dtype=bool))
        with pytest.raises(TcpError):
            grk(matrix)


class TestApfd:
    def test_hand_worked_value(self):
        order = ("t1", "t2", "t3", "t4", "t5")
        detection = {"b1": {"t1"}, "b2": {"t3"}}
        assert apfd(order, detection) == pytest.approx(0.7)

    def test_single_test_single_bug(self):
        assert apfd(("t1",), {"b1": {"t1"}}) == pytest.approx(0.5)

    def test_maximum_when_first_test_detects_everything(self):
        order = tuple(f"t{k}" for k in range(1, 9))
        detection = {f"b{k}": {"t1"} for k in range(3)}
        assert apfd(order, detection) == pytest.approx(1 - 1 / 16)

    def test_minimum_when_last_test_detects_everything(self):
        order = tuple(f"t{k}" for k in range(1, 9))
        detection = {f"b{k}": {"t8"} for k in range(3)}
        assert apfd(order, detection) == pytest.approx(1 / 16)

    def test_earlier_detection_scores_higher(self):
        detection = {"b1": {"t3"}}
        early = apfd(("t3", "t1", "t2"), detection)
        late = apfd(("t1", "t2", "t3"), detection)
        assert early > late

    def test_matches_oracle_and_bounds_on_random_inputs(self):
        rng = random.Random(421)
        for _ in range(200):
            n = rng.randint(1, 12)
            order = [f"t{k:02d}" for k in range(n)]
            rng.shuffle(order)
            detection = {
                f"b{i}": set(rng.sample(order, rng.randint(1, n)))
                for i in range(rng.randint(1, 5))
            }
            value = apfd(tuple(order), detection)
            assert value == pytest.approx(oracle_apfd(order, detection))
            eps = 1e-9
            assert 1 / (2 * n) - eps <= value <= 1 - 1 / (2 * n) + eps

    def test_detecting_tests_outside_order_are_ignored(self):
        value = apfd(("t1", "t2"), {"b1": {"t9", "t2"}})
        assert value == pytest.approx(1 - 2 / 2 + 1 / 4)

    def test_undetected_bug_raises(self):
        with pytest.raises(TcpError, match="not detected"):
            apfd(("t1",), {"b1": {"t9"}})

    def test_empty_inputs_raise(self):
        with pytest.raises(TcpError):
            apfd((), {"b1": {"t1"}})
        with pytest.raises(TcpError):
            apfd(("t1",), {})
