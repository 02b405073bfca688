import math
import statistics

import pytest

import stosub as ss
from conftest import make_modular


class TestIndependentRound:
    def test_zero_point_always_empty(self):
        y = ss.FractionalPoint(("a", "b"), (0.0, 0.0))
        assert all(ss.independent_round(y, s) == frozenset() for s in range(20))

    def test_ones_point_always_full(self):
        y = ss.FractionalPoint(("a", "b"), (1.0, 1.0))
        assert all(
            ss.independent_round(y, s) == frozenset({"a", "b"}) for s in range(20)
        )

    def test_inclusion_frequencies(self):
        y = ss.FractionalPoint(("a", "b", "c"), (0.3, 0.3, 0.3))
        n = 10_000
        counts = {item: 0 for item in y.items}
        for seed in range(n):
            for item in ss.independent_round(y, seed):
                counts[item] += 1
        sigma = math.sqrt(0.3 * 0.7 / n)
        for item in y.items:
            assert abs(counts[item] / n - 0.3) <= 4 * sigma


class TestPipageRound:
    def test_integral_point_unchanged(self, cc2):
        y = ss.FractionalPoint(cc2.items, (1.0, 0.0))
        for seed in range(10):
            assert ss.pipage_round(cc2, ss.UniformMatroid(rank=1), y, seed) == {
                "a"
            }

    def test_half_half_rank_one_is_fair(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        n = 4000
        hits = sum(
            1
            for seed in range(n)
            if ss.pipage_round(cc2, ss.UniformMatroid(rank=1), y, seed) == {"a"}
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 4 * sigma

    def test_always_feasible(self):
        inst = make_modular({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
        constraint = ss.UniformMatroid(rank=2)
        y = ss.FractionalPoint(inst.items, (0.7, 0.6, 0.4, 0.3))
        for seed in range(500):
            assert ss.is_feasible(constraint, ss.pipage_round(inst, constraint, y, seed))

    def test_partition_always_feasible(self):
        inst = make_modular({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
        constraint = ss.PartitionMatroid(
            blocks=(("a", "b"), ("c", "d")), capacities=(1, 1)
        )
        y = ss.FractionalPoint(inst.items, (0.5, 0.5, 0.8, 0.2))
        for seed in range(500):
            chosen = ss.pipage_round(inst, constraint, y, seed)
            assert ss.is_feasible(constraint, chosen)

    def test_marginals_preserved(self):
        inst = make_modular({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
        constraint = ss.UniformMatroid(rank=2)
        y = ss.FractionalPoint(inst.items, (0.7, 0.6, 0.4, 0.3))
        n = 20_000
        counts = {item: 0 for item in inst.items}
        for seed in range(n):
            for item in ss.pipage_round(inst, constraint, y, seed):
                counts[item] += 1
        for item, target in zip(inst.items, y.values):
            sigma = math.sqrt(target * (1 - target) / n)
            assert abs(counts[item] / n - target) <= 4 * sigma

    @pytest.mark.parametrize("seed_base", [0])
    def test_expected_value_dominates_extension(self, seed_base):
        inst = ss.generate_common_cause(4, 2, 4, seed=2)
        constraint = ss.UniformMatroid(rank=2)
        y = ss.FractionalPoint(inst.items, (0.55, 0.45, 0.6, 0.4))
        n = 20_000
        values = [
            ss.expected_set_value(inst, ss.pipage_round(inst, constraint, y, s))
            for s in range(seed_base, seed_base + n)
        ]
        mean = statistics.fmean(values)
        se = statistics.stdev(values) / math.sqrt(n)
        assert mean >= ss.multilinear_value(inst, y) - 4 * se

    def test_rejects_point_outside_polytope(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.9, 0.9))
        with pytest.raises(ss.InputError):
            ss.pipage_round(cc2, ss.UniformMatroid(rank=1), y, 0)

    def test_rejects_non_matroid_kind(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.0))
        knapsack = ss.Knapsack(costs=(("a", 1.0), ("b", 1.0)), budget=1.0)
        with pytest.raises(ss.UnsupportedKindError):
            ss.pipage_round(cc2, knapsack, y, 0)

    def test_partition_block_names_unknown_item(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        constraint = ss.PartitionMatroid(
            blocks=(("a", "zz"), ("b",)), capacities=(1, 1)
        )
        with pytest.raises(ss.InputError, match="zz"):
            ss.pipage_round(cc2, constraint, y, 0)

    def test_deterministic_given_seed(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        constraint = ss.UniformMatroid(rank=1)
        assert ss.pipage_round(cc2, constraint, y, 42) == ss.pipage_round(
            cc2, constraint, y, 42
        )
