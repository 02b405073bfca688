import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

import stosub as ss
from conftest import make_modular
from helpers import direct_set_value
from stosub import fileio, harness

PINNED = Path(__file__).parent / "data" / "pinned_rounding.json"


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


def _exact_marginals(items, dist):
    return {item: sum(w for chosen, w in dist if item in chosen) for item in items}


def _exact_mean(inst, dist):
    return sum(w * direct_set_value(inst, chosen) for chosen, w in dist)


DYADIC_CASES = [
    ("uniform-2", ss.UniformMatroid(rank=2), (0.5, 0.25, 0.75, 0.5)),
    ("uniform-1", ss.UniformMatroid(rank=1), (0.25, 0.125, 0.5, 0.125)),
    ("uniform-3", ss.UniformMatroid(rank=3), (0.375, 0.625, 0.75, 0.25)),
    ("under-cap", ss.UniformMatroid(rank=2), (0.5, 0.25, 0.25, 0.0)),
    (
        "partition",
        ss.PartitionMatroid(blocks=(("e1", "e3"), ("e2", "e4")), capacities=(1, 1)),
        (0.75, 0.5, 0.25, 0.5),
    ),
]
dyadic_points = pytest.mark.parametrize(
    "constraint, values", [c[1:] for c in DYADIC_CASES], ids=[c[0] for c in DYADIC_CASES]
)


class TestExactDistribution:
    @pytest.fixture
    def inst(self):
        return ss.generate_common_cause(4, 2, 4, seed=2)

    @dyadic_points
    def test_dyadic_point_is_exact(self, inst, constraint, values):
        y = ss.FractionalPoint(inst.items, values)
        dist = ss.exact_distribution(inst, constraint, y)
        assert sum(w for _, w in dist) == 1
        assert all(isinstance(w, Fraction) and w > 0 for _, w in dist)
        assert _exact_marginals(inst.items, dist) == {
            item: Fraction(v) for item, v in zip(inst.items, values)
        }
        assert len({chosen for chosen, _ in dist}) == len(dist)
        assert all(ss.is_feasible(constraint, chosen) for chosen, _ in dist)
        assert _exact_mean(inst, dist) >= ss.multilinear_value(inst, y) - 1e-9

    @dyadic_points
    def test_sampled_mean_agrees_with_exact_mean(self, inst, constraint, values):
        y = ss.FractionalPoint(inst.items, values)
        exact = float(_exact_mean(inst, ss.exact_distribution(inst, constraint, y)))
        n = 2000
        draws = [
            ss.expected_set_value(inst, ss.pipage_round(inst, constraint, y, seed))
            for seed in range(n)
        ]
        se = statistics.stdev(draws) / math.sqrt(n)
        assert abs(statistics.fmean(draws) - exact) <= 4 * se + 1e-12

    def test_full_group_rounds_its_leftover_down(self, inst):
        # The sum exceeds the cap by less than the membership tolerance, and
        # the leftover is too large to snap: a draw could break the cap.
        y = ss.FractionalPoint(inst.items, (1.0, 5e-10, 0.0, 0.0))
        constraint = ss.UniformMatroid(rank=1)
        assert ss.exact_distribution(inst, constraint, y) == [(frozenset({"e1"}), 1)]
        assert ss.pipage_round(inst, constraint, y, 0) == {"e1"}

    def test_integral_point_is_one_leaf(self, inst):
        y = ss.FractionalPoint(inst.items, (1.0, 0.0, 1.0, 0.0))
        dist = ss.exact_distribution(inst, ss.UniformMatroid(rank=2), y)
        assert dist == [(frozenset({"e1", "e3"}), 1)]

    @pytest.mark.parametrize(
        "generator, constraint",
        [
            (lambda: ss.generate_common_cause(4, 2, 4, 1002), ss.UniformMatroid(rank=2)),
            (lambda: ss.generate_product(4, states_per_item=2, seed=1002),
             ss.UniformMatroid(rank=2)),
            (lambda: ss.generate_product(4, states_per_item=2, seed=26),
             ss.PartitionMatroid(blocks=(("e1", "e2"), ("e3", "e4")), capacities=(1, 1))),
        ],
        ids=["cc-s1002", "product-s1002", "product-s26-partition"],
    )
    def test_greedy_endpoint(self, generator, constraint):
        inst = generator()
        y = ss.run(inst, constraint, ss.GreedyConfig(delta=0.05)).final
        assert any(1e-9 < v < 1 - 1e-9 for v in y.values)
        dist = ss.exact_distribution(inst, constraint, y)
        assert sum(w for _, w in dist) == 1
        assert all(ss.is_feasible(constraint, chosen) for chosen, _ in dist)
        # Ascent sums are not exact: a group can sum to one ulp over its cap,
        # and the rounding snaps coordinates within 1e-12 of 0 or 1 before it
        # starts, so the marginals only match y to that tolerance.
        marginals = _exact_marginals(inst.items, dist)
        for item, v in zip(y.items, y.values):
            assert abs(marginals[item] - Fraction(v)) <= 1e-12
        assert _exact_mean(inst, dist) >= ss.multilinear_value(inst, y) - 1e-9

    @pytest.mark.parametrize(
        "constraint",
        [
            ss.Knapsack(costs=(("a", 1.0), ("b", 1.0)), budget=1.0),
            ss.ExplicitFamily(feasible_sets=((), ("a",), ("b",))),
        ],
        ids=["knapsack", "explicit"],
    )
    def test_rejects_non_matroid_kinds(self, cc2, constraint):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.0))
        with pytest.raises(ss.UnsupportedKindError):
            ss.exact_distribution(cc2, constraint, y)


PINNED_CASES = json.loads(PINNED.read_text())["cases"]


@pytest.mark.parametrize(
    "case",
    PINNED_CASES,
    ids=[
        f"m{c['instance']['m']}-{c['constraint']['kind']}-{i}"
        for i, c in enumerate(PINNED_CASES)
    ],
)
def test_pinned_rounded_sets(case):
    """``pipage_round`` keeps the sets it drew when each draw was taken one
    at a time from the scalar SplitMix64 output: 25 seeds per point, the
    points random, on a matroid face, on a 0.05 grid, or within 1e-12 of 0
    and 1, over uniform and partition matroids at m = 2-6."""
    inst = harness.InstanceSpec(**case["instance"]).resolve()
    constraint = fileio.constraint_from_dict(case["constraint"])
    y = ss.FractionalPoint(inst.items, tuple(case["point"]))
    got = [sorted(ss.pipage_round(inst, constraint, y, s)) for s in case["seeds"]]
    assert got == case["sets"]
