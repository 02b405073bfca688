import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

import stosub as ss
from conftest import make_modular
from helpers import direct_set_value, reference_swap_round
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
        marginals = _exact_marginals(inst.items, dist)
        for item, v in zip(y.items, y.exact):
            assert marginals[item] == v
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


def _sweep_instance(generator: str, m: int, seed: int) -> ss.Instance:
    if generator == "product":
        return ss.generate_product(m, states_per_item=2, seed=seed)
    return ss.generate_common_cause(m, 2, 4, seed)


class TestExactEndpoint:
    """The ascent's endpoint is exact, so the walk starts on the face the
    ascent reached and never leaves it."""

    def test_found_instance_sits_on_its_face(self):
        # Float ascent sums ended this run one ulp below the rank, and the
        # exact distribution then weighed the non-basis {e1}.
        inst = ss.generate_common_cause(4, 2, 4, 1002)
        constraint = ss.UniformMatroid(rank=2)
        y = ss.run(inst, constraint, ss.GreedyConfig()).final
        assert sum(y.exact) == 2
        support = {chosen for chosen, _ in ss.exact_distribution(inst, constraint, y)}
        assert all(len(chosen) == 2 for chosen in support)
        drawn = {ss.pipage_round(inst, constraint, y, seed) for seed in range(2000)}
        assert drawn <= support

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("generator", ["common-cause", "product"])
    def test_endpoints_sum_to_the_rank(self, generator, m, k):
        constraint = ss.UniformMatroid(rank=k)
        for seed in range(20):
            inst = _sweep_instance(generator, m, seed)
            y = ss.run(inst, constraint, ss.GreedyConfig()).final
            assert sum(y.exact) == k, seed
            dist = ss.exact_distribution(inst, constraint, y)
            assert _exact_marginals(inst.items, dist) == dict(zip(y.items, y.exact))


def _rational_point(rng, groups, m: int, denominator: int) -> tuple:
    """Random multiples of 1 / ``denominator``, each group scaled down to
    its cap when over it: exact rationals inside the polytope."""
    x = [Fraction(rng.randint(0, denominator), denominator) for _ in range(m)]
    for group, cap in groups:
        total = sum(x[i] for i in group)
        if total > cap:
            for i in group:
                x[i] = x[i] * cap / total
    return tuple(x)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_walk_matches_the_fraction_reference(m):
    """``pipage_round`` draws set for set what the ``Fraction`` walk draws,
    on float points, on non-dyadic rational points and on ascent endpoints."""
    rng = random.Random(m)
    inst = ss.generate_common_cause(m, 2, 4, m)
    half = m // 2
    constraints = [
        ss.UniformMatroid(rank=1),
        ss.UniformMatroid(rank=half),
        ss.PartitionMatroid(
            blocks=(inst.items[:half], inst.items[half:]), capacities=(1, 1)
        ),
    ]
    for constraint in constraints:
        groups = constraint.rounding_groups(inst.items)
        points = [
            _rational_point(rng, groups, m, denominator)
            for denominator in (3, 7, 10, 1_000_003)
        ]
        points.append(tuple(map(float, _rational_point(rng, groups, m, 2**40))))
        endpoint = ss.run(inst, constraint, ss.GreedyConfig()).final
        for y in [ss.FractionalPoint(inst.items, p) for p in points] + [endpoint]:
            coords = dict(zip(y.items, y.exact))
            for seed in range(40):
                assert ss.pipage_round(inst, constraint, y, seed) == (
                    reference_swap_round(inst, constraint, coords, seed)
                ), (constraint, y.exact, seed)


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
    and 1, over uniform and partition matroids at m = 2-6.  The sets are
    those of the exact walk: a coordinate of 1e-13 takes its own draw, and
    a 0.05-grid point whose exact sum falls an ulp short of an integer
    keeps a fractional coordinate to close."""
    inst = harness.InstanceSpec(**case["instance"]).resolve()
    constraint = fileio.constraint_from_dict(case["constraint"])
    y = ss.FractionalPoint(inst.items, tuple(case["point"]))
    got = [sorted(ss.pipage_round(inst, constraint, y, s)) for s in case["seeds"]]
    assert got == case["sets"]
