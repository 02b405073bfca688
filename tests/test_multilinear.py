import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stosub as ss
from stosub import model, multilinear
from conftest import make_modular
from helpers import (
    direct_multilinear,
    direct_set_value,
    per_item_weight_estimate,
)


def grid_points(instance, count, seed):
    import random

    rng = random.Random(seed)
    points = []
    for _ in range(count):
        points.append(
            ss.FractionalPoint(
                tuple(instance.items),
                tuple(rng.random() for _ in instance.items),
            )
        )
    return points


def _with(x, item, value):
    """``x`` with the coordinate of ``item`` set to ``value``."""
    return ss.FractionalPoint.from_dict({**x.as_dict(), item: value})


class TestExactValue:
    def test_zero_point(self, cc2):
        assert ss.multilinear_value(cc2, ss.FractionalPoint.zeros(cc2.items)) == 0.0

    def test_all_ones_is_full_set(self, cc2):
        ones = ss.FractionalPoint(cc2.items, (1.0, 1.0))
        assert ss.multilinear_value(cc2, ones) == ss.expected_set_value(
            cc2, set(cc2.items)
        )

    def test_indicator_reproduces_set_value_exactly(self, product3):
        for mask in range(8):
            chosen = {product3.items[i] for i in range(3) if mask >> i & 1}
            x = ss.FractionalPoint(
                product3.items,
                tuple(1.0 if i in chosen else 0.0 for i in product3.items),
            )
            assert ss.multilinear_value(product3, x) == ss.expected_set_value(
                product3, chosen
            )

    def test_modular_linearity(self, modular3):
        x = ss.FractionalPoint(modular3.items, (0.25, 0.5, 0.75))
        expected = 0.25 * 5.0 + 0.5 * 3.0 + 0.75 * 1.0
        assert ss.multilinear_value(modular3, x) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_double_enumeration(self, seed):
        inst = ss.generate_common_cause(3, 2, 3, seed)
        for x in grid_points(inst, 4, seed):
            got = ss.multilinear_value(inst, x)
            want = direct_multilinear(inst, x.as_dict())
            assert got == pytest.approx(want, abs=1e-12)

    def test_capacity(self, monkeypatch):
        """The evaluator's full table owns the cap: both exact kernels stop
        before any table is built."""
        inst = make_modular({f"i{k:02d}": 1.0 for k in range(17)})

        def refuse(*args):
            raise AssertionError("value table built above the exact cap")

        for builder in ("_transform", "_row_sums", "_numerators"):
            monkeypatch.setattr(model._Evaluator, builder, refuse)
        x = ss.FractionalPoint.zeros(inst.items)
        for kernel in (ss.multilinear_value, ss.optimistic_weights):
            with pytest.raises(
                ss.CapacityError,
                match="exact enumeration over 17 items exceeds the cap 16",
            ):
                kernel(inst, x)

    def test_monotone_in_each_coordinate(self, cc2):
        base = ss.FractionalPoint(cc2.items, (0.3, 0.6))
        for item in cc2.items:
            lower = ss.multilinear_value(cc2, base)
            higher = ss.multilinear_value(cc2, _with(base, item, 0.9))
            assert higher >= lower - 1e-12


class TestEstimate:
    def test_indicator_is_exact_with_zero_error(self, cc2):
        x = ss.FractionalPoint(cc2.items, (1.0, 0.0))
        est = ss.multilinear_estimate(cc2, x, sample_count=50, seed=3)
        assert est.mean == ss.expected_set_value(cc2, {"a"})
        assert est.std_error == 0.0

    def test_zero_point(self, cc2):
        est = ss.multilinear_estimate(
            cc2, ss.FractionalPoint.zeros(cc2.items), sample_count=10, seed=0
        )
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_unbiased_against_exact(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        exact = ss.multilinear_value(cc2, x)
        means, ses = [], []
        for seed in range(100):
            est = ss.multilinear_estimate(cc2, x, sample_count=200, seed=seed)
            means.append(est.mean)
            ses.append(est.std_error)
        grand = sum(means) / len(means)
        combined = math.sqrt(sum(se**2 for se in ses)) / len(ses)
        assert abs(grand - exact) <= 4 * combined

    def test_reproducible(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.4, 0.7))
        a = ss.multilinear_estimate(cc2, x, 100, seed=9)
        b = ss.multilinear_estimate(cc2, x, 100, seed=9)
        assert a == b
        c = ss.multilinear_estimate(cc2, x, 100, seed=10)
        assert c.mean != a.mean or c.std_error != a.std_error


class TestWeights:
    def test_standard_zero_when_saturated(self, cc2):
        x = ss.FractionalPoint(cc2.items, (1.0, 0.4))
        assert ss.standard_weight(cc2, x, "a") == 0.0

    def test_zero_point_weights_are_singletons(self, cc2):
        zeros = ss.FractionalPoint.zeros(cc2.items)
        for item in cc2.items:
            expected = ss.expected_set_value(cc2, {item})
            assert ss.standard_weight(cc2, zeros, item) == pytest.approx(expected)
            assert ss.optimistic_weight(cc2, zeros, item) == pytest.approx(expected)

    def test_optimistic_equals_standard_at_zero_coordinate(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.0, 0.8))
        assert ss.optimistic_weight(cc2, x, "a") == ss.standard_weight(cc2, x, "a")

    def test_excision_at_saturated_coordinate(self, cc2):
        x = ss.FractionalPoint(cc2.items, (1.0, 0.0))
        assert ss.optimistic_weight(cc2, x, "a") == ss.expected_set_value(cc2, {"a"})
        assert ss.standard_weight(cc2, x, "a") == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_dominance_and_excision_identity(self, seed):
        inst = ss.generate_common_cause(3, 2, 4, seed)
        for x in grid_points(inst, 5, seed + 100):
            for item in inst.items:
                optimistic = ss.optimistic_weight(inst, x, item)
                standard = ss.standard_weight(inst, x, item)
                assert optimistic >= standard - 1e-12
                assert standard == pytest.approx(
                    (1.0 - x.value_of(item)) * optimistic, abs=1e-12
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_standard_weight_matches_value_difference(self, seed):
        inst = ss.generate_product(3, states_per_item=2, seed=seed)
        for x in grid_points(inst, 4, seed):
            for item in inst.items:
                oracle = ss.multilinear_value(
                    inst, _with(x, item, 1.0)
                ) - ss.multilinear_value(inst, x)
                assert ss.standard_weight(inst, x, item) == pytest.approx(
                    oracle, abs=1e-12
                )

    def test_optimistic_weight_matches_zeroed_difference(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.6, 0.3))
        for item in cc2.items:
            zeroed = _with(x, item, 0.0)
            oracle = ss.multilinear_value(
                cc2, _with(x, item, 1.0)
            ) - ss.multilinear_value(cc2, zeroed)
            assert ss.optimistic_weight(cc2, x, item) == pytest.approx(
                oracle, abs=1e-12
            )


class TestSampleSchedule:
    def test_plug_in(self):
        assert ss.estimation_sample_count(1.0, 1) == 10

    def test_schedule_step_for_two_items(self):
        # ceil(10 * 36**2 * (1 + ln 2)) = ceil(21943.187...) = 21944
        delta = 1.0 / (9 * 2 * 2)
        assert ss.estimation_sample_count(delta, 2) == 21944

    def test_tenth_step_four_items(self):
        assert ss.estimation_sample_count(0.1, 4) == 2387

    def test_single_item_ninth(self):
        assert ss.estimation_sample_count(1.0 / 9.0, 1) == 810

    def test_rejects_bad_delta(self):
        with pytest.raises(ss.InputError):
            ss.estimation_sample_count(0.0, 3)


class TestOptimisticEstimate:
    def test_deterministic_point_is_exact(self, cc2):
        x = ss.FractionalPoint(cc2.items, (1.0, 0.0))
        est = ss.optimistic_weight_estimate(cc2, x, "a", 40, seed=5)
        assert est.mean == ss.expected_set_value(cc2, {"a"})
        assert est.std_error == 0.0

    def test_unbiased_against_exact(self):
        # Every item's estimate comes from the same draws; each one on its own
        # must still center on its exact weight.
        inst = ss.generate_common_cause(4, 3, 8, seed=2)
        x = ss.FractionalPoint(inst.items, (0.5, 0.2, 0.7, 0.4))
        runs = [ss.optimistic_weight_estimates(inst, x, 150, s) for s in range(100)]
        for j, item in enumerate(inst.items):
            exact = ss.optimistic_weight(inst, x, item)
            grand = sum(run[j].mean for run in runs) / len(runs)
            combined = math.sqrt(sum(run[j].std_error**2 for run in runs)) / len(runs)
            assert combined > 0
            assert abs(grand - exact) <= 4 * combined

    def test_stream_key_changes_draws(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        a = ss.optimistic_weight_estimate(cc2, x, "b", 100, seed=1, stream=(0, 0))
        b = ss.optimistic_weight_estimate(cc2, x, "b", 100, seed=1, stream=(0, 1))
        assert a != b

    def test_matches_the_per_item_sampler(self, cc2):
        """Clearing an item's bit in a draw at x is the draw with x_e = 0, so
        the one-item estimate is bit-identical to a sampler that draws per
        item, on a seeded grid of instances, points, streams and counts."""
        rng = random.Random(0)
        instances = [
            cc2,
            ss.generate_product(3, states_per_item=2, seed=1),
            ss.generate_common_cause(4, 3, 8, seed=0),
            ss.generate_common_cause(5, 2, 6, seed=3),
        ]
        for inst in instances:
            for _ in range(4):
                coords = [rng.choice([0.0, 1.0, rng.random()]) for _ in inst.items]
                x = ss.FractionalPoint(inst.items, tuple(coords))
                for item in inst.items:
                    n = rng.choice([1, 2, 17, 300])
                    seed = rng.randrange(100)
                    stream = rng.choice([(), (0,), (3, 1)])
                    expected = per_item_weight_estimate(inst, x, item, n, seed, stream)
                    got = ss.optimistic_weight_estimate(inst, x, item, n, seed, stream)
                    assert got == expected

    def test_all_items_share_the_one_item_draw(self):
        inst = ss.generate_common_cause(4, 3, 8, seed=1)
        x = ss.FractionalPoint(inst.items, (0.3, 0.6, 0.1, 0.9))
        estimates = ss.optimistic_weight_estimates(inst, x, 64, seed=4, stream=(2,))
        assert len(estimates) == inst.m
        for item, estimate in zip(inst.items, estimates):
            assert estimate == ss.optimistic_weight_estimate(
                inst, x, item, 64, seed=4, stream=(2,)
            )


class TestExactMoments:
    """A sampled estimate is the exact sample mean and standard error, each
    rounded once, whichever path sums its moments."""

    def test_equal_gains_give_an_exact_estimate(self):
        inst = ss.generate_common_cause(12, 3, 3, 97)
        coords = (0, 1, 0, 0, 0, 0, 1, 0, 0.5392234688708106, 0, 0.9409760010879991, 1)
        x = ss.FractionalPoint(inst.items, coords)
        estimates = ss.optimistic_weight_estimates(inst, x, 7, 2, (2,))
        assert estimates[0] == ss.Estimate(float(Fraction(8, 17)), 7, 0.0)

        # Python-int moments: on 59-bit numerators n * max gain**2 reaches 2**63.
        wide = _rounding_coverage(7)
        table = model._evaluator(wide).numerators(np.arange(16)).tolist()
        assert 1000 * max(table[k | 1] - table[k] for k in range(16)) ** 2 >= 1 << 63
        x = ss.FractionalPoint(wide.items, (0.3, 0.5, 0.6, 0.2))
        estimates = ss.optimistic_weight_estimates(wide, x, 1000, 4, (1,))
        for item, got in zip(wide.items, estimates):
            assert got == per_item_weight_estimate(wide, x, item, 1000, 4, (1,))

        # Above the cap: numerators of the drawn masks alone, no table.
        big = ss.generate_common_cause(17, 2, 6, 1)
        assert big.m > model.EXACT_CAP
        x = ss.FractionalPoint(big.items, tuple(0.1 + 0.05 * (i % 5) for i in range(17)))
        estimates = ss.optimistic_weight_estimates(big, x, 300, 0, (5,))
        for e in (0, 8, 16):
            want = per_item_weight_estimate(big, x, big.items[e], 300, 0, (5,))
            assert estimates[e] == want
        masks = multilinear._sample_masks(list(x.values), 300, 0, (5,)).tolist()
        values = [
            direct_set_value(big, [i for j, i in enumerate(big.items) if k >> j & 1])
            for k in masks
        ]
        got = ss.multilinear_estimate(big, x, 300, 0, (5,))
        assert got.mean == float(sum(values) / 300)

    def test_estimates_peak_below_ten_bytes_per_sample(self):
        inst = ss.generate_common_cause(6, 3, 24, 0)
        x = ss.FractionalPoint(inst.items, (0.1, 0.3, 0.5, 0.7, 0.2, 0.9))
        ss.optimistic_weights(inst, x)  # the value table, built once per instance
        n = 1 << 20
        tracemalloc.start()
        try:
            ss.optimistic_weight_estimates(inst, x, n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n


def _rounding_coverage(seed: int) -> ss.Instance:
    """A common-cause prior under weights 0.1, 0.2 and 0.3, whose float sums
    round; their exact sums need 2**55 units per unit of weight."""
    inst = ss.generate_common_cause(4, 2, 4, seed)
    weights = tuple((0.1, 0.2, 0.3)[k % 3] for k in range(len(inst.utility.targets)))
    utility = dataclasses.replace(inst.utility, weights=weights)
    return dataclasses.replace(inst, utility=utility)


def _bits(estimate: ss.Estimate) -> tuple:
    return estimate.mean.hex(), estimate.sample_count, estimate.std_error.hex()


class TestOneItemReadsAllItems:
    """``optimistic_weight`` and ``optimistic_weight_estimate`` are entry e of
    their all-item kernels, bit for bit, on every kernel path."""

    INSTANCES = {
        "m1-common-cause": lambda: ss.generate_common_cause(1, 2, 3, 0),
        "m1-product": lambda: ss.generate_product(1, states_per_item=3, seed=2),
        "common-cause": lambda: ss.generate_common_cause(4, 3, 8, 5),
        "product": lambda: ss.generate_product(3, states_per_item=2, seed=6),
        "rounding-coverage": lambda: _rounding_coverage(7),
    }

    @pytest.mark.parametrize("name", INSTANCES)
    def test_entry_of_the_all_item_kernel(self, name):
        inst = self.INSTANCES[name]()
        rng = random.Random(name)
        for _ in range(6):
            coords = [rng.choice([0.0, 1.0, rng.random()]) for _ in inst.items]
            x = ss.FractionalPoint(inst.items, tuple(coords))
            weights = ss.optimistic_weights(inst, x)
            n, seed = rng.choice([1, 3, 40]), rng.randrange(50)
            estimates = ss.optimistic_weight_estimates(inst, x, n, seed, (seed,))
            for e, item in enumerate(inst.items):
                got = ss.optimistic_weight(inst, x, item)
                assert got.hex() == weights[e].hex()
                estimate = ss.optimistic_weight_estimate(inst, x, item, n, seed, (seed,))
                assert _bits(estimate) == _bits(estimates[e])

    def test_unknown_item_raises_before_any_work(self, cc2, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel ran for an unknown item")

        monkeypatch.setattr(multilinear, "optimistic_weights", fail)
        monkeypatch.setattr(multilinear, "optimistic_weight_estimates", fail)
        x = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        with pytest.raises(ss.InputError, match="unknown item 'z'"):
            ss.optimistic_weight(cc2, x, "z")
        with pytest.raises(ss.InputError, match="unknown item 'z'"):
            ss.optimistic_weight_estimate(cc2, x, "z", 10, seed=0)


class TestSampleCap:
    def test_huge_count_is_a_capacity_error(self, cc2):
        x = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        with pytest.raises(ss.CapacityError, match="above the cap"):
            ss.optimistic_weight_estimates(cc2, x, 10**11, seed=0)
        with pytest.raises(ss.CapacityError):
            ss.optimistic_weight_estimate(cc2, x, "a", 10**11, seed=0)
        with pytest.raises(ss.CapacityError):
            ss.multilinear_estimate(cc2, x, 10**11, seed=0)

    def test_cap_counts_samples_times_items(self, cc2, monkeypatch):
        monkeypatch.setattr(multilinear, "SAMPLE_CAP", 12)
        x = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        assert len(ss.optimistic_weight_estimates(cc2, x, 6, seed=0)) == 2
        with pytest.raises(ss.CapacityError):
            ss.optimistic_weight_estimates(cc2, x, 7, seed=0)

    @pytest.mark.parametrize("m", [64, 65])
    def test_more_than_63_items_is_a_capacity_error(self, m):
        """A drawn set is one int64 mask: over 64 items bit 63 would not fit,
        and over 65 item 65's bit would wrap, so the estimate at x = e_65
        would read 0.0 where its set value is positive."""
        inst = ss.generate_common_cause(m, 2, 2, seed=0)
        x = ss.FractionalPoint(inst.items, (0.0,) * (m - 1) + (1.0,))
        with pytest.raises(ss.CapacityError, match="cap 63"):
            ss.optimistic_weight_estimates(inst, x, 5, seed=0)
        with pytest.raises(ss.CapacityError, match="cap 63"):
            ss.multilinear_estimate(inst, x, 5, seed=0)

    def test_63_items_still_draw(self):
        inst = ss.generate_common_cause(63, 2, 2, seed=0)
        x = ss.FractionalPoint(inst.items, (0.0,) * 62 + (1.0,))
        estimate = ss.multilinear_estimate(inst, x, 5, seed=0)
        assert estimate.mean == ss.expected_set_value(inst, [inst.items[-1]]) > 0
        assert len(ss.optimistic_weight_estimates(inst, x, 5, seed=0)) == 63

    def test_cap_admits_the_faithful_schedule_up_to_six_items(self):
        for m in range(1, 7):
            config = ss.GreedyConfig(delta=1 / (9 * m * m), weight_mode="sampled")
            assert config.resolved_sample_count(m) * m <= multilinear.SAMPLE_CAP


class TestFractionalPoint:
    def test_out_of_range_rejected(self):
        with pytest.raises(ss.InputError):
            ss.FractionalPoint(("a",), (1.5,))

    @pytest.mark.parametrize("v", [1 + 1e-12, -1e-12, Fraction(-1, 10**30), math.nan])
    def test_nothing_outside_the_unit_interval_is_clamped(self, v):
        with pytest.raises(ss.InputError, match=r"coordinate a=.* outside \[0, 1\]"):
            ss.FractionalPoint(("a",), (v,))

    def test_coordinates_are_kept_as_given(self):
        x = ss.FractionalPoint(("a", "b", "c"), (Fraction(1, 3), 1.0, -0.0))
        assert x.exact == (Fraction(1, 3), 1.0, 0.0)
        assert x.values == (1 / 3, 1.0, 0.0)
        assert math.copysign(1.0, x.values[2]) == 1.0  # -0.0 reads as 0.0

    def test_mismatched_items_rejected(self, cc2):
        x = ss.FractionalPoint(("a", "zz"), (0.5, 0.5))
        with pytest.raises(ss.InputError):
            ss.multilinear_value(cc2, x)


@given(
    seed=st.integers(min_value=0, max_value=500),
    coord=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_value_stays_within_range(seed, coord):
    inst = ss.generate_product(2, states_per_item=2, seed=seed)
    x = ss.FractionalPoint(inst.items, (coord, 1.0 - coord))
    value = ss.multilinear_value(inst, x)
    full = ss.expected_set_value(inst, set(inst.items))
    assert -1e-12 <= value <= full + 1e-12
