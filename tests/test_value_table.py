"""The exact value table and the multilinear kernels built on it.

Every check compares against the brute-force oracles in ``helpers``, which
enumerate the support and call ``utility.evaluate`` directly.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

import stosub as ss
from stosub.model import _evaluator
from conftest import make_single_item
from helpers import (
    direct_set_value,
    direct_state_value,
    loop_multilinear,
    loop_optimistic_weight,
    table_from_function,
)


def _cached_oracle(instance):
    @lru_cache(maxsize=None)
    def value(subset):
        return float(direct_set_value(instance, subset))

    return value


def _members(instance, mask: int) -> list:
    return [item for k, item in enumerate(instance.items) if mask >> k & 1]


def _loop_weights(instance, coords, value):
    return tuple(
        loop_optimistic_weight(instance, coords, item, value) for item in instance.items
    )


def _dense_point(instance, seed, low=0.05, high=0.95):
    rng = random.Random(seed)
    return ss.FractionalPoint(
        instance.items, tuple(rng.uniform(low, high) for _ in instance.items)
    )


class TestBitIdentity:
    """The kernels reproduce the scalar loops to the last bit (``==``)."""

    @pytest.fixture(scope="class")
    def cc8(self):
        return ss.generate_common_cause(8, 3, 12, seed=4)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_point(self, cc8, seed):
        value = _cached_oracle(cc8)
        x = _dense_point(cc8, seed)
        coords = x.as_dict()
        assert ss.multilinear_value(cc8, x) == loop_multilinear(cc8, coords, value)
        weights = _loop_weights(cc8, coords, value)
        assert ss.optimistic_weights(cc8, x) == weights
        for item, opt in zip(cc8.items, weights):
            assert ss.optimistic_weight(cc8, x, item) == opt
            assert ss.standard_weight(cc8, x, item) == (1.0 - coords[item]) * opt
        ev = _evaluator(cc8)
        for item, state in [("e1", "s1"), ("e4", "s2"), ("e8", "s3")]:
            pin = (cc8.item_index(item), cc8.state_index(state))
            want = [
                direct_state_value(cc8, _members(cc8, mask), item, state)
                * ev.denominator
                for mask in range(1 << cc8.m)
            ]
            assert ev.tables([None, pin])[1].tolist() == want

    def test_point_with_zero_and_one_coordinates(self, cc8):
        value = _cached_oracle(cc8)
        coords = _dense_point(cc8, 2).as_dict()
        coords.update(e2=0.0, e5=1.0, e7=0.0)
        x = ss.FractionalPoint.from_dict(coords)
        assert ss.multilinear_value(cc8, x) == loop_multilinear(cc8, coords, value)
        assert ss.optimistic_weights(cc8, x) == _loop_weights(cc8, coords, value)
        for item in ("e1", "e2", "e5"):
            assert ss.optimistic_weight(cc8, x, item) == loop_optimistic_weight(
                cc8, coords, item, value
            )

    def test_vertex_point(self, cc8):
        value = _cached_oracle(cc8)
        coords = {item: float(k % 3 == 0) for k, item in enumerate(cc8.items)}
        x = ss.FractionalPoint.from_dict(coords)
        assert ss.optimistic_weights(cc8, x) == _loop_weights(cc8, coords, value)

    @pytest.mark.parametrize("coord", [0.0, 0.3, 1.0])
    def test_single_item(self, coord):
        inst = make_single_item(
            {"hi": 3.5, "lo": 1.25}, {"hi": Fraction(1, 3), "lo": Fraction(2, 3)}
        )
        value = _cached_oracle(inst)
        x = ss.FractionalPoint(("e",), (coord,))
        weights = _loop_weights(inst, {"e": coord}, value)
        assert ss.optimistic_weights(inst, x) == weights
        assert ss.optimistic_weight(inst, x, "e") == weights[0]


def _subsets(items):
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def _table_instance():
    items, states = ("a", "b", "c"), ("lo", "hi")
    ground = [(i, s) for i in items for s in states]
    weight = {pair: 1.0 + k * 0.37 for k, pair in enumerate(ground)}
    utility = table_from_function(
        ground, lambda subset: math.sqrt(sum(weight[p] for p in subset))
    )
    worlds = [
        ({"a": "lo", "b": "lo", "c": "hi"}, Fraction(1, 6)),
        ({"a": "hi", "b": "lo", "c": "hi"}, Fraction(1, 3)),
        ({"a": "hi", "b": "hi", "c": "lo"}, Fraction(1, 4)),
        ({"a": "lo", "b": "hi", "c": "lo"}, Fraction(1, 4)),
    ]
    return ss.Instance(
        items=items,
        states=states,
        distribution=ss.JointDistribution(
            tuple((ss.Realization.from_dict(r), p) for r, p in worlds)
        ),
        utility=utility,
    )


class TestExplicitTableUtility:
    @pytest.fixture(scope="class")
    def inst(self):
        return _table_instance()

    def test_set_values(self, inst):
        for subset in _subsets(inst.items):
            want = direct_set_value(inst, subset)
            assert ss.expected_set_value_exact(inst, subset) == want
            assert ss.expected_set_value(inst, subset) == float(want)

    def test_state_marginals(self, inst):
        ev = _evaluator(inst)
        den = ev.denominator
        for item in inst.items:
            rest = [i for i in inst.items if i != item]
            for base in _subsets(rest):
                for state in inst.states:
                    pin = (inst.item_index(item), inst.state_index(state))
                    want = direct_state_value(inst, base, item, state)
                    numerators = ev.tables([None, pin])
                    mask = ev.mask_of(base)
                    assert numerators[0, mask] == direct_set_value(inst, base) * den
                    assert numerators[1, mask] == want * den

    def test_extension_and_weights(self, inst):
        value = _cached_oracle(inst)
        x = _dense_point(inst, 3)
        coords = x.as_dict()
        assert ss.multilinear_value(inst, x) == loop_multilinear(inst, coords, value)
        weights = _loop_weights(inst, coords, value)
        assert ss.optimistic_weights(inst, x) == weights
        for item, want in zip(inst.items, weights):
            assert ss.optimistic_weight(inst, x, item) == want


def _fractional_coverage(items, states, seed):
    rng = random.Random(seed)
    targets = ("t1", "t2", "t3")
    return ss.WeightedCoverage.build(
        targets=targets,
        weights={"t1": 0.1, "t2": 0.2, "t3": 0.7},
        coverage={
            (i, s): tuple(t for t in targets if rng.random() < 0.6)
            for i in items
            for s in states
        },
    )


def _product_with_denominators(denominators):
    marginals = [
        [("x", Fraction(k, d)), ("y", Fraction(d - k, d))]
        for k, d in zip((1, 2, 3, 4), denominators)
    ]
    base = ss.generate_product(len(denominators), per_item_marginals=marginals)
    return ss.Instance(
        items=base.items,
        states=base.states,
        distribution=base.distribution,
        utility=_fractional_coverage(base.items, base.states, seed=len(denominators)),
    )


class TestFractionalWeights:
    @pytest.mark.parametrize(
        "denominators, python_ints",
        [((2, 3, 5, 7), False), ((1000003, 1000033, 1000037, 1000039), True)],
        ids=["small-lcd", "large-lcd"],
    )
    def test_every_mask_is_exact(self, denominators, python_ints):
        inst = _product_with_denominators(denominators)
        numerators = _evaluator(inst)._table()[0]
        assert (numerators.dtype == object) == python_ints
        for subset in _subsets(inst.items):
            want = direct_set_value(inst, subset)
            assert ss.expected_set_value_exact(inst, subset) == want
            assert ss.expected_set_value(inst, subset) == float(want)

    def test_evaluate_sums_in_target_order(self):
        targets = tuple(f"t{k}" for k in range(9))
        weights = dict.fromkeys(targets, 1.0)
        weights.update(t1=0.3, t2=0.5, t8=0.4)
        utility = ss.WeightedCoverage.build(
            targets, weights, {("e", "on"): ("t8", "t2", "t1")}
        )
        assert utility.evaluate([("e", "on")]) == (0.3 + 0.5) + 0.4


class TestAboveTheCap:
    def test_m24_without_a_full_table(self):
        inst = ss.generate_common_cause(24, 2, 6, seed=1)
        rng = random.Random(0)
        picks = [frozenset(), frozenset(inst.items)] + [
            frozenset(i for i in inst.items if rng.random() < 0.4) for _ in range(3)
        ]
        x = _dense_point(inst, 0, low=0.05, high=0.3)
        tracemalloc.start()
        try:
            for subset in picks:
                want = direct_set_value(inst, subset)
                assert ss.expected_set_value(inst, subset) == float(want)
            est = ss.optimistic_weight_estimate(inst, x, "e3", 2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= est.mean and est.sample_count == 2000
        table_bytes = 8 << 24
        assert peak < table_bytes / 16
        with pytest.raises(ss.CapacityError):
            ss.multilinear_value(inst, x)
