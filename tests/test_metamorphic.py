"""Exact metamorphic relations of the exact readers, at sizes the Fraction
references cannot reach.

The references in ``helpers`` (``loop_kappa``, ``loop_gamma``,
``loop_optimal_adaptive``) grow costly past m = 6..8.  A relation between
two runs of the code under test needs no reference, and here every one is
exact (Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 2018):

- listing the items, or the states, in another order renames nothing, so
  kappa and gamma (value and ratio count), the optimal adaptive value, the
  best fixed set and its value, and the virtual value stay equal.  Witnesses
  and trees may move, because ties follow index order.  So the virtual value
  is read for the first instance's optimal tree, which names its items and
  states, on both instances, and that tree is optimal on both;
- doubling every coverage weight doubles every set value, so it leaves every
  ratio of kappa and gamma as it is and doubles the three values exactly: a
  float times 2 is exact, and so is twice a correctly rounded rational.

The instances are seeded common-cause priors (3 states, 12 worlds) at m =
7..11 and product priors, all within the observation table's cap, under a
uniform matroid of rank 3.  One knapsack case swaps two item names, each
cost following its item, where summing the costs as floats in name order
would put the full set on either side of the budget.
"""

import dataclasses
import functools
import random

import pytest

import stosub as ss

CASES = {
    **{
        f"cc-m{m}": functools.partial(ss.generate_common_cause, m, 3, 12, m)
        for m in range(7, 12)
    },
    "product-m7": functools.partial(
        ss.generate_product, 7, states_per_item=2, seed=7
    ),
    "product-m5-3-states": functools.partial(
        ss.generate_product, 5, states_per_item=3, seed=5
    ),
}
CONSTRAINT = ss.UniformMatroid(3)


def _shuffled(values: tuple, seed: int) -> tuple:
    """A seeded permutation of ``values`` other than the identity."""
    rng = random.Random(seed)
    while True:
        shuffled = tuple(rng.sample(values, len(values)))
        if shuffled != values or len(values) == 1:
            return shuffled


def _items_permuted(instance):
    return dataclasses.replace(instance, items=_shuffled(instance.items, instance.m))


def _states_permuted(instance):
    return dataclasses.replace(instance, states=_shuffled(instance.states, instance.m))


def _weights_doubled(instance):
    utility = instance.utility
    weights = tuple(2 * w for w in utility.weights)
    doubled = dataclasses.replace(utility, weights=weights)
    return dataclasses.replace(instance, utility=doubled)


# relation -> (transform, factor of the three values)
RELATIONS = {
    "items-permuted": (_items_permuted, 1),
    "states-permuted": (_states_permuted, 1),
    "weights-doubled": (_weights_doubled, 2),
}


def _readings(instance, tree):
    """kappa and gamma (value, ratios examined), the optimal adaptive value,
    the best fixed set and its value, and ``tree``'s value and virtual value
    (the optimal tree's when ``tree`` is None), with that optimal tree."""
    reports = ss.kappa(instance), ss.gamma(instance)
    measures = [(r.value, r.ratios_examined) for r in reports]
    policy, opt = ss.optimal_adaptive(instance, CONSTRAINT)
    chosen, best = ss.best_nonadaptive(instance, CONSTRAINT)
    tree = tree or policy
    values = (
        opt,
        best,
        ss.evaluate_policy(instance, tree),
        ss.virtual_nonadaptive_value(instance, CONSTRAINT, tree),
    )
    return measures, chosen, values, policy


@functools.lru_cache(maxsize=None)
def _first(name):
    return _readings(CASES[name](), None)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("name", list(CASES))
def test_relation_holds_exactly(name, relation):
    transform, factor = RELATIONS[relation]
    measures, chosen, values, policy = _first(name)
    instance = transform(CASES[name]())
    assert instance != CASES[name]()
    got_measures, got_chosen, got_values, _ = _readings(instance, policy)
    assert got_measures == measures
    assert got_chosen == chosen
    assert got_values == tuple(factor * v for v in values)
    assert values[2] == values[0]  # the tree is optimal on the first instance


def _names_swapped(instance, a, b):
    """``instance`` with items ``a`` and ``b`` renamed into each other; every
    realization and coverage entry follows its item, and positions stay."""
    name = {a: b, b: a}

    def renamed(pairs):
        return tuple((name.get(item, item), state) for item, state in pairs)

    distribution = ss.JointDistribution(
        tuple(
            (ss.Realization(renamed(r.pairs)), p)
            for r, p in instance.distribution.entries
        )
    )
    coverage = tuple(
        (renamed([pair])[0], targets) for pair, targets in instance.utility.coverage
    )
    utility = dataclasses.replace(instance.utility, coverage=coverage)
    items = tuple(name.get(item, item) for item in instance.items)
    return ss.Instance(items, instance.states, distribution, utility)


def test_knapsack_readings_follow_items_not_names():
    # 0.61 + 0.3 + 0.19 rounds to the budget as floats, 0.19 + 0.3 + 0.61 to
    # 1.1 above it; the costs' binary values sum to 1.1e-16 over it.
    instance = ss.generate_common_cause(3, 2, 4, seed=0)
    costs, budget = {"e1": 0.61, "e2": 0.3, "e3": 0.19}, 1.0999999999999999
    swap = {"e1": "e3", "e3": "e1"}
    sides = [
        (instance, costs, {}),
        (
            _names_swapped(instance, "e1", "e3"),
            {swap.get(item, item): cost for item, cost in costs.items()},
            swap,
        ),
    ]
    readings = []
    for inst, side_costs, back in sides:
        knapsack = ss.Knapsack(costs=tuple(side_costs.items()), budget=budget)
        chosen, best = ss.best_nonadaptive(inst, knapsack)
        readings.append(
            (
                ss.is_feasible(knapsack, inst.items),
                frozenset(back.get(item, item) for item in chosen),
                best,
                ss.optimal_adaptive(inst, knapsack)[1],
            )
        )
    assert readings[0] == readings[1]
    assert readings[0][:3] == (False, frozenset({"e1", "e3"}), 6.6)
