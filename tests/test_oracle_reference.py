"""The integer adaptive oracle agrees exactly with a Fraction reference.

``optimal_adaptive`` runs its backward induction on the evaluator's integer
numerators; ``helpers.loop_optimal_adaptive`` runs it on exact rationals
straight off the support.  Their values must be equal floats and their
trees equal documents, ties included, under every constraint kind.
"""

import itertools
import random

import pytest

import stosub as ss
from stosub import fileio
from conftest import make_modular
from helpers import loop_optimal_adaptive


def _table_instance(seed):
    """A common-cause prior under a seeded explicit-table utility."""
    rng = random.Random(seed)
    base = ss.generate_common_cause(2 + seed % 2, 2, 3, seed=seed)
    ground = sorted((i, s) for i in base.items for s in base.states)
    best = {pair: rng.choice([0.25, 0.5, 1.0, 1.5]) for pair in ground}

    def capped_max_sum(pairs):
        per_item = {}
        for item, state in sorted(pairs):
            per_item[item] = max(per_item.get(item, 0.0), best[(item, state)])
        return min(2.0, sum(v for _, v in sorted(per_item.items())))

    return ss.Instance(
        base.items,
        base.states,
        base.distribution,
        ss.ExplicitTable.from_function(ground, capped_max_sum),
    )


INSTANCES = {
    **{
        f"common-cause-{seed}": lambda seed=seed: ss.generate_common_cause(
            2 + seed % 3, 2 + seed % 2, 2 + seed % 4, seed=seed
        )
        for seed in range(6)
    },
    **{
        f"product-{seed}": lambda seed=seed: ss.generate_product(
            2 + seed % 2, states_per_item=2 + seed % 2, seed=seed
        )
        for seed in range(4)
    },
    "modular-tied": lambda: make_modular({"a": 2.0, "b": 2.0, "c": 1.0}),
    "modular-zero": lambda: make_modular({"a": 0.0, "b": 1.0, "c": 1.0}),
    "table-0": lambda: _table_instance(0),
    "table-1": lambda: _table_instance(1),
}


def _constraints(instance, seed):
    rng = random.Random(seed)
    items = instance.items
    half = len(items) // 2
    subsets = [
        c for r in range(len(items) + 1) for c in itertools.combinations(items, r)
    ]
    closed = {()}
    for a, b in itertools.combinations(items, 2):
        if rng.random() < 0.5:
            closed |= {(a,), (b,), (a, b)}
    return {
        "uniform-1": ss.UniformMatroid(1),
        "uniform-2": ss.UniformMatroid(2),
        "partition": ss.PartitionMatroid(
            blocks=(items[:half], items[half:]), capacities=(1, 1)
        ),
        "knapsack": ss.Knapsack(
            costs=tuple((i, rng.choice([1.0, 2.0, 3.0])) for i in items), budget=3.0
        ),
        "explicit-closed": ss.ExplicitFamily(feasible_sets=tuple(closed)),
        "explicit-open": ss.ExplicitFamily(
            feasible_sets=((),) + tuple(s for s in subsets if s and rng.random() < 0.4),
            downward_closed=False,
        ),
    }


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_optimal_adaptive_matches_fraction_reference(name):
    instance = INSTANCES[name]()
    for label, constraint in _constraints(instance, name).items():
        policy, value = ss.optimal_adaptive(instance, constraint)
        want_policy, want_value = loop_optimal_adaptive(instance, constraint)
        assert value == want_value, label
        assert fileio.policy_to_obj(policy) == fileio.policy_to_obj(want_policy), label


def test_ties_prefer_picking_and_the_first_item():
    instance = make_modular({"a": 0.0, "b": 1.0, "c": 1.0})
    policy, value = ss.optimal_adaptive(instance, ss.UniformMatroid(1))
    assert value == 1.0
    assert policy.root.item == "b"
    policy, value = ss.optimal_adaptive(instance, ss.UniformMatroid(3))
    assert value == 2.0
    assert policy.item_sequences() == [("a", "b", "c")]
