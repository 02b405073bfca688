"""The integer policy oracles agree exactly with Fraction references.

``optimal_adaptive`` runs its backward induction on the evaluator's integer
numerators; ``helpers.loop_optimal_adaptive`` runs it on exact rationals
straight off the support.  Their values must be equal floats and their
trees equal documents, ties included, under every constraint kind.  The
reads of a given policy (its value, pick probabilities and virtual value),
the best fixed set, and tree feasibility are checked the same way.
"""

import itertools
import random

import pytest

import stosub as ss
from stosub import fileio
from stosub import harness
from stosub.cli import BUNDLED_SUITE
from stosub.model import EXACT_CAP
from conftest import make_modular
from test_independence_exact import CASES as EXACT_CASES
from helpers import (
    direct_pick_probabilities,
    direct_policy_value,
    direct_set_value,
    direct_virtual_value,
    loop_optimal_adaptive,
    sequence_feasible,
    table_from_function,
)


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
        table_from_function(ground, capped_max_sum),
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


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_optimal_adaptive_on_the_exact_independence_cases(name):
    """The independence cases bring what ``INSTANCES`` lacks: Python-int
    observation weights, an LCD near 10**60, a single state, twin rows and
    a non-monotone table.  Each is within the table's cap, and the tree
    and value equal the Fraction reference's under uniform k = 1, 2 and m."""
    instance = EXACT_CASES[name]()
    assert len(instance.distribution.entries) << instance.m <= 1 << EXACT_CAP
    for k in sorted({1, 2, instance.m}):
        constraint = ss.UniformMatroid(k)
        policy, value = ss.optimal_adaptive(instance, constraint)
        want_policy, want_value = loop_optimal_adaptive(instance, constraint)
        assert value == want_value, k
        assert fileio.policy_to_obj(policy) == fileio.policy_to_obj(want_policy), k


ADMITTED = {
    "common-cause-m6": lambda: ss.generate_common_cause(6, 2, 20, seed=6),
    "common-cause-m7": lambda: ss.generate_common_cause(7, 3, 12, seed=7),
    "common-cause-m8": lambda: ss.generate_common_cause(8, 2, 8, seed=8),
    "product-m4-3-states": lambda: ss.generate_product(4, states_per_item=3, seed=4),
}


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_optimal_adaptive_on_sizes_the_table_cap_admits(name):
    """Sizes that one cap on 2**m * |support| admits and an item cap of 5
    or a support cap of 64 did not: the tree and value equal the Fraction
    reference's, ties included, under uniform k = 2, 3 and a partition."""
    instance = ADMITTED[name]()
    support, m, items = len(instance.distribution.entries), instance.m, instance.items
    assert support << m <= 1 << EXACT_CAP
    assert m > 5 or support > 64
    constraints = {
        "uniform-2": ss.UniformMatroid(2),
        "uniform-3": ss.UniformMatroid(3),
        "partition": ss.PartitionMatroid(
            blocks=(items[: m // 2], items[m // 2 :]), capacities=(1, 2)
        ),
    }
    for label, constraint in constraints.items():
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
    chain = {"item": "c", "branches": {"on": "stop"}}
    for item in ("b", "a"):
        chain = {"item": item, "branches": {"on": chain}}
    assert fileio.policy_to_obj(policy) == chain


def _assert_reads_match(instance, constraint, label):
    policy, _ = ss.optimal_adaptive(instance, constraint)
    want = float(direct_policy_value(instance, policy))
    assert ss.evaluate_policy(instance, policy) == want, label
    probs = direct_pick_probabilities(instance, policy)
    got = ss.policy_pick_probabilities(instance, policy)
    assert got.values == tuple(float(probs[i]) for i in instance.items), label
    want = float(direct_virtual_value(instance, policy))
    assert ss.virtual_nonadaptive_value(instance, constraint, policy) == want, label
    values = {
        s: direct_set_value(instance, s)
        for r in range(instance.m + 1)
        for s in itertools.combinations(instance.items, r)
        if ss.is_feasible(constraint, s)
    }
    best = max(values.values())
    chosen, value = ss.best_nonadaptive(instance, constraint)
    assert value == float(best), label
    assert chosen == frozenset(min(s for s, v in values.items() if v == best)), label


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_policy_reads_match_fraction_references(name):
    instance = INSTANCES[name]()
    for label, constraint in _constraints(instance, name).items():
        _assert_reads_match(instance, constraint, label)


BUNDLED = [
    s for s in harness.load_scenarios(BUNDLED_SUITE) if s.kind != "independence-profile"
]


@pytest.mark.parametrize("scenario", BUNDLED, ids=[s.name for s in BUNDLED])
def test_policy_reads_match_on_bundled_instances(scenario):
    instance = scenario.instance.resolve()
    _assert_reads_match(instance, scenario.constraint, scenario.name)


def _random_tree(rng, items, states, depth):
    """A tree with random picks, missing branches and early stops."""
    if depth == 0 or rng.random() < 0.2:
        return ss.STOP
    item = rng.choice(items)
    rest = [i for i in items if i != item]
    branches = {
        s: _random_tree(rng, rest, states, depth - 1)
        for s in states
        if rng.random() < 0.8
    }
    return ss.pick(item, branches)


@pytest.mark.parametrize("seed", range(8))
def test_tree_feasibility_matches_sequence_enumeration(seed):
    rng = random.Random(seed)
    instance = ss.generate_common_cause(5, 2, 2, seed=seed)
    constraints = _constraints(instance, seed)
    for _ in range(100):
        policy = ss.Policy(
            root=_random_tree(rng, list(instance.items), instance.states, 4)
        )
        for label, constraint in constraints.items():
            want = sequence_feasible(policy, constraint)
            assert ss.policy_is_feasible(policy, constraint) == want, label


def _prefix_closed_family(rng, items, size):
    """A random family grown from {} by adding one item to a listed set, so
    every listed set is reached by a chain of listed sets."""
    family = {()}
    while len(family) < size:
        base = rng.choice(sorted(family))
        rest = [i for i in items if i not in base]
        if rest:
            family.add(tuple(sorted(base + (rng.choice(rest),))))
    return ss.ExplicitFamily(feasible_sets=tuple(family), downward_closed=False)


@pytest.mark.parametrize("seed", range(10))
def test_prefix_closed_families_match_the_sequence_keyed_reference(seed):
    """The library keys a history by its observed pairs; the reference keys
    it by its pick sequence too, so a set reached in several orders is solved
    once per order there.  Both must give the same value and tree."""
    rng = random.Random(seed)
    m = 2 + seed % 4
    instances = [
        ss.generate_common_cause(m, 2, 2 + seed % 3, seed=seed),
        ss.generate_product(m, states_per_item=2, seed=seed),
    ]
    for instance in instances:
        for _ in range(3):
            constraint = _prefix_closed_family(
                rng, instance.items, rng.randint(2, min(12, 1 << m))
            )
            policy, value = ss.optimal_adaptive(instance, constraint)
            want_policy, want_value = loop_optimal_adaptive(instance, constraint)
            assert value == want_value
            assert fileio.policy_to_obj(policy) == fileio.policy_to_obj(want_policy)
