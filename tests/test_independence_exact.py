"""kappa and gamma equal the Fraction-per-ratio loop on the whole report.

``helpers.loop_kappa`` and ``helpers.loop_gamma`` value every ratio as a
``Fraction`` straight off the support and ``utility.evaluate``, in the
library's enumeration order, so value, clamp, witness (the first strict
minimum) and ``ratios_examined`` must all agree.  The cases cover ties at 0,
single-state items, an explicit table and a non-monotone one (negative
denominators), non-dyadic weights whose scale forces Python-int numerators,
a prior whose LCD is about 10**60, one whose numerators fit int64 but whose
ratio products do not, and a common-cause prior at m=5.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import stosub as ss
from stosub.model import _evaluator
from helpers import (
    direct_conditional,
    direct_set_value,
    direct_state_value,
    gamma_pair_ratio,
    loop_gamma,
    loop_kappa,
)


def _reweighted(instance, weights):
    """The same instance with target weights cycled from ``weights``."""
    targets = instance.utility.targets
    return ss.Instance(
        items=instance.items,
        states=instance.states,
        distribution=instance.distribution,
        utility=ss.WeightedCoverage(
            targets=targets,
            weights=tuple(weights[k % len(weights)] for k in range(len(targets))),
            coverage=instance.utility.coverage,
        ),
    )


def _table(seed, choices=(0.0, 1.0, 1 / 3, 2.5, 0.1), shape=math.sqrt):
    """A table of ``shape`` of the summed pair weights, and a 5-draw prior."""
    rng = random.Random(seed)
    items, states = ("a", "b", "c"), ("lo", "hi")
    ground = [(i, s) for i in items for s in states]
    weight = {pair: rng.choice(choices) for pair in ground}
    utility = ss.ExplicitTable.from_function(
        ground, lambda subset: shape(sum(weight[p] for p in sorted(subset)))
    )
    worlds = {}
    for _ in range(5):
        r = tuple((i, rng.choice(states)) for i in items)
        worlds[r] = worlds.get(r, 0) + rng.randint(1, 7)
    total = sum(worlds.values())
    return ss.Instance(
        items=items,
        states=states,
        distribution=ss.JointDistribution(
            tuple((ss.Realization(r), Fraction(w, total)) for r, w in worlds.items())
        ),
        utility=utility,
    )


def _moved_product(seed, denominators, weights):
    """A product prior over the prime ``denominators``, then correlated by
    moving the last world's mass onto the first; target weights cycle
    through ``weights``."""
    rng = random.Random(seed)
    marginals = []
    for q in denominators:
        a = rng.randrange(1, q)
        marginals.append([("s1", Fraction(a, q)), ("s2", Fraction(q - a, q))])
    product = ss.generate_product(3, per_item_marginals=marginals, seed=seed)
    entries = list(product.distribution.entries)
    (first, p_first), (last, p_last) = entries[0], entries[-1]
    entries[0], entries[-1] = (first, p_first + p_last), (last, Fraction(0))
    return _reweighted(
        ss.Instance(
            items=product.items,
            states=product.states,
            distribution=ss.JointDistribution(tuple(entries)),
            utility=product.utility,
        ),
        weights,
    )


CASES = {
    "cc-m4": lambda: ss.generate_common_cause(4, 3, 8, seed=0),
    "cc-m4-ties": lambda: ss.generate_common_cause(4, 2, 6, seed=0),
    "cc-m3": lambda: ss.generate_common_cause(3, 2, 4, seed=5),
    "single-state": lambda: ss.generate_common_cause(3, 1, 3, seed=1),
    "product": lambda: ss.generate_product(3, states_per_item=3, seed=2),
    "cc2": ss.common_cause_2,
    "explicit-table": lambda: _table(11),
    "third-weights": lambda: _reweighted(
        ss.generate_common_cause(4, 2, 7, seed=6), [0.1, 1 / 3, 2.5, 1e-9 / 3]
    ),
    "huge-lcd": lambda: _moved_product(
        4, (10**20 + 39, 10**20 + 129, 10**20 + 151), [0.1, 1 / 3, 2.5]
    ),
    "non-monotone-table": lambda: _table(
        1, (0.0, 0.5, 1.0, 1.25, 2.0), lambda total: abs(total - 1.5)
    ),
    "wide-products": lambda: _moved_product(3, (1000003, 1000033, 1009), [0.5, 2.0]),
    "cc-m5": lambda: ss.generate_common_cause(5, 3, 8, seed=0),
}


@pytest.fixture(scope="module")
def instances():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("name", CASES)
def test_kappa_matches_fraction_loop(instances, name):
    inst = instances[name]
    report = ss.kappa(inst)
    assert report == loop_kappa(inst)


@pytest.mark.parametrize("name", CASES)
def test_gamma_matches_fraction_loop(instances, name):
    inst = instances[name]
    report = ss.gamma(inst)
    assert report == loop_gamma(inst)


@pytest.mark.parametrize("name", ["cc-m4", "cc-m3", "cc2", "non-monotone-table"])
def test_gamma_ratio_on_every_ordered_pair(instances, name):
    """gamma values each union of two observations once and mirrors it into
    (b, a).  Valued one pair at a time by the definition, the ordered pairs
    give the report's count and minimum, 1 on the diagonal, and (b, a) the
    reciprocal of (a, b), the symmetry the mirroring relies on."""
    inst = instances[name]
    ev = _evaluator(inst)
    report = ss.gamma(inst)
    ratios = []
    for e, item in enumerate(inst.items):
        for vmask in range(1 << inst.m):
            if vmask >> e & 1:
                continue
            observed = tuple(i for j, i in enumerate(inst.items) if vmask >> j & 1)
            obs = [
                dict(zip(observed, (inst.states[s] for s in key)))
                for key in ev.observations(vmask)[0]
            ]
            for a, b in itertools.product(range(len(obs)), repeat=2):
                forward = gamma_pair_ratio(inst, item, obs[a], obs[b])
                backward = gamma_pair_ratio(inst, item, obs[b], obs[a])
                if a == b:
                    assert forward == 1
                elif forward is None or forward == 0:
                    assert {forward, backward} == {None, 0}
                else:
                    assert backward == 1 / forward
                ratios.append(forward)
    assert len(ratios) == report.ratios_examined
    assert min(r for r in ratios if r is not None) == report.value


def test_cases_reach_ties_and_python_ints(instances):
    """The cases above exercise what they claim to."""
    assert ss.kappa(instances["cc-m4-ties"]).value == 0
    assert ss.gamma(instances["cc-m4-ties"]).value == 0
    assert instances["single-state"].states == ("s1",)
    assert math.lcm(
        *(p.denominator for _, p in instances["huge-lcd"].distribution.entries)
    ) > 10**59
    for name in ("third-weights", "huge-lcd"):
        assert _evaluator(instances[name])._table()[0].dtype == object
    # Ratios are products with the observation weights, so those carry the
    # dtype: int64 numerators, yet Python-int ratios, on "wide-products".
    for name, tables, ratios in [
        ("cc-m5", np.int64, np.int64),
        ("wide-products", np.int64, object),
        ("huge-lcd", object, object),
    ]:
        ev = _evaluator(instances[name])
        assert ev._table()[0].dtype == tables
        assert ev.observations(0)[1].dtype == ratios


def test_non_monotone_table_reaches_negative_denominators(instances):
    inst = instances["non-monotone-table"]
    assert not ss.validate_utility(inst.utility).monotone
    report = ss.kappa(inst)
    w = report.witness
    base = direct_set_value(inst, w.base)
    denominator = sum(
        q * (direct_state_value(inst, w.base, w.item, s) - base)
        for s, q in direct_conditional(inst, w.item, w.observation.as_dict())
    )
    assert report.value < 0 and denominator < 0
