"""Seeded instance generators for correlated and independent priors.

Two families: a latent-world model where one hidden draw fixes every item's
state (the canonical source of correlation), and full product priors where
items are independent by construction.  Both attach a seeded weighted
coverage utility.  All probabilities are exact rationals built from integer
draws, and a (generator, parameters, seed) triple fully determines the
instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError, InputError
from .model import Instance, JointDistribution, Realization, WeightedCoverage

PRODUCT_SUPPORT_CAP = 4096


def _coverage_utility(
    rng: random.Random, items: Sequence[str], states: Sequence[str]
) -> WeightedCoverage:
    targets = tuple(f"t{k + 1}" for k in range(len(items) + 1))
    weights = {t: float(rng.randint(1, 5)) for t in targets}
    coverage = {}
    for item in items:
        for state in states:
            coverage[(item, state)] = tuple(
                t for t in targets if rng.random() < 0.55
            )
    return WeightedCoverage.build(targets, weights, coverage)


def generate_common_cause(
    m: int, states_per_item: int, worlds: int, seed: int
) -> Instance:
    """Correlated instance driven by a latent world.

    A hidden world index is drawn from a seeded categorical; each item's
    state is a seeded deterministic function of the world.  Distinct worlds
    can map to the same realization, in which case their mass merges.
    """
    if m < 1 or states_per_item < 1 or worlds < 1:
        raise InputError("m, states_per_item, and worlds must all be at least 1")
    rng = random.Random(seed)
    items = tuple(f"e{i + 1}" for i in range(m))
    states = tuple(f"s{i + 1}" for i in range(states_per_item))
    raw = [rng.randint(1, 9) for _ in range(worlds)]
    total = sum(raw)
    state_of = [
        [rng.randrange(states_per_item) for _ in range(m)] for _ in range(worlds)
    ]
    merged: dict[Realization, Fraction] = {}
    for w in range(worlds):
        realization = Realization(
            tuple((items[i], states[state_of[w][i]]) for i in range(m))
        )
        merged[realization] = merged.get(realization, Fraction(0)) + Fraction(
            raw[w], total
        )
    distribution = JointDistribution(
        tuple(sorted(merged.items(), key=lambda entry: entry[0].pairs))
    )
    return Instance(
        items=items,
        states=states,
        distribution=distribution,
        utility=_coverage_utility(rng, items, states),
    )


def generate_product(
    m: int,
    per_item_marginals: Sequence[Sequence[tuple[str, Fraction]]] | None = None,
    states_per_item: int = 2,
    seed: int = 0,
) -> Instance:
    """Independent items: the support is the full product of state marginals.

    When ``per_item_marginals`` is omitted, each item gets a seeded rational
    marginal over ``states_per_item`` states.  Probabilities are exact
    products, so the independence diagnostics return exactly 1.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    rng = random.Random(seed)
    items = tuple(f"e{i + 1}" for i in range(m))
    if per_item_marginals is None:
        states = tuple(f"s{i + 1}" for i in range(states_per_item))
        marginals = []
        for _ in range(m):
            raw = [rng.randint(1, 9) for _ in range(states_per_item)]
            total = sum(raw)
            marginals.append([(s, Fraction(c, total)) for s, c in zip(states, raw)])
    else:
        if len(per_item_marginals) != m:
            raise InputError("one marginal per item required")
        marginals = [list(marg) for marg in per_item_marginals]
        states = tuple(
            dict.fromkeys(s for marg in marginals for s, _ in marg)
        )
        for marg in marginals:
            if sum((Fraction(p) for _, p in marg), Fraction(0)) != 1:
                raise InputError("each item's marginal must sum to exactly 1")
    support_size = 1
    for marg in marginals:
        support_size *= len(marg)
    if support_size > PRODUCT_SUPPORT_CAP:
        raise CapacityError(
            f"product support of {support_size} exceeds the cap {PRODUCT_SUPPORT_CAP}"
        )
    entries = []
    for combo in itertools.product(*marginals):
        prob = Fraction(1)
        for _, p in combo:
            prob *= Fraction(p)
        realization = Realization(
            tuple((items[i], s) for i, (s, _) in enumerate(combo))
        )
        entries.append((realization, prob))
    distribution = JointDistribution(tuple(entries))
    return Instance(
        items=items,
        states=states,
        distribution=distribution,
        utility=_coverage_utility(rng, items, states),
    )


def common_cause_2() -> Instance:
    """The fixed two-item, two-world instance used across tests and scenarios.

    Two equally likely worlds set both items to "good" or both to "bad"; the
    coverage utility over three unit-weight targets makes the correlation
    matter without degenerating either independence measure.
    """
    items = ("a", "b")
    states = ("good", "bad")
    half = Fraction(1, 2)
    distribution = JointDistribution(
        (
            (Realization((("a", "good"), ("b", "good"))), half),
            (Realization((("a", "bad"), ("b", "bad"))), half),
        )
    )
    utility = WeightedCoverage.build(
        targets=("t1", "t2", "t3"),
        weights={"t1": 1.0, "t2": 1.0, "t3": 1.0},
        coverage={
            ("a", "good"): ("t1", "t2"),
            ("a", "bad"): ("t1",),
            ("b", "good"): ("t2", "t3"),
            ("b", "bad"): ("t1", "t3"),
        },
    )
    return Instance(
        items=items, states=states, distribution=distribution, utility=utility
    )
