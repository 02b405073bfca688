from fractions import Fraction

import numpy as np
import pytest

from stosub import (
    Instance,
    JointDistribution,
    Realization,
    WeightedCoverage,
    common_cause_2,
    generate_product,
)


@pytest.fixture
def cc2():
    return common_cause_2()


@pytest.fixture
def product3():
    return generate_product(3, states_per_item=2, seed=1)


def make_single_item(values: dict[str, float], probs: dict[str, Fraction]) -> Instance:
    """One item whose state determines a scalar value through disjoint coverage."""
    states = tuple(sorted(values))
    targets = tuple(f"t_{s}" for s in states)
    return Instance(
        items=("e",),
        states=states,
        distribution=JointDistribution(
            tuple(
                (Realization((("e", s),)), Fraction(probs[s])) for s in states
            )
        ),
        utility=WeightedCoverage.build(
            targets=targets,
            weights={f"t_{s}": values[s] for s in states},
            coverage={("e", s): (f"t_{s}",) for s in states},
        ),
    )


def make_modular(weights: dict[str, float]) -> Instance:
    """Independent deterministic items, each covering its own private target."""
    items = tuple(sorted(weights))
    return Instance(
        items=items,
        states=("on",),
        distribution=JointDistribution(
            ((Realization(tuple((i, "on") for i in items)), Fraction(1)),)
        ),
        utility=WeightedCoverage.build(
            targets=tuple(f"t_{i}" for i in items),
            weights={f"t_{i}": weights[i] for i in items},
            coverage={(i, "on"): (f"t_{i}",) for i in items},
        ),
    )


def observation_weights(table) -> np.ndarray:
    """W of every (row, item) of an observation table, through its one
    reader: shape (rows, items, states)."""
    rows, items = table.children.shape[:2]
    return table.weights(np.arange(rows)[:, None], np.arange(items))


def make_wide(m: int, support: int) -> Instance:
    """m items with ``support`` equally likely worlds: one world of a modular
    utility, or the first worlds of a seeded product prior (2 states)."""
    if support == 1:
        return make_modular({f"e{i:02d}": float(i % 3) for i in range(m)})
    base = generate_product(m, states_per_item=2, seed=0)
    first = base.distribution.entries[:support]
    entries = tuple((r, Fraction(1, support)) for r, _ in first)
    return Instance(base.items, base.states, JointDistribution(entries), base.utility)


@pytest.fixture
def modular3():
    return make_modular({"a": 5.0, "b": 3.0, "c": 1.0})
