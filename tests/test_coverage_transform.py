"""Full value tables and pair gains without the world kernel.

Every coverage utility gets its full value table and pair gains from the
superset-sum transform, and every explicit table from its observation rows
(see the ``model`` module docstring); the world-by-world kernel runs only
above ``EXACT_CAP``.  Every table must equal that kernel's values and the
direct sums of ``helpers`` (``==``), and the table with each pinned pair's
gains added keeps the SHA-256 digests in ``tests/data/pinned_tables.json``
for every case below with every (item, state) pair kappa reads.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stosub as ss
from stosub.model import EXACT_CAP, _Evaluator, _evaluator
from helpers import direct_set_value, direct_state_value, table_from_function
from test_independence_exact import CASES as EXACT_CASES

# The exact-oracles benchmark inputs: (generator, m, states, worlds); the
# instance at position j of seed s has generator seed 5 * s + j.
ORACLE_INPUTS = (
    ("common-cause", 6, 3, 24),
    ("product", 6, 2, 0),
    ("common-cause", 5, 3, 16),
    ("common-cause", 5, 2, 12),
    ("product", 5, 2, 0),
)


def _oracle_input(seed, j):
    family, m, states, worlds = ORACLE_INPUTS[j]
    gen_seed = seed * len(ORACLE_INPUTS) + j
    if family == "product":
        return ss.generate_product(m, states_per_item=states, seed=gen_seed)
    return ss.generate_common_cause(m, states, worlds, gen_seed)


def _cases() -> dict:
    """Name -> builder: the dense-ascent and exact-oracles benchmark inputs
    at seeds 0-2, a product prior at m = 10 (1,024 worlds), a common-cause
    prior at m = 10 with 31 tables, and every exact independence case."""
    cases = {}
    for seed in range(3):
        cases[f"dense-ascent-{seed}"] = (
            lambda seed=seed: ss.generate_common_cause(12, 3, 32, seed)
        )
        for j in range(len(ORACLE_INPUTS)):
            cases[f"exact-oracles-{seed}-{j}"] = lambda seed=seed, j=j: _oracle_input(
                seed, j
            )
    cases["product-m10"] = lambda: ss.generate_product(10, states_per_item=2, seed=0)
    cases["common-cause-m10"] = lambda: ss.generate_common_cause(10, 3, 24, seed=0)
    cases.update({f"exact-{name}": build for name, build in EXACT_CASES.items()})
    return cases


CASES = _cases()


def pinned_rows(ev) -> list:
    """The table, then the table plus G[:, e, o] for every (item, state)
    pair in item-major order: N(S) and N(S + (e, o)) of every mask S."""
    table, gains = ev.table(), ev.pair_gains()
    return [table, *(table + gains[:, e, o] for e, o in np.ndindex(gains.shape[1:]))]


def row_digest(row) -> str:
    """SHA-256 of a numerator row as comma-separated decimal integers, so the
    digest does not depend on the row's dtype."""
    return hashlib.sha256(",".join(map(str, row.tolist())).encode()).hexdigest()


@pytest.fixture(scope="module")
def instances():
    return {}


def _instance(instances, name):
    if name not in instances:
        instances[name] = CASES[name]()
    return instances[name]


PINNED = Path(__file__).parent / "data" / "pinned_tables.json"
PINNED_DIGESTS = json.loads(PINNED.read_text())["cases"]


@pytest.mark.parametrize("name", CASES)
def test_pinned_table_digests(instances, name):
    """Every row, unpinned and with every pair pinned, keeps its pinned
    digest (see the file's ``about``)."""
    rows = pinned_rows(_evaluator(_instance(instances, name)))
    assert [row_digest(row) for row in rows] == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", CASES)
def test_tables_match_the_world_kernel(instances, name):
    """``table`` equals the world-by-world kernel on every mask, dtype
    included."""
    inst = _instance(instances, name)
    ev = _evaluator(inst)
    got, want = ev.table(), ev._numerators(np.arange(1 << inst.m))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_tables_match_direct_sums(instances, name):
    """Rows against ``direct_set_value`` and ``direct_state_value`` straight
    off the support: every mask and pair up to m = 5, seeded samples above."""
    inst = _instance(instances, name)
    ev = _evaluator(inst)
    pins = [None, *itertools.product(range(inst.m), range(len(inst.states)))]
    rng = random.Random(name)
    masks = list(range(1 << inst.m))
    if inst.m > 5:
        masks = [0, masks[-1], *rng.sample(masks, 6)]
        pins = [None, *rng.sample(pins[1:], 3)]
    table, gains = ev.table(), ev.pair_gains()
    rows = [table if pin is None else table + gains[:, pin[0], pin[1]] for pin in pins]
    for mask in masks:
        members = [item for i, item in enumerate(inst.items) if mask >> i & 1]
        for pin, row in zip(pins, rows):
            if pin is None:
                want = direct_set_value(inst, members)
            else:
                item, state = inst.items[pin[0]], inst.states[pin[1]]
                want = direct_state_value(inst, members, item, state)
            assert row[mask] == want * ev.denominator


def test_cases_reach_both_dtypes_on_the_transform(instances):
    """The transform runs in int64 and in Python ints, and the explicit
    tables sum their observation rows."""
    dtypes = {}
    for name in EXACT_CASES:
        inst = _instance(instances, f"exact-{name}")
        dtypes.setdefault(inst.utility.kind, set()).add(
            _evaluator(inst).table().dtype
        )
    assert dtypes["weighted-coverage"] == {np.dtype(np.int64), np.dtype(object)}
    assert "explicit-table" in dtypes


@pytest.mark.parametrize(
    "tiny, big, dtypes",
    [
        (0.25, 3.0, (np.int64, np.int64)),
        (2.0**-70, 3.0, (object, object)),  # 2**70 * 3 passes 2**63
        (0.5, 2.0**60, (np.int64, object)),  # only L * 2**61 passes it
    ],
)
def test_explicit_tables_on_both_dtypes(tiny, big, dtypes):
    """An explicit table holds 2**k f by ground mask as int64 below 2**63
    and as Python ints beyond; the evaluator casts them to the table's
    dtype, and the table and pair gains equal the direct sums on each."""
    items, states = ("a", "b"), ("x", "y")
    weight = dict(zip(itertools.product(items, states), (tiny, 1.0, big, 0.5)))
    utility = table_from_function(weight, lambda s: sum(weight[p] for p in s))
    worlds = list(itertools.product(states, repeat=2))
    distribution = ss.JointDistribution(
        tuple(
            (ss.Realization(tuple(zip(items, world))), Fraction(1 << w, 15))
            for w, world in enumerate(worlds)
        )
    )
    inst = ss.Instance(items, states, distribution, utility)
    ev = _evaluator(inst)
    held, cast = map(np.dtype, dtypes)
    assert (utility._scaled_values.dtype, ev.table().dtype) == (held, cast)
    gains = ev.pair_gains()
    for mask in range(1 << inst.m):
        members = [item for i, item in enumerate(items) if mask >> i & 1]
        assert ev.table()[mask] == direct_set_value(inst, members) * ev.denominator
        for (e, o), (item, state) in zip(
            np.ndindex(gains.shape[1:]), itertools.product(items, states)
        ):
            want = direct_state_value(inst, members, item, state)
            assert ev.table()[mask] + gains[mask, e, o] == want * ev.denominator


def test_coverage_without_targets():
    """No targets: the table and the pair gains are 0, and so is the world
    kernel (whose reshape of its empty codes used to raise)."""
    base = ss.generate_common_cause(3, 2, 4, seed=0)
    utility = ss.WeightedCoverage.build(
        targets=(),
        weights={},
        coverage={(i, s): () for i in base.items for s in base.states},
    )
    inst = ss.Instance(base.items, base.states, base.distribution, utility)
    ev = _evaluator(inst)
    assert not ev.table().any()
    assert ev.pair_gains().shape == (8, 3, 2) and not ev.pair_gains().any()
    assert not ev._numerators(np.arange(8)).any()
    assert not ev._numerators(np.array([0, 5, 7])).any()
    assert ss.expected_set_value(inst, base.items) == 0.0


def _counted_kernel(monkeypatch) -> list:
    """Record each call of the world kernel (the string "numerators") and
    of ``union_gains`` (the string "union")."""
    calls, kernel, unions = [], _Evaluator._numerators, _Evaluator.union_gains

    def counted(self, masks):
        calls.append("numerators")
        return kernel(self, masks)

    def counted_unions(self, items, a, b):
        calls.append("union")
        return unions(self, items, a, b)

    monkeypatch.setattr(_Evaluator, "_numerators", counted)
    monkeypatch.setattr(_Evaluator, "union_gains", counted_unions)
    return calls


def test_exact_coverage_skips_the_world_kernel(monkeypatch):
    """The full table and the pair gains of a coverage utility, and every
    read built on them, never call the world-by-world kernel or
    ``union_gains``."""
    calls = _counted_kernel(monkeypatch)
    inst = ss.generate_common_cause(8, 3, 12, seed=4)
    ev = _evaluator(inst)
    ev.table()
    ev.pair_gains()
    ev.gains()
    ss.expected_set_value(inst, inst.items[:3])
    ss.kappa(inst)
    ss.gamma(inst)
    assert calls == []


EXPLICIT_CASES = {"exact-explicit-table", "exact-non-monotone-table"}


@pytest.mark.parametrize("name", CASES)
def test_no_coverage_case_reaches_the_world_kernel(monkeypatch, name):
    """Below ``EXACT_CAP`` every case, decimal weights and explicit tables
    included, builds its table, pair gains, gains, set values and (where its
    observation table is admitted) kappa, gamma and both oracles without
    the world kernel; coverage needs no ``union_gains`` either."""
    calls = _counted_kernel(monkeypatch)
    inst = CASES[name]()
    assert inst.m <= EXACT_CAP
    assert (inst.utility.kind == "explicit-table") == (name in EXPLICIT_CASES)
    ev = _evaluator(inst)
    ev.table()
    ev.pair_gains()
    ev.gains()
    ss.expected_set_value(inst, inst.items[::2])
    ss.best_nonadaptive(inst, ss.UniformMatroid(2))
    if len(ev.worlds) << inst.m <= 1 << EXACT_CAP:
        ss.kappa(inst)
        ss.gamma(inst)
        ss.optimal_adaptive(inst, ss.UniformMatroid(2))
    assert "numerators" not in calls
    assert name in EXPLICIT_CASES or calls == []


def test_sampled_estimate_above_the_cap_reaches_the_world_kernel(monkeypatch):
    """Above ``EXACT_CAP`` a sampled estimate values its masks in the world
    kernel, the one caller left."""
    calls = _counted_kernel(monkeypatch)
    inst = ss.generate_common_cause(EXACT_CAP + 1, 2, 3, seed=0)
    x = ss.FractionalPoint(inst.items, (0.5,) * inst.m)
    ss.multilinear_estimate(inst, x, 8, seed=0)
    assert calls == ["numerators"]
    assert _evaluator(inst)._numerator_table is None


def _decimal_instance():
    """Weights 0.1, 0.2 and 0.3, whose float sums round: 0.1 + 0.2 + 0.3 is
    0.6000000000000001, while their exact sum rounds to 0.6."""
    base = ss.generate_common_cause(4, 2, 6, seed=3)
    targets = ("t1", "t2", "t3")
    rng = random.Random(3)
    utility = ss.WeightedCoverage.build(
        targets=targets,
        weights={"t1": 0.1, "t2": 0.2, "t3": 0.3},
        coverage={
            (i, s): tuple(t for t in targets if rng.random() < 0.5)
            for i in base.items
            for s in base.states
        },
    )
    return ss.Instance(base.items, base.states, base.distribution, utility)


def test_decimal_coverage_skips_the_world_kernel(monkeypatch):
    """Decimal weights take the transform too, and every set value equals
    the exact ``direct_set_value``, rounded once."""
    calls = _counted_kernel(monkeypatch)
    inst = _decimal_instance()
    every = [(i, s) for i in inst.items for s in inst.states]
    assert inst.utility.evaluate(every) == 0.6 != 0.1 + 0.2 + 0.3
    ev = _evaluator(inst)
    ev.table()
    ev.pair_gains()
    assert calls == []
    for mask in range(1 << inst.m):
        members = [item for i, item in enumerate(inst.items) if mask >> i & 1]
        want = direct_set_value(inst, members)
        assert ss.expected_set_value_exact(inst, members) == want
        assert ss.expected_set_value(inst, members) == float(want)
