"""Full coverage tables from the superset-sum transform.

Every coverage utility gets its full value tables from one superset-sum
transform per table (see the ``model`` module docstring); explicit tables
keep the world-by-world kernel.  Every row must equal that kernel's row and
the direct sums of ``helpers`` (``==``), and keep the SHA-256 digests in
``tests/data/pinned_tables.json`` for every case below with every pin kappa
asks for.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import stosub as ss
from stosub.model import EXACT_CAP, _Evaluator, _evaluator
from helpers import direct_set_value, direct_state_value
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


def kappa_pins(instance) -> list:
    """The tables kappa reads: unpinned, then every (item, state) pin."""
    return [None, *itertools.product(range(instance.m), range(len(instance.states)))]


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
    """Every row, unpinned and under every kappa pin, keeps its pinned
    digest (see the file's ``about``)."""
    inst = _instance(instances, name)
    rows = _evaluator(inst).tables(kappa_pins(inst))
    assert [row_digest(row) for row in rows] == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", CASES)
def test_tables_match_the_world_kernel(instances, name):
    """``tables`` equals the kept world-by-world kernel, dtype included."""
    inst = _instance(instances, name)
    ev = _evaluator(inst)
    pins = kappa_pins(inst)
    got, want = ev.tables(pins), ev._numerators(None, pins)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_tables_match_direct_sums(instances, name):
    """Rows against ``direct_set_value`` and ``direct_state_value`` straight
    off the support: every mask and pin up to m = 5, seeded samples above."""
    inst = _instance(instances, name)
    ev = _evaluator(inst)
    pins = kappa_pins(inst)
    rng = random.Random(name)
    masks = list(range(1 << inst.m))
    if inst.m > 5:
        masks = [0, masks[-1], *rng.sample(masks, 6)]
        pins = [None, *rng.sample(pins[1:], 3)]
    rows = ev.tables(pins)
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
    tables keep the world kernel."""
    dtypes = {}
    for name in EXACT_CASES:
        inst = _instance(instances, f"exact-{name}")
        dtypes.setdefault(inst.utility.kind, set()).add(
            _evaluator(inst).tables([None]).dtype
        )
    assert dtypes["weighted-coverage"] == {np.dtype(np.int64), np.dtype(object)}
    assert "explicit-table" in dtypes


def test_coverage_without_targets():
    """No targets: every table is 0 on both kernels (the world kernel's
    reshape of its empty codes used to raise)."""
    base = ss.generate_common_cause(3, 2, 4, seed=0)
    utility = ss.WeightedCoverage.build(
        targets=(),
        weights={},
        coverage={(i, s): () for i in base.items for s in base.states},
    )
    inst = ss.Instance(base.items, base.states, base.distribution, utility)
    ev = _evaluator(inst)
    pins = kappa_pins(inst)
    assert not ev.tables(pins).any()
    assert not ev._numerators(None, pins).any()
    assert not ev._numerators(np.array([0, 5, 7])).any()
    assert ss.expected_set_value(inst, base.items) == 0.0


def _counted_kernel(monkeypatch) -> list:
    """Record each call of the world kernel (whether it built full tables)
    and of ``union_gains`` (the string "union")."""
    calls, kernel, unions = [], _Evaluator._numerators, _Evaluator.union_gains

    def counted(self, masks, pins=(None,)):
        calls.append(masks is None)
        return kernel(self, masks, pins)

    def counted_unions(self, items, a, b):
        calls.append("union")
        return unions(self, items, a, b)

    monkeypatch.setattr(_Evaluator, "_numerators", counted)
    monkeypatch.setattr(_Evaluator, "union_gains", counted_unions)
    return calls


def test_exact_coverage_skips_the_world_kernel(monkeypatch):
    """Full tables of a coverage utility, pinned or not, and every read
    built on them, never call the world-by-world kernel or ``union_gains``."""
    calls = _counted_kernel(monkeypatch)
    inst = ss.generate_common_cause(8, 3, 12, seed=4)
    ev = _evaluator(inst)
    ev.tables(kappa_pins(inst))
    ev.gains()
    ss.expected_set_value(inst, inst.items[:3])
    ss.kappa(inst)
    ss.gamma(inst)
    assert calls == []


EXPLICIT_CASES = {"exact-explicit-table", "exact-non-monotone-table"}
COVERAGE_CASES = [name for name in CASES if name not in EXPLICIT_CASES]


@pytest.mark.parametrize("name", COVERAGE_CASES)
def test_no_coverage_case_reaches_the_world_kernel(monkeypatch, name):
    """Below ``EXACT_CAP`` every coverage case, decimal weights included,
    builds its tables, gains, set values and (where its observation table
    is admitted) kappa, gamma and the adaptive oracle without the world
    kernel or ``union_gains``."""
    calls = _counted_kernel(monkeypatch)
    inst = CASES[name]()
    assert inst.utility.kind == "weighted-coverage" and inst.m <= EXACT_CAP
    ev = _evaluator(inst)
    ev.tables(kappa_pins(inst))
    ev.gains()
    ss.expected_set_value(inst, inst.items[::2])
    if len(ev.worlds) << inst.m <= 1 << EXACT_CAP:
        ss.kappa(inst)
        ss.gamma(inst)
        ss.optimal_adaptive(inst, ss.UniformMatroid(2))
    assert calls == []


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
    ev.tables(kappa_pins(inst))
    assert calls == []
    for mask in range(1 << inst.m):
        members = [item for i, item in enumerate(inst.items) if mask >> i & 1]
        want = direct_set_value(inst, members)
        assert ss.expected_set_value_exact(inst, members) == want
        assert ss.expected_set_value(inst, members) == float(want)
