"""kappa and gamma equal the Fraction-per-ratio loop on the whole report.

``helpers.loop_kappa`` and ``helpers.loop_gamma`` value every ratio as a
``Fraction`` straight off the support and ``helpers.direct_value``, in the
library's enumeration order, so value, clamp, witness (the first strict
minimum) and ``ratios_examined`` must all agree.  The cases cover ties at 0,
single-state items, an explicit table and a non-monotone one (negative
denominators), non-dyadic weights whose scale forces Python-int numerators,
a prior whose LCD is about 10**60, one whose numerators fit int64 but whose
ratio products do not, a common-cause prior at m=5, and twin observations
(proportional, unequal weight rows) in int64 and in Python ints.  The
benchmark's m=6 instances are pinned to the reports the per-item kernel gave.
"""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stosub as ss
from stosub import fileio, independence
from stosub.model import _evaluator
from conftest import observation_weights
from helpers import (
    direct_conditional,
    direct_set_value,
    direct_state_value,
    gamma_pair_ratio,
    indexed_observations,
    loop_gamma,
    loop_kappa,
    loop_optimal_adaptive,
    loop_twins,
    table_from_function,
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
    utility = table_from_function(
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


def _copied_state(seed, denominators):
    """Four items: e3 takes e1's state with probability 3/4, and e2 and e4,
    whose marginals have the prime ``denominators``, are independent of the
    rest.  So observations that differ only in e2 or e4 are twins: their
    weight rows are proportional, scaled by those marginals, and unequal."""
    rng = random.Random(seed)
    marginals = []
    for q in (2, *denominators, 2):
        a = rng.randrange(1, q)
        marginals.append([("s1", Fraction(a, q)), ("s2", Fraction(q - a, q))])
    product = ss.generate_product(4, per_item_marginals=marginals, seed=seed)
    entries = []
    for realization, p in product.distribution.entries:
        state = realization.as_dict()
        marginal = dict(marginals[2])[state["e3"]]
        copied = Fraction(3, 4) if state["e3"] == state["e1"] else Fraction(1, 4)
        entries.append((realization, p / marginal * copied))
    return ss.Instance(
        items=product.items,
        states=product.states,
        distribution=ss.JointDistribution(tuple(entries)),
        utility=product.utility,
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
    "twins-int64": lambda: _copied_state(7, (5, 7)),
    "twins-python-ints": lambda: _copied_state(8, (10**20 + 39, 10**20 + 129)),
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
    """gamma values each unordered pair of groups once, in both orientations.
    Valued one pair at a time by the definition, the ordered pairs give the
    report's count and minimum, 1 on the diagonal, and (b, a) the reciprocal
    of (a, b), the symmetry the two orientations rely on."""
    inst = instances[name]
    ev = _evaluator(inst)
    table = ev.observations()
    report = ss.gamma(inst)
    ratios = []
    for e, item in enumerate(inst.items):
        for vmask in range(1 << inst.m):
            if vmask >> e & 1:
                continue
            obs = [
                {
                    item: inst.states[ev.worlds[w][0][j]]
                    for j, item in enumerate(inst.items)
                    if vmask >> j & 1
                }
                for w in table.worlds[table.masks == vmask].tolist()
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


def test_raw_minimum_never_exceeds_one(instances):
    """Both enumerations hold a ratio of exactly 1 (kappa at S = V = {}, where
    numerator and denominator are equal; gamma at position 0), so the raw
    minimum is at most 1 and ``clamped`` equals it, on monotone instances
    and on non-monotone tables with f({}) > 0, whose negative minima stay
    negative."""
    tables = [
        _table(seed, (0.0, 0.5, 1.0, 1.25, 2.0), shape)
        for seed in range(20)
        for shape in (lambda t: abs(t - 1.5), lambda t: 1 + math.sin(2 * t))
    ]
    negative = 0
    for inst in [*instances.values(), *tables]:
        for measure in (ss.kappa, ss.gamma):
            report = measure(inst)
            assert report.value <= 1 and report.clamped == report.value
            negative += report.value < 0
    assert negative > 0


def test_cases_reach_ties_and_python_ints(instances):
    """The cases above exercise what they claim to."""
    assert ss.kappa(instances["cc-m4-ties"]).value == 0
    assert ss.gamma(instances["cc-m4-ties"]).value == 0
    assert instances["single-state"].states == ("s1",)
    assert math.lcm(
        *(p.denominator for _, p in instances["huge-lcd"].distribution.entries)
    ) > 10**59
    for name in ("third-weights", "huge-lcd"):
        assert _evaluator(instances[name]).table().dtype == object
    # Ratios are products with the observation weights, so those carry the
    # dtype: int64 numerators, yet Python-int ratios, on "wide-products".
    for name, tables, ratios in [
        ("cc-m5", np.int64, np.int64),
        ("wide-products", np.int64, object),
        ("huge-lcd", object, object),
    ]:
        ev = _evaluator(instances[name])
        assert ev.table().dtype == tables
        assert observation_weights(ev.observations()).dtype == ratios


@pytest.mark.parametrize("name", CASES)
def test_observation_table_invariants(instances, name):
    """Read back against the support by plain loops: one row per
    observation (mask, observed states), mask-ascending and then in sorted
    state order, each named by its first world; the (mask, world) -> row
    map, rebuilt from the support, reaches every row; a row's total is the
    sum of a_w over its worlds and its W sums them by each item's state;
    its children are the rows those worlds map to under each grown mask, the
    number of rows where no world has the state; and twins equal the
    reference, in int64 and in Python ints alike."""
    inst = instances[name]
    ev = _evaluator(inst)
    table = ev.observations()
    masks, firsts = table.masks.tolist(), table.worlds.tolist()
    totals, children = table.totals.tolist(), table.children.tolist()
    weights = observation_weights(table)
    assert table.totals.dtype == weights.dtype
    weights, count, radix = weights.tolist(), len(masks), len(inst.states)

    def observation(mask, w):
        return mask, tuple(s for i, s in enumerate(ev.worlds[w][0]) if mask >> i & 1)

    index = {observation(mask, w): r for r, (mask, w) in enumerate(zip(masks, firsts))}
    assert len(index) == count  # one row per observation, none shared
    assert list(index) == sorted(index)
    rows = [
        [index[observation(mask, w)] for w in range(len(ev.worlds))]
        for mask in range(1 << inst.m)
    ]
    members = [[] for _ in range(count)]
    for row_of in rows:
        for w, r in enumerate(row_of):
            members[r].append(w)
    for r, worlds in enumerate(members):
        assert worlds
        assert totals[r] == sum(ev.worlds[w][1] for w in worlds)
        for i in range(inst.m):
            by_state, grown = [0] * radix, [set() for _ in range(radix)]
            for w in worlds:
                states, a = ev.worlds[w]
                by_state[states[i]] += a
                grown[states[i]].add(rows[masks[r] | 1 << i][w])
            assert weights[r][i] == by_state
            assert all(len(g) <= 1 for g in grown)
            assert children[r][i] == [min(g, default=count) for g in grown]
    assert table.twins.tolist() == loop_twins(masks, weights)


@pytest.mark.parametrize(
    "name, dtype", [("twins-int64", np.int64), ("twins-python-ints", object)]
)
def test_twin_cases_have_proportional_unequal_rows(instances, name, dtype):
    """Some observation's weight row for an item is a proper multiple of an
    earlier one's of the same mask, and some pair of the same mask is not
    proportional, so kappa and gamma drop some rows and pairs but not all."""
    table = _evaluator(instances[name]).observations()
    rows = observation_weights(table)
    assert rows.dtype == dtype
    rows = rows.tolist()
    unequal_twins = distinct = 0
    for r, s in itertools.combinations(range(len(rows)), 2):
        for e in range(4):
            if table.masks[r] != table.masks[s] or table.masks[r] >> e & 1:
                continue
            a, b = rows[r][e], rows[s][e]
            twins = a[0] * b[1] == a[1] * b[0]  # two states
            assert (table.twins[r, e] == table.twins[s, e]) == twins
            unequal_twins += twins and a != b
            distinct += not twins
    assert unequal_twins > 0 and distinct > 0


def test_non_monotone_table_reaches_negative_denominators(instances):
    inst = instances["non-monotone-table"]
    assert not inst.utility.validity().monotone
    report = ss.kappa(inst)
    w = report.witness
    base = direct_set_value(inst, w.base)
    denominator = sum(
        q * (direct_state_value(inst, w.base, w.item, s) - base)
        for s, q in direct_conditional(inst, w.item, w.observation.as_dict())
    )
    assert report.value < 0 and denominator < 0


def _counting(monkeypatch, inst, name) -> list:
    """Record the pairs each call of the evaluator method ``name`` values on
    ``inst``: the length of its last argument."""
    ev = _evaluator(inst)
    calls, method = [], getattr(ev, name)

    def counted(*args):
        calls.append(len(args[-1]))
        return method(*args)

    monkeypatch.setattr(ev, name, counted)
    return calls


def test_gamma_values_no_pair_on_a_product_prior(instances, monkeypatch):
    """Every observation of a product prior has one conditional per item, so
    every ratio is 1 and no pair is valued; the count still covers every
    ordered pair, (1 + 3**2)**2 per item of three."""
    inst = instances["product"]
    calls = _counting(monkeypatch, inst, "union_dots")
    report = ss.gamma(inst)
    assert sum(calls) == 0
    assert report == loop_gamma(inst)
    assert report.value == 1 and report.ratios_examined == 3 * 10**2


def _group_pairs(inst) -> int:
    """Unordered pairs of groups of one mask's observations, over the items
    they avoid, whose conditionals of the item differ.  A group is the
    observations with one conditional (weight rows proportional) and one
    set of covered targets among those the item can cover; counted from the
    support and the coverage map, not from the library's table."""
    cover = dict(inst.utility.coverage)
    pairs = 0
    for e, item in enumerate(inst.items):
        reach = {t for s in inst.states for t in cover[(item, s)]}
        for vmask in range(1 << inst.m):
            if vmask >> e & 1:
                continue
            observed = [i for j, i in enumerate(inst.items) if vmask >> j & 1]
            groups = set()
            for obs in indexed_observations(inst, observed):
                conditional = tuple(direct_conditional(inst, item, obs))
                covered = {t for i, s in obs.items() for t in cover[(i, s)]}
                groups.add((conditional, frozenset(covered & reach)))
            pairs += sum(a[0] != b[0] for a, b in itertools.combinations(groups, 2))
    return pairs


def test_gamma_values_each_pair_of_distinct_groups_once(instances, monkeypatch):
    """The pairs valued are the unordered pairs of groups of one mask's
    observations with different conditionals, and no union is built, since
    the case's coverage sums are exact; twin observations and observations
    that differ only in targets the item cannot cover share a group."""
    inst = instances["twins-int64"]
    union_gains = _counting(monkeypatch, inst, "union_gains")
    calls = _counting(monkeypatch, inst, "union_dots")
    report = ss.gamma(inst)
    assert report == loop_gamma(inst)
    assert union_gains == []
    assert 0 < sum(calls) == _group_pairs(inst) < report.ratios_examined // 2


@pytest.mark.parametrize("name", ["explicit-table", "non-monotone-table"])
def test_gamma_values_unions_on_explicit_tables(instances, monkeypatch, name):
    """Explicit tables value each valued pair's union through
    ``union_gains``, one union per pair."""
    inst = instances[name]
    unions = _counting(monkeypatch, inst, "union_gains")
    calls = _counting(monkeypatch, inst, "union_dots")
    report = ss.gamma(inst)
    assert report == loop_gamma(inst)
    assert 0 < sum(unions) == sum(calls)


@pytest.mark.parametrize("name", ["third-weights", "huge-lcd"])
def test_gamma_values_no_union_on_decimal_coverage(instances, monkeypatch, name):
    """Weights whose float sums round still give exact sums, so gamma values
    their pairs without a union (on Python-int units here)."""
    inst = instances[name]
    unions = _counting(monkeypatch, inst, "union_gains")
    calls = _counting(monkeypatch, inst, "union_dots")
    report = ss.gamma(inst)
    assert report == loop_gamma(inst)
    assert unions == [] and sum(calls) > 0


@pytest.mark.parametrize(
    "weights, shift",
    [((1e-9 / 3, 1e9), 84), ((5e-324, 1.0), 1074)],
    ids=["third-of-1e-9", "least-subnormal"],
)
def test_python_int_units_match_the_loops(weights, shift):
    """Weights far apart in scale give Python-int units (2**1074 overflows a
    float, so the units come from the weights' exact ratios), and every
    exact read equals its Fraction loop: the value table, kappa, gamma and
    the adaptive oracle."""
    inst = _reweighted(ss.generate_common_cause(4, 2, 7, seed=6), weights)
    ev = _evaluator(inst)
    assert ev.denominator == ev.lcd << shift and ev._units.dtype == object
    for mask in range(1 << inst.m):
        members = [item for i, item in enumerate(inst.items) if mask >> i & 1]
        assert ss.expected_set_value_exact(inst, members) == direct_set_value(
            inst, members
        )
    assert ss.kappa(inst) == loop_kappa(inst)
    assert ss.gamma(inst) == loop_gamma(inst)
    for k in (1, 2):
        policy, value = ss.optimal_adaptive(inst, ss.UniformMatroid(k))
        want_policy, want_value = loop_optimal_adaptive(inst, ss.UniformMatroid(k))
        assert value == want_value
        assert fileio.policy_to_obj(policy) == fileio.policy_to_obj(want_policy)


def test_gamma_lists_no_ordered_pair():
    """gamma's working memory at common-cause m = 9 (3 states, 24 worlds,
    seed 0; 10,264 observations, 875,548 ordered pairs), with the
    observation table built beforehand.  The kernel that listed every
    ordered pair peaked at 20.06 MiB under ``tracemalloc`` there; one that
    lists only the pairs of distinct groups, a batch of items at a time,
    stays below a third of that."""
    inst = ss.generate_common_cause(9, 3, 24, 0)
    _evaluator(inst).observations()
    tracemalloc.start()
    try:
        report = ss.gamma(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ratios_examined == 875548
    assert peak < 20.06 * 2**20 / 3


PINNED = Path(__file__).parent / "data" / "pinned_independence.json"


def _pinned_cases():
    return json.loads(PINNED.read_text())["cases"]


@pytest.mark.parametrize(
    "case",
    _pinned_cases(),
    ids=lambda c: f"{c['instance']['generator']}-seed{c['instance']['seed']}",
)
def test_benchmark_instances_keep_their_reports(case):
    """The exact-oracles benchmark's m=6 instances at seeds 0-2, against the
    reports of the kernel that valued every observation row."""
    spec = case["instance"]
    m, states, seed = spec["m"], spec["states"], spec["seed"]
    if spec["generator"] == "product":
        inst = ss.generate_product(m, states_per_item=states, seed=seed)
    else:
        inst = ss.generate_common_cause(m, states, spec["worlds"], seed)
    for name, measure in (("kappa", ss.kappa), ("gamma", ss.gamma)):
        report, want = measure(inst), case[name]
        assert str(report.value) == want["value"]
        assert str(report.clamped) == want["clamped"]
        assert report.witness.to_dict() == want["witness"]
        assert type(report.ratios_examined) is int
        assert report.ratios_examined == want["ratios_examined"]


PINNED_M8 = Path(__file__).parent / "data" / "pinned_independence_m8.json"


def _tabulated(instance, seed):
    """The instance's prior under an explicit table: the square root of the
    summed seeded weights of the picked pairs."""
    rng = random.Random(seed)
    ground = [(i, s) for i in instance.items for s in instance.states]
    weight = {pair: rng.choice((0.0, 1.0, 1 / 3, 2.5, 0.1)) for pair in ground}
    return ss.Instance(
        items=instance.items,
        states=instance.states,
        distribution=instance.distribution,
        utility=table_from_function(
            ground, lambda subset: math.sqrt(sum(weight[p] for p in subset))
        ),
    )


def _mixture(m, eps, states, worlds, seed):
    """(1 - eps) * product + eps * common-cause, both seeded by ``seed``, with
    the product's coverage utility.  With 2 states every common-cause world
    lies in the product support, so the support is the product's."""
    product = ss.generate_product(m, states_per_item=states, seed=seed)
    cause = dict(ss.generate_common_cause(m, states, worlds, seed).distribution.entries)
    entries = tuple(
        (r, (1 - eps) * p + eps * cause.pop(r, 0))
        for r, p in product.distribution.entries
    )
    assert not cause
    return ss.Instance(
        items=product.items,
        states=product.states,
        distribution=ss.JointDistribution(entries),
        utility=product.utility,
    )


def pinned_m8_instance(spec):
    """A mixture instance (``_mixture``), or a common-cause one with its
    target weights cycled from ``spec["weights"]`` or its utility replaced
    by ``_tabulated`` when the spec says so."""
    if spec["generator"] == "mixture":
        return _mixture(
            spec["m"], Fraction(spec["eps"]), spec["states"], spec["worlds"],
            spec["seed"],
        )
    inst = ss.generate_common_cause(
        spec["m"], spec["states"], spec["worlds"], spec["seed"]
    )
    if "weights" in spec:
        return _reweighted(inst, spec["weights"])
    if spec.get("table"):
        return _tabulated(inst, spec["seed"])
    return inst


@pytest.mark.parametrize(
    "case",
    json.loads(PINNED_M8.read_text())["cases"],
    ids=lambda c: "{}-m{}-seed{}".format(
        "table" if c["instance"].get("table")
        else "rounding" if "weights" in c["instance"]
        else "mixture" if c["instance"]["generator"] == "mixture" else "cc",
        c["instance"]["m"],
        c["instance"]["seed"],
    ),
)
def test_larger_instances_keep_their_reports(case):
    """Common-cause m = 7 and 8 (3 states, 24 worlds, seeds 0-1), and at
    m = 5 one coverage instance whose float sums round and one explicit
    table, against the reports of the kernel that listed every ordered pair
    of observations for gamma and valued kappa item by item.  The 1/1000
    mixture at m = 8 has kappa and gamma strictly inside (0, 1), each the
    minimum over several batches; its reports are those of the kernel that
    filtered each batch's candidates and then scanned them all once more."""
    inst = pinned_m8_instance(case["instance"])
    for name, measure in (("kappa", ss.kappa), ("gamma", ss.gamma)):
        report, want = measure(inst), case[name]
        assert str(report.value) == want["value"]
        assert str(report.clamped) == want["clamped"]
        assert report.witness.to_dict() == want["witness"]
        assert type(report.ratios_examined) is int
        assert report.ratios_examined == want["ratios_examined"]


def test_mixture_minimum_spans_batches(monkeypatch):
    """The pinned mixture's kappa and gamma each run over more than one
    batch of items, and neither value is 0 or 1, so its report pins a
    minimum chosen across batches."""
    runs, batches = [], independence._batches

    def counted(costs):
        runs.append(list(batches(costs)))
        return runs[-1]

    monkeypatch.setattr(independence, "_batches", counted)
    inst = _mixture(8, Fraction(1, 1000), 2, 4, 0)
    for measure in (ss.kappa, ss.gamma):
        assert 0 < measure(inst).value < 1
    assert [len(r) > 1 for r in runs] == [True, True]
