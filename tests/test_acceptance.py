"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass/fail line (run pytest with -s to see them all;
failures surface the line in the captured output).  Expected values come
from the independent oracles in helpers.py or from exact enumeration, never
from the code paths under test.
"""

import itertools
import math
import random
import statistics
import time
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import stosub as ss
from stosub import harness
from stosub.cli import BUNDLED_SUITE, main
from helpers import direct_multilinear

EXACT_TOL = 1e-9
FRACTIONAL_ENDPOINTS = Path(__file__).parent / "data" / "fractional_endpoints.json"


def _report(criterion: int, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"[acceptance {criterion}] {status} — {detail} ({elapsed:.2f}s, limit {limit:.0f}s)"
    )
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.2f}s)"


def _bundled_scenarios():
    return harness.load_scenarios(BUNDLED_SUITE)


def _ratio_scenarios():
    return [
        s
        for s in _bundled_scenarios()
        if s.kind == "ratio-check" and s.constraint.kind in ("uniform", "partition")
    ]


def test_acceptance_1_independence_baselines():
    start = time.perf_counter()
    shapes = list(itertools.product([1, 2, 3, 4], [2, 3]))
    checked = 0
    for seed in range(25):
        m, states = shapes[seed % len(shapes)]
        inst = ss.generate_product(m, states_per_item=states, seed=seed)
        assert ss.kappa(inst).value == Fraction(1), (m, states, seed)
        assert ss.gamma(inst).value == Fraction(1), (m, states, seed)
        checked += 1
    _report(
        1,
        checked == 25,
        f"kappa = gamma = 1 exactly on {checked} product instances",
        time.perf_counter() - start,
        10.0,
    )


def test_acceptance_2_multilinear_correctness():
    start = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for k in range(20):
        m = 2 + k % 4  # 2..5
        if k % 2:
            inst = ss.generate_product(m, states_per_item=2, seed=k)
        else:
            inst = ss.generate_common_cause(m, 2, 3 + k % 3, seed=k)
        x = ss.FractionalPoint(
            inst.items, tuple(rng.random() for _ in inst.items)
        )
        got = ss.multilinear_value(inst, x)
        want = direct_multilinear(inst, x.as_dict())
        worst = max(worst, abs(got - want))
    agree = worst <= 1e-12

    inst = ss.generate_common_cause(3, 2, 4, seed=0)
    half = ss.FractionalPoint(inst.items, (0.5,) * inst.m)
    exact = ss.multilinear_value(inst, half)
    means, ses = [], []
    for seed in range(10_000):
        est = ss.multilinear_estimate(inst, half, sample_count=100, seed=seed)
        means.append(est.mean)
        ses.append(est.std_error)
    grand = statistics.fmean(means)
    combined = math.sqrt(sum(se * se for se in ses)) / len(ses)
    unbiased = abs(grand - exact) <= 4.0 * combined
    _report(
        2,
        agree and unbiased,
        f"exact-vs-enumeration max |diff| = {worst:.2e}; "
        f"grand mean off by {abs(grand - exact):.2e} <= 4 x {combined:.2e}",
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_3_optimistic_dominance_and_excision():
    start = time.perf_counter()
    rng = random.Random(99)
    triples = 0
    instances = [
        ss.generate_common_cause(3, 2, 4, seed=s) for s in range(5)
    ] + [ss.generate_product(4, states_per_item=2, seed=s) for s in range(5)]
    while triples < 200:
        inst = instances[triples % len(instances)]
        x = ss.FractionalPoint(inst.items, tuple(rng.random() for _ in inst.items))
        for item in inst.items:
            optimistic = ss.optimistic_weight(inst, x, item)
            standard = ss.standard_weight(inst, x, item)
            assert optimistic >= standard - 1e-12
            assert abs(standard - (1.0 - x.value_of(item)) * optimistic) <= 1e-12
            triples += 1
            if triples == 200:
                break
    _report(
        3,
        True,
        "dominance and excision identity hold on 200 seeded triples",
        time.perf_counter() - start,
        30.0,
    )


def test_acceptance_4_inner_bound_along_ascent():
    start = time.perf_counter()
    scenarios = _ratio_scenarios()
    assert len(scenarios) >= 10
    checked = vacuous = 0
    for scenario in scenarios:
        inst = scenario.instance.resolve()
        assert 2 <= inst.m <= 4
        clamped = float(ss.kappa(inst).clamped)
        assert clamped > 0, scenario.name
        _, opt = ss.optimal_adaptive(inst, scenario.constraint)
        config = ss.GreedyConfig(delta=0.05, weight_mode="exact")
        value = ss.multilinear_value(
            inst, ss.run(inst, scenario.constraint, config).final
        )
        bound = ss.ratio_bound(clamped, inst.m)
        if bound <= 0:
            vacuous += 1  # negative closed form: vacuously true, marked
        else:
            assert value >= bound * opt - EXACT_TOL, scenario.name
        checked += 1
    _report(
        4,
        checked == len(scenarios),
        f"inner bound held on {checked} scenarios ({vacuous} vacuous, "
        f"{checked - vacuous} binding)",
        time.perf_counter() - start,
        300.0,
    )


def test_acceptance_5_rounding_guarantee():
    start = time.perf_counter()
    scenarios = _ratio_scenarios()[:10]
    assert len(scenarios) == 10
    # Their ascents end at fractional points, so rounding makes swap moves.
    fractional = harness.load_scenarios(FRACTIONAL_ENDPOINTS)
    assert len(fractional) == 4
    branching = 0
    for scenario in scenarios + fractional:
        inst = scenario.instance.resolve()
        final = ss.run(inst, scenario.constraint, scenario.greedy).final
        extension = ss.multilinear_value(inst, final)
        dist = ss.exact_distribution(inst, scenario.constraint, final)
        support = {chosen for chosen, _ in dist}
        branching += len(support) > 1
        values = []
        for seed in range(20_000):
            chosen = ss.pipage_round(inst, scenario.constraint, final, seed)
            assert chosen in support, scenario.name
            assert ss.is_feasible(scenario.constraint, chosen)
            values.append(ss.expected_set_value(inst, chosen))
        mean = statistics.fmean(values)
        se = (
            statistics.stdev(values) / math.sqrt(len(values))
            if max(values) > min(values)
            else 0.0
        )
        assert mean >= extension - 4.0 * se - EXACT_TOL, scenario.name
    assert branching >= len(fractional)
    _report(
        5,
        True,
        f"rounded mean dominated the extension on {len(scenarios + fractional)} "
        f"scenarios ({branching} rounding a fractional point) x 20000 seeds, all "
        "sets feasible and in the exact distribution's support",
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_6_virtual_policy_bound():
    start = time.perf_counter()
    checked = 0
    for scenario in _bundled_scenarios():
        inst = scenario.instance.resolve()
        policy, opt = ss.optimal_adaptive(inst, scenario.constraint)
        virtual = ss.virtual_nonadaptive_value(inst, scenario.constraint, policy)
        clamped = float(ss.gamma(inst).clamped)
        threshold = clamped / (1.0 + clamped) if clamped > 0 else 0.0
        assert virtual >= threshold * opt - EXACT_TOL, scenario.name
        if scenario.instance.generator == "product":
            assert threshold == 0.5, scenario.name
        checked += 1
    _report(
        6,
        checked > 0,
        f"virtual policy beat gamma/(1+gamma) x optimum on {checked} scenarios",
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_7_policy_upper_bound_sweep():
    start = time.perf_counter()
    points = 0
    for scenario in _bundled_scenarios():
        inst = scenario.instance.resolve()
        policy, _ = ss.optimal_adaptive(inst, scenario.constraint)
        clamped = ss.kappa(inst).clamped
        if clamped == 0:
            continue
        rng = random.Random(zlib.crc32(scenario.name.encode()))
        for _ in range(50):
            x = ss.FractionalPoint(
                inst.items, tuple(rng.random() for _ in inst.items)
            )
            check = ss.optimal_upper_bound_check(inst, policy, x, clamped)
            assert check.holds, (scenario.name, x.as_dict())
            points += 1
    _report(
        7,
        points >= 50 * 10,
        f"policy value upper bound held on {points} sampled points",
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_8_lp_oracle_equivalence():
    start = time.perf_counter()
    from helpers import lp_vertex_oracle

    rng = random.Random(412)
    items = ["a", "b", "c", "d", "e"]
    pairs = 0
    while pairs < 100:
        weights = {i: round(rng.uniform(0.0, 6.0), 4) for i in items}
        kind = pairs % 4
        if kind == 0:
            constraint = ss.UniformMatroid(rank=rng.randint(0, 5))
        elif kind == 1:
            constraint = ss.PartitionMatroid(
                blocks=(("a", "b"), ("c", "d", "e")),
                capacities=(rng.randint(0, 2), rng.randint(0, 2)),
            )
        elif kind == 2:
            constraint = ss.Knapsack(
                costs=tuple((i, float(rng.randint(0, 6))) for i in items),
                budget=float(rng.randint(3, 12)),
            )
        else:
            family = [()]
            for size in (1, 2):
                for combo in itertools.combinations(items, size):
                    if rng.random() < 0.5:
                        family.append(combo)
            constraint = ss.ExplicitFamily(
                feasible_sets=tuple(family), downward_closed=False
            )
        got = ss.lp_maximize(constraint, weights).objective
        want = lp_vertex_oracle(constraint, weights)
        assert abs(got - want) <= EXACT_TOL, (constraint, weights)
        pairs += 1
    _report(
        8,
        True,
        "lp optimum matched vertex enumeration on 100 seeded pairs, all kinds",
        time.perf_counter() - start,
        10.0,
    )


def test_acceptance_9_determinism(tmp_path):
    start = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--bundled", "--out-dir", str(out_a)]) == 0
    assert main(["experiment", "--bundled", "--out-dir", str(out_b)]) == 0
    tsv_same = (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()
    json_same = (
        out_a / "report.json"
    ).read_bytes() == (out_b / "report.json").read_bytes()
    _report(
        9,
        tsv_same and json_same,
        "two bundled experiment runs produced byte-identical reports",
        time.perf_counter() - start,
        300.0,
    )
