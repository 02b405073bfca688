import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stosub as ss
from stosub.model import _evaluator
from conftest import make_modular, make_single_item
from helpers import (
    direct_conditional,
    direct_set_value,
    direct_state_value,
    loop_validate_utility,
    table_from_function,
)


def coverage_abc():
    return ss.WeightedCoverage.build(
        targets=("t1", "t2", "t3"),
        weights={"t1": 1.0, "t2": 1.0, "t3": 1.0},
        coverage={
            ("a", "good"): ("t1", "t2"),
            ("a", "bad"): ("t1",),
            ("b", "good"): ("t2", "t3"),
            ("b", "bad"): ("t1", "t3"),
        },
    )


class TestEvaluate:
    def test_empty_set_is_zero(self):
        assert coverage_abc().evaluate([]) == 0.0

    def test_single_pair_sums_its_weights(self):
        assert coverage_abc().evaluate([("a", "good")]) == 2.0

    def test_union_coverage(self):
        assert coverage_abc().evaluate([("a", "good"), ("b", "good")]) == 3.0

    def test_duplicate_item_states_union(self):
        # The pipeline never produces conflicting states, but the oracle is total.
        assert coverage_abc().evaluate([("a", "good"), ("a", "bad")]) == 2.0

    def test_unknown_pair_rejected(self):
        with pytest.raises(ss.InputError):
            coverage_abc().evaluate([("a", "unknown")])


class TestExpectedSetValue:
    def test_empty_set(self, cc2):
        assert ss.expected_set_value(cc2, set()) == 0.0

    def test_two_state_mean(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 2.0}, {"hi": Fraction(1, 2), "lo": Fraction(1, 2)}
        )
        assert ss.expected_set_value(inst, {"e"}) == 3.0

    def test_cc2_matches_support_enumeration(self, cc2):
        for items in [set(), {"a"}, {"b"}, {"a", "b"}]:
            assert ss.expected_set_value(cc2, items) == pytest.approx(
                float(direct_set_value(cc2, items)), abs=0
            )

    def test_unknown_item(self, cc2):
        with pytest.raises(ss.InputError):
            ss.expected_set_value(cc2, {"zz"})


def pinned_gain(instance, base, item, state) -> Fraction:
    """E[f(base + (item, state))] - E[f(base)], exact, from the evaluator's
    pinned table (the one kappa reads)."""
    ev = _evaluator(instance)
    pin = (instance.item_index(item), instance.state_index(state))
    plain, pinned = ev.tables([None, pin])
    mask = ev.mask_of(base)
    return Fraction(int(pinned[mask] - plain[mask]), ev.denominator)


def observed_conditionals(instance, item, observed_items) -> dict:
    """The evaluator's ``observations`` as conditionals: each positive
    observation of ``observed_items`` (its (item, state) pairs in item order)
    maps to ``item``'s states with their conditional probabilities, sorted
    by state, as ``direct_conditional`` lists them."""
    ev = _evaluator(instance)
    vmask = ev.mask_of(observed_items)
    bits = [i for i in range(instance.m) if vmask >> i & 1]
    table = ev.observations()
    rows = table.masks == vmask
    weights = table.weights[rows, instance.item_index(item)]
    out = {}
    for w, row in zip(table.worlds[rows].tolist(), weights.tolist()):
        states = [instance.states[s] for s in ev.worlds[w][0]]
        observation = tuple((instance.items[i], states[i]) for i in bits)
        total = sum(row)
        out[observation] = sorted(
            (instance.states[o], Fraction(w, total)) for o, w in enumerate(row) if w
        )
    return out


def _gain(instance, base, item) -> Fraction:
    """Exact expected gain of adding ``item`` to the picked set ``base``."""
    value = ss.expected_set_value_exact
    return value(instance, set(base) | {item}) - value(instance, base)


class TestMarginal:
    def test_modular_marginal_is_weight(self, modular3):
        assert _gain(modular3, {"b", "c"}, "a") == 5

    def test_empty_base_definition(self, cc2):
        assert _gain(cc2, set(), "b") == ss.expected_set_value_exact(cc2, {"b"})

    def test_cc2_via_set_value_oracle(self, cc2):
        expected = direct_set_value(cc2, {"a", "b"}) - direct_set_value(cc2, {"a"})
        assert _gain(cc2, {"a"}, "b") == expected

    def test_never_negative(self, cc2, product3):
        for inst in (cc2, product3):
            for e in inst.items:
                others = [i for i in inst.items if i != e]
                for mask in range(1 << len(others)):
                    base = {others[i] for i in range(len(others)) if mask >> i & 1}
                    assert _gain(inst, base, e) >= 0


class TestStateMarginal:
    """The pinned tables kappa reads: E[f(S + (e, o))] - E[f(S)]."""

    def test_empty_base(self, cc2):
        assert pinned_gain(cc2, set(), "a", "good") == 2

    def test_deterministic_matches_marginal(self, modular3):
        assert pinned_gain(modular3, {"b"}, "a", "on") == _gain(modular3, {"b"}, "a")

    def test_cc2_brute_force(self, cc2):
        want = direct_state_value(cc2, {"a"}, "b", "good") - direct_set_value(
            cc2, {"a"}
        )
        assert pinned_gain(cc2, {"a"}, "b", "good") == want

    def test_averaging_identity_for_independent_items(self, product3):
        # With a product prior, mixing the state marginals with the item's own
        # marginal distribution reproduces the set marginal exactly.
        for e in product3.items:
            base = {i for i in product3.items if i != e}
            mixed = sum(
                q * pinned_gain(product3, base, e, s)
                for s, q in direct_conditional(product3, e, {})
            )
            assert mixed == _gain(product3, base, e)


def _observation_weight(instance, observation) -> Fraction:
    """Probability that the realization agrees with ``observation``."""
    return sum(
        (p for r, p in instance.distribution.entries
         if all(r.state_of(i) == s for i, s in observation)),
        Fraction(0),
    )


def brute_observation_table(ev) -> list:
    """(mask, first world, W, twins) per observation, mask by mask and keys
    sorted, straight off the evaluator's worlds."""
    m, s = ev.m, len(ev.instance.states)
    rows = []
    for mask in range(1 << m):
        groups: dict = {}
        for w, (states, _) in enumerate(ev.worlds):
            key = tuple(states[i] for i in range(m) if mask >> i & 1)
            groups.setdefault(key, []).append(w)
        for key in sorted(groups):
            members = [ev.worlds[w] for w in groups[key]]
            weights = []
            for i in range(m):
                row = [0] * s
                for states, a in members:
                    row[states[i]] += a
                weights.append(row)
            rows.append((mask, groups[key][0], weights))
    firsts: dict = {}
    table = []
    for r, (mask, world, weights) in enumerate(rows):
        twins = []
        for i, row in enumerate(weights):
            total = sum(row)
            conditional = tuple((o, Fraction(w, total)) for o, w in enumerate(row) if w)
            free = not mask >> i & 1
            twins.append(firsts.setdefault((i, conditional), r) if free else -1)
        table.append((mask, world, weights, twins))
    return table


class TestObservationTable:
    """The one-pass grouping against a per-mask grouping by tuples, including
    a state alphabet wide enough (520**7 > 2**63) for Python-int keys."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ss.common_cause_2(),
            lambda: ss.generate_common_cause(4, 3, 8, seed=0),
            lambda: ss.generate_common_cause(3, 1, 3, seed=1),
            lambda: ss.generate_product(3, states_per_item=3, seed=2),
            lambda: ss.generate_common_cause(7, 520, 4, seed=3),
        ],
        ids=["cc2", "cc-m4", "single-state", "product", "wide-alphabet"],
    )
    def test_table_equals_per_mask_grouping(self, build):
        ev = _evaluator(build())
        table = ev.observations()
        got = list(
            zip(
                table.masks.tolist(),
                table.worlds.tolist(),
                table.weights.tolist(),
                table.twins.tolist(),
            )
        )
        assert got == [tuple(row) for row in brute_observation_table(ev)]


class TestCondition:
    """The conditional state weights of ``observations``, which kappa and
    gamma read, against the definition in ``helpers.direct_conditional``."""

    def test_product_conditional_equals_marginal(self, product3):
        (unconditional,) = observed_conditionals(product3, "e1", ()).values()
        conditioned = observed_conditionals(product3, "e1", ("e2", "e3"))
        assert len(conditioned) == 4
        assert all(c == unconditional for c in conditioned.values())

    def test_vacuous_conditioning(self, cc2):
        assert observed_conditionals(cc2, "b", ()) == {
            (): [("bad", Fraction(1, 2)), ("good", Fraction(1, 2))]
        }

    def test_cc2_world_reveal(self, cc2):
        cond = observed_conditionals(cc2, "b", ("a",))
        assert cond[(("a", "good"),)] == [("good", Fraction(1))]

    def test_zero_probability_observation(self):
        # Two worlds, so at most two of the four observations of two items.
        inst = ss.generate_common_cause(3, 2, 2, seed=0)
        observed = ("e2", "e3")
        cond = observed_conditionals(inst, "e1", observed)
        every = itertools.product(*[[(i, s) for s in inst.states] for i in observed])
        positive = {o for o in every if _observation_weight(inst, o) > 0}
        assert set(cond) == positive and len(positive) < 4

    def test_law_of_total_probability(self, cc2, product3):
        # Re-mixing conditionals with observation probabilities reconstructs
        # the unconditional marginal exactly.
        for inst in (cc2, product3):
            for e in inst.items:
                others = tuple(i for i in inst.items if i != e)
                (target,) = observed_conditionals(inst, e, ()).values()
                mixed: dict = {}
                for obs, cond in observed_conditionals(inst, e, others).items():
                    assert cond == direct_conditional(inst, e, dict(obs))
                    weight = _observation_weight(inst, obs)
                    for s, q in cond:
                        mixed[s] = mixed.get(s, Fraction(0)) + weight * q
                assert sorted(mixed.items()) == target


def _float_sum(weights, subset) -> float:
    total = 0.0  # left to right; sum() may compensate
    for pair in subset:
        total += weights[pair]
    return total


def _seeded_tables(per_kind: int = 80):
    """Explicit tables on n = 1..8 pairs, four kinds interleaved: float
    modular sums, budget-additive sums, half-integer tables with a few
    entries moved, and dyadic modular tables with 1e-13-scale noise."""
    rng = random.Random(20240607)
    for k in range(per_kind):
        n = 1 + k % 8
        ground = [("e", f"s{i:02d}") for i in range(n)]
        w = {p: rng.uniform(0.0, 10.0) for p in ground}
        yield table_from_function(ground, lambda s: _float_sum(w, s))

        budget = rng.uniform(0.3, 0.9) * _float_sum(w, ground)
        yield table_from_function(
            ground, lambda s: min(budget, _float_sum(w, s))
        )

        half = {p: rng.randint(0, 6) / 2 for p in ground}
        curve = [rng.randint(0, 4) / 2 for _ in ground]
        table = table_from_function(
            ground,
            lambda s: _float_sum(half, s) + sum(sorted(curve, reverse=True)[: len(s)]),
        )
        entries = list(table.entries)
        for _ in range(rng.randint(0, 3)):
            row = rng.randrange(len(entries))
            moved = entries[row][1] + rng.choice([-1.0, -0.5, 0.5, 1.0])
            entries[row] = (entries[row][0], max(0.0, moved))
        yield ss.ExplicitTable(ground=tuple(ground), entries=tuple(entries))

        dyadic = {p: rng.randint(0, 8) / 4 for p in ground}
        noise = [1e-13, 3e-13, 6e-13, -1e-13, -3e-13, -6e-13]
        yield table_from_function(
            ground,
            lambda s: _float_sum(dyadic, s)
            + (rng.choice(noise) if rng.random() < 0.3 else 0.0)
            + 1e-12,
        )


class TestValidateUtility:
    def test_vectorised_check_equals_loop_reference(self):
        outcomes, tolerated = Counter(), 0
        for table in _seeded_tables():
            report = ss.validate_utility(table)
            reference = loop_validate_utility(table)
            assert report == reference
            assert repr(report) == repr(reference)
            outcomes[report.monotone, report.submodular] += 1
            tolerated += report != loop_validate_utility(table, tol=0.0)
        assert sum(outcomes.values()) >= 300
        assert {(True, True), (True, False), (False, False)} <= set(outcomes)
        assert tolerated > 0  # some tables pass only through the tolerance

    def test_construction_cap_bounds_the_check(self):
        cap = ss.ExplicitTable.CONSTRUCTION_CAP
        ground = tuple(("e", f"s{k:02d}") for k in range(cap + 1))
        with pytest.raises(ss.CapacityError, match=f"at most {cap} ground pairs"):
            ss.ExplicitTable(ground=ground, entries=())

    def test_coverage_trivially_valid(self):
        report = ss.validate_utility(coverage_abc())
        assert report.monotone and report.submodular
        assert "by construction" in report.note

    def test_supermodular_table_flagged(self):
        table = ss.ExplicitTable(
            ground=(("e", "x"), ("e", "y")),
            entries=(
                ((), 0.0),
                ((("e", "x"),), 1.0),
                ((("e", "y"),), 1.0),
                ((("e", "x"), ("e", "y")), 3.0),
            ),
        )
        report = ss.validate_utility(table)
        assert report.monotone
        assert not report.submodular
        assert report.witness[0] == "submodular"

    def test_modular_table_valid(self):
        table = table_from_function(
            [("e", "x"), ("e", "y"), ("f", "x")], lambda key: float(len(key))
        )
        report = ss.validate_utility(table)
        assert report.monotone and report.submodular and report.witness is None

    def test_non_monotone_table_flagged(self):
        table = ss.ExplicitTable(
            ground=(("e", "x"),),
            entries=(((), 1.0), ((("e", "x"),), 0.0)),
        )
        report = ss.validate_utility(table)
        assert not report.monotone
        assert report.witness[0] == "monotone"


class TestConstructionInvariants:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ss.InputError, match="sum"):
            ss.JointDistribution(
                (
                    (ss.Realization((("e", "x"),)), Fraction(1, 3)),
                    (ss.Realization((("e", "y"),)), Fraction(1, 3)),
                )
            )

    def test_float_probabilities_rejected(self):
        with pytest.raises(ss.InputError, match="rational"):
            ss.JointDistribution(((ss.Realization((("e", "x"),)), 1.0),))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ss.InputError, match="duplicate"):
            ss.JointDistribution(
                (
                    (ss.Realization((("e", "x"),)), Fraction(1, 2)),
                    (ss.Realization((("e", "x"),)), Fraction(1, 2)),
                )
            )

    def test_negative_table_value_rejected(self):
        with pytest.raises(ss.InputError):
            ss.ExplicitTable(
                ground=(("e", "x"),), entries=(((), 0.0), ((("e", "x"),), -1.0))
            )

    def test_int_table_value_beyond_float_range_rejected(self):
        with pytest.raises(ss.InputError, match="table value"):
            ss.ExplicitTable(
                ground=(("e", "x"),), entries=(((), 0), ((("e", "x"),), 10**400))
            )

    def test_int_weight_beyond_float_range_rejected_by_build(self):
        with pytest.raises(ss.InputError, match="target weight"):
            ss.WeightedCoverage.build(
                targets=("t",), weights={"t": 10**400}, coverage={("e", "x"): ("t",)}
            )

    def test_int_weight_beyond_float_range_rejected_by_constructor(self):
        with pytest.raises(ss.InputError, match="target weight"):
            ss.WeightedCoverage(
                targets=("t",), weights=(10**400,), coverage=((("e", "x"), ("t",)),)
            )

    def test_from_function_hands_fn_sorted_pairs(self):
        ground = [("b", "y"), ("a", "y"), ("b", "x"), ("a", "x")]
        seen = []
        table_from_function(ground, lambda key: seen.append(key) or 0.0)
        assert len(seen) == 16
        assert all(isinstance(key, tuple) and list(key) == sorted(key) for key in seen)
        assert {frozenset(key) for key in seen} == {
            frozenset(p for i, p in enumerate(sorted(ground)) if mask >> i & 1)
            for mask in range(16)
        }

    def test_partial_realization_in_support_rejected(self):
        with pytest.raises(ss.InputError):
            ss.Instance(
                items=("a", "b"),
                states=("x",),
                distribution=ss.JointDistribution(
                    ((ss.Realization((("a", "x"),)), Fraction(1)),)
                ),
                utility=ss.WeightedCoverage.build(
                    targets=("t",),
                    weights={"t": 1.0},
                    coverage={("a", "x"): ("t",), ("b", "x"): ()},
                ),
            )

    def test_coverage_must_be_total(self):
        with pytest.raises(ss.InputError, match="missing"):
            ss.Instance(
                items=("a",),
                states=("x", "y"),
                distribution=ss.JointDistribution(
                    ((ss.Realization((("a", "x"),)), Fraction(1)),)
                ),
                utility=ss.WeightedCoverage.build(
                    targets=("t",), weights={"t": 1.0}, coverage={("a", "x"): ("t",)}
                ),
            )


class TestInducedSetFunction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_and_submodular(self, seed):
        inst = ss.generate_common_cause(3, 2, 3, seed)
        items = inst.items

        def value(subset):
            return ss.expected_set_value(inst, subset)

        subsets = [
            {items[i] for i in range(3) if mask >> i & 1} for mask in range(8)
        ]
        for base in subsets:
            for e in items:
                if e in base:
                    continue
                gain = value(base | {e}) - value(base)
                assert gain >= -1e-12
                for f in items:
                    if f in base or f == e:
                        continue
                    bigger = base | {f}
                    assert value(bigger | {e}) - value(bigger) <= gain + 1e-12


def _loop_values(weights, codes) -> list[float]:
    """Each code row's covered weights, added left to right in target order."""
    totals = []
    for row in codes.tolist():
        total = 0.0
        for covered, weight in zip(row, weights):
            if covered:
                total += weight
        totals.append(total)
    return totals


def _every_code(n):
    return np.array(list(itertools.product([False, True], repeat=n)))


def _coverage_instance(weights, probabilities=(0.1, 0.2, 0.3, 0.4)):
    """Two items, two states, seeded coverage; one probability per world
    (a, b) in ("x", "y")**2 order, given as decimal strings or Fractions."""
    targets = tuple(f"t{k}" for k in range(len(weights)))
    rng = random.Random(len(weights))
    coverage = {
        (i, s): tuple(t for t in targets if rng.random() < 0.6)
        for i in ("a", "b")
        for s in ("x", "y")
    }
    utility = ss.WeightedCoverage.build(targets, dict(zip(targets, weights)), coverage)
    worlds = itertools.product("xy", repeat=2)
    dist = ss.JointDistribution(
        tuple(
            (ss.Realization.from_dict({"a": sa, "b": sb}), Fraction(str(p)))
            for (sa, sb), p in zip(worlds, probabilities)
        )
    )
    return ss.Instance(("a", "b"), ("x", "y"), dist, utility)


class TestExactSumGuards:
    """Coverage values and the float view take their vectorised paths only
    where those are exact, and equal the scalar loops everywhere."""

    @pytest.mark.parametrize(
        "weights",
        [
            (1.0, 4.0, 2.0, 5.0, 3.0),
            (0.125, 2.5, 3.75, 0.5, 1.0, 7.875),
            (2.0**52, 2.0**51, 1.0),
        ],
    )
    def test_narrow_weights_take_the_product(self, weights):
        inst = _coverage_instance(weights)
        utility = inst.utility
        assert utility._product is not None
        codes = _every_code(len(weights))
        assert utility._values(codes).tolist() == _loop_values(weights, codes)
        table = _evaluator(inst).values()
        for mask in range(4):
            chosen = [item for k, item in enumerate(inst.items) if mask >> k & 1]
            assert table[mask] == float(direct_set_value(inst, chosen))

    @pytest.mark.parametrize(
        "weights", [(2.0**53, 1.0, 1.0), (0.1, 0.2, 0.7), (1e300, 1.0)]
    )
    def test_wide_weights_take_the_loop(self, weights):
        # 2.0**53 + 1.0 == 2.0**53: a sum in another order could differ.
        utility = _coverage_instance(weights).utility
        assert utility._product is None
        codes = _every_code(len(weights))
        assert utility._values(codes).tolist() == _loop_values(weights, codes)

    def test_float_view_near_and_above_2_53(self):
        third = Fraction(1, 3)
        inst = _coverage_instance((0.25, 1.5, 3.0), (third, third, third, 0))
        ev = _evaluator(inst)
        assert ev.denominator == 3 * 4
        below = [0, 1, 7, 2**52 + 1, 2**53 - 12, 2**53 - 1]
        above = [2**53, 2**53 + 1, 2**53 + 3, 2**62 + 5]
        for numerators in (below, above, below + above):
            array = np.array(numerators, dtype=np.int64)
            want = [n / ev.denominator for n in numerators]
            assert ev._floats(array).tolist() == want
            assert ev._floats(np.array(numerators, dtype=object)).tolist() == want
        # One float division would round 2**53 + 1 first and miss by an ulp.
        assert float(2**53 + 1) / 12 != (2**53 + 1) / 12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_round_trip_probability_arithmetic(seed):
    inst = ss.generate_product(2, states_per_item=2, seed=seed)
    total = sum((p for _, p in inst.distribution.entries), Fraction(0))
    assert total == 1
