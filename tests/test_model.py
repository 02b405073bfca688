import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stosub as ss
from conftest import make_modular, make_single_item
from helpers import direct_set_value, direct_state_value, loop_validate_utility


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
        assert ss.evaluate(coverage_abc(), []) == 0.0

    def test_single_pair_sums_its_weights(self):
        assert ss.evaluate(coverage_abc(), [("a", "good")]) == 2.0

    def test_union_coverage(self):
        assert ss.evaluate(coverage_abc(), [("a", "good"), ("b", "good")]) == 3.0

    def test_duplicate_item_states_union(self):
        # The pipeline never produces conflicting states, but the oracle is total.
        assert ss.evaluate(coverage_abc(), [("a", "good"), ("a", "bad")]) == 2.0

    def test_unknown_pair_rejected(self):
        with pytest.raises(ss.InputError):
            ss.evaluate(coverage_abc(), [("a", "unknown")])


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


class TestMarginal:
    def test_modular_marginal_is_weight(self, modular3):
        assert ss.marginal(modular3, {"b", "c"}, "a") == 5.0

    def test_empty_base_definition(self, cc2):
        assert ss.marginal(cc2, set(), "b") == ss.expected_set_value(cc2, {"b"})

    def test_cc2_via_set_value_oracle(self, cc2):
        expected = ss.expected_set_value(cc2, {"a", "b"}) - ss.expected_set_value(
            cc2, {"a"}
        )
        assert ss.marginal(cc2, {"a"}, "b") == expected

    def test_item_already_in_base(self, cc2):
        with pytest.raises(ss.InputError):
            ss.marginal(cc2, {"a"}, "a")

    def test_never_negative(self, cc2, product3):
        for inst in (cc2, product3):
            for e in inst.items:
                others = [i for i in inst.items if i != e]
                for mask in range(1 << len(others)):
                    base = {others[i] for i in range(len(others)) if mask >> i & 1}
                    assert ss.marginal(inst, base, e) >= 0.0


class TestStateMarginal:
    def test_empty_base(self, cc2):
        assert ss.state_marginal(cc2, set(), "a", "good") == 2.0

    def test_deterministic_matches_marginal(self, modular3):
        assert ss.state_marginal(modular3, {"b"}, "a", "on") == ss.marginal(
            modular3, {"b"}, "a"
        )

    def test_cc2_brute_force(self, cc2):
        got = ss.state_marginal(cc2, {"a"}, "b", "good")
        want = direct_state_value(cc2, {"a"}, "b", "good") - direct_set_value(
            cc2, {"a"}
        )
        assert got == pytest.approx(float(want), abs=0)

    def test_averaging_identity_for_independent_items(self, product3):
        # With a product prior, mixing the state marginals with the item's own
        # marginal distribution reproduces the set marginal exactly.
        for e in product3.items:
            base = {i for i in product3.items if i != e}
            mixed = sum(
                float(q) * ss.state_marginal(product3, base, e, s)
                for s, q in ss.condition(
                    product3.distribution, e, ss.Realization(())
                ).marginal
            )
            assert mixed == pytest.approx(ss.marginal(product3, base, e), abs=1e-12)


class TestCondition:
    def test_product_conditional_equals_marginal(self, product3):
        dist = product3.distribution
        unconditional = ss.condition(dist, "e1", ss.Realization(()))
        conditioned = ss.condition(
            dist, "e1", ss.Realization((("e2", "s1"), ("e3", "s2")))
        )
        assert unconditional.marginal == conditioned.marginal

    def test_vacuous_conditioning(self, cc2):
        cond = ss.condition(cc2.distribution, "b", ss.Realization(()))
        assert cond.marginal == (("bad", Fraction(1, 2)), ("good", Fraction(1, 2)))

    def test_cc2_world_reveal(self, cc2):
        cond = ss.condition(cc2.distribution, "b", ss.Realization((("a", "good"),)))
        assert cond.marginal == (("good", Fraction(1)),)

    def test_zero_probability_observation(self, cc2):
        with pytest.raises(ss.ConditioningError):
            ss.condition(cc2.distribution, "b", ss.Realization((("a", "weird"),)))

    def test_conditioning_on_item_itself(self, cc2):
        with pytest.raises(ss.InputError):
            ss.condition(cc2.distribution, "a", ss.Realization((("a", "good"),)))

    def test_law_of_total_probability(self, cc2, product3):
        # Re-mixing conditionals with observation probabilities reconstructs
        # the unconditional marginal exactly.
        for inst in (cc2, product3):
            dist = inst.distribution
            for e in inst.items:
                others = [i for i in inst.items if i != e]
                target = dict(ss.condition(dist, e, ss.Realization(())).marginal)
                mixed: dict = {}
                seen = set()
                for realization, _ in dist.entries:
                    obs = realization.restrict(others)
                    if obs in seen:
                        continue
                    seen.add(obs)
                    weight = dist.probability_of(obs)
                    if weight == 0:
                        continue
                    for s, q in ss.condition(dist, e, obs).marginal:
                        mixed[s] = mixed.get(s, Fraction(0)) + weight * q
                assert mixed == target


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
        yield ss.ExplicitTable.from_function(ground, lambda s: _float_sum(w, s))

        budget = rng.uniform(0.3, 0.9) * _float_sum(w, ground)
        yield ss.ExplicitTable.from_function(
            ground, lambda s: min(budget, _float_sum(w, s))
        )

        half = {p: rng.randint(0, 6) / 2 for p in ground}
        curve = [rng.randint(0, 4) / 2 for _ in ground]
        table = ss.ExplicitTable.from_function(
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
        yield ss.ExplicitTable.from_function(
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
        table = ss.ExplicitTable.from_function(
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
        ss.ExplicitTable.from_function(ground, lambda key: seen.append(key) or 0.0)
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


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_round_trip_probability_arithmetic(seed):
    inst = ss.generate_product(2, states_per_item=2, seed=seed)
    total = sum((p for _, p in inst.distribution.entries), Fraction(0))
    assert total == 1
