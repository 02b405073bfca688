import random
from fractions import Fraction

import pytest

import stosub as ss
from stosub import fileio, model
from stosub.cli import main
from conftest import make_single_item, make_wide
from helpers import (
    direct_policy_value,
    direct_set_value,
    enumerate_rank2_policies,
)


def pick_then_stop(instance, item):
    return ss.Policy(root=ss.pick(item, {s: ss.STOP for s in instance.states}))


class TestEvaluatePolicy:
    def test_stop_only(self, cc2):
        assert ss.evaluate_policy(cc2, ss.Policy(root=ss.STOP)) == 0.0

    def test_depth_one_equals_set_value(self, cc2):
        policy = pick_then_stop(cc2, "b")
        assert ss.evaluate_policy(cc2, policy) == ss.expected_set_value(
            cc2, {"b"}
        )

    def test_missing_branch_raises(self, cc2):
        policy = ss.Policy(root=ss.Pick(item="a", branches=(("good", ss.STOP),)))
        with pytest.raises(
            ss.PolicyError, match="no branch for 'a' in state 'bad'"
        ):
            ss.evaluate_policy(cc2, policy)

    def test_missing_branch_on_a_zero_probability_world(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 2.0}, {"hi": Fraction(1), "lo": Fraction(0)}
        )
        policy = ss.Policy(root=ss.Pick(item="e", branches=(("hi", ss.STOP),)))
        assert ss.evaluate_policy(inst, policy) == 4.0
        assert ss.policy_pick_probabilities(inst, policy).values == (1.0,)
        constraint = ss.UniformMatroid(rank=1)
        assert ss.virtual_nonadaptive_value(inst, constraint, policy) == 4.0

    def test_unknown_item_raises(self, cc2):
        policy = pick_then_stop(cc2, "z")
        constraint = ss.UniformMatroid(rank=1)
        for read in (
            lambda: ss.evaluate_policy(cc2, policy),
            lambda: ss.policy_pick_probabilities(cc2, policy),
            lambda: ss.virtual_nonadaptive_value(cc2, constraint, policy),
        ):
            with pytest.raises(ss.InputError, match="'z'"):
                read()

    def test_adaptive_branching(self, cc2):
        # Pick a; in the good world also pick b, otherwise stop.
        policy = ss.Policy(
            root=ss.pick(
                "a", {"good": ss.pick("b", {s: ss.STOP for s in cc2.states}),
                      "bad": ss.STOP}
            )
        )
        got = ss.evaluate_policy(cc2, policy)
        assert got == float(direct_policy_value(cc2, policy))
        assert got == 2.0  # half worlds: {a,b} good = 3, half: {a} bad = 1

    def test_repeated_item_rejected(self, cc2):
        with pytest.raises(ss.PolicyError):
            ss.Policy(
                root=ss.pick(
                    "a",
                    {
                        "good": ss.pick("a", {s: ss.STOP for s in cc2.states}),
                        "bad": ss.STOP,
                    },
                )
            )


class TestOptimalAdaptive:
    def test_single_item_picks_it(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 2.0}, {"hi": Fraction(1, 2), "lo": Fraction(1, 2)}
        )
        policy, value = ss.optimal_adaptive(inst, ss.UniformMatroid(rank=1))
        assert value == ss.expected_set_value(inst, {"e"}) == 3.0
        assert isinstance(policy.root, ss.Pick) and policy.root.item == "e"

    def test_modular_independent_top_k(self, modular3):
        policy, value = ss.optimal_adaptive(modular3, ss.UniformMatroid(rank=2))
        assert value == 8.0
        # Whatever it sees first, the policy picks a second item and stops.
        for _, second in fileio.policy_to_obj(policy)["branches"].items():
            assert all(leaf == "stop" for leaf in second["branches"].values())

    def test_value_matches_policy_evaluation(self, cc2):
        for rank in (1, 2):
            policy, value = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=rank))
            assert ss.evaluate_policy(cc2, policy) == value

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_exhaustive_tree_enumeration(self, seed):
        inst = ss.generate_common_cause(3, 2, 4, seed)
        constraint = ss.UniformMatroid(rank=2)
        _, value = ss.optimal_adaptive(inst, constraint)
        best = max(
            float(direct_policy_value(inst, p))
            for p in enumerate_rank2_policies(inst, constraint)
        )
        assert value == pytest.approx(best, abs=1e-12)

    def test_adaptivity_strictly_helps_somewhere(self):
        inst = ss.generate_common_cause(3, 2, 4, seed=7)
        constraint = ss.UniformMatroid(rank=2)
        _, adaptive = ss.optimal_adaptive(inst, constraint)
        _, fixed = ss.best_nonadaptive(inst, constraint)
        assert adaptive > fixed + 1e-9

    def test_policy_is_feasible(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        policy, _ = ss.optimal_adaptive(cc2, constraint)
        assert ss.policy_is_feasible(policy, constraint)

    def test_sequence_keyed_family(self, cc2):
        constraint = ss.ExplicitFamily(
            feasible_sets=((), ("a",), ("a", "b")), downward_closed=False
        )
        policy, value = ss.optimal_adaptive(cc2, constraint)
        assert ss.policy_is_feasible(policy, constraint)
        # b alone is not listed, so any path must start with a.
        assert isinstance(policy.root, ss.Pick) and policy.root.item == "a"
        assert value == pytest.approx(2.5)

    def test_caps(self):
        # 2**m * |support| above the table's cap (65,536): 64 * 4,096, 512 * 512.
        wide = ss.generate_product(6, states_per_item=4, seed=0)
        with pytest.raises(ss.CapacityError, match="needs 262144 keys"):
            ss.optimal_adaptive(wide, ss.UniformMatroid(rank=1))
        deep = ss.generate_product(9, states_per_item=2, seed=0)
        with pytest.raises(ss.CapacityError, match="9 items and a support of 512"):
            ss.optimal_adaptive(deep, ss.UniformMatroid(rank=1))

    @pytest.mark.parametrize(
        "m, support, admitted",
        [
            (6, 32, True), (11, 1, True), (10, 64, True), (16, 1, True),
            (10, 65, False), (17, 1, False),
        ],
    )
    def test_table_cap_is_checked_before_any_work(self, m, support, admitted):
        """The bound is 2**m * |support| <= 65,536, the observation table's,
        checked on both sides of it, and a rejected instance gets an
        evaluator but no table."""
        instance = make_wide(m, support)
        assert (support << m <= 1 << ss.model.EXACT_CAP) == admitted
        constraint = ss.UniformMatroid(rank=2)
        if admitted:
            _, value = ss.optimal_adaptive(instance, constraint)
            if support == 1:  # one world: adaptivity gains nothing
                assert value == ss.best_nonadaptive(instance, constraint)[1]
        else:
            with pytest.raises(ss.CapacityError, match="above the cap 65536"):
                ss.optimal_adaptive(instance, constraint)
            ev = instance._evaluator_cache
            assert ev._observations is None and ev._numerator_table is None


class TestBestNonadaptive:
    def test_modular_top_k(self, modular3):
        chosen, value = ss.best_nonadaptive(modular3, ss.UniformMatroid(rank=2))
        assert chosen == frozenset({"a", "b"})
        assert value == 8.0

    def test_single_item(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 2.0}, {"hi": Fraction(1, 4), "lo": Fraction(3, 4)}
        )
        chosen, value = ss.best_nonadaptive(inst, ss.UniformMatroid(rank=1))
        assert chosen == frozenset({"e"})
        assert value == 2.5

    def test_cc2_exhaustive(self, cc2):
        chosen, value = ss.best_nonadaptive(cc2, ss.UniformMatroid(rank=1))
        values = {
            frozenset(s): float(direct_set_value(cc2, s))
            for s in [set(), {"a"}, {"b"}]
        }
        assert value == max(values.values())
        assert chosen == frozenset({"b"})

    def test_dominance_chain(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        _, adaptive = ss.optimal_adaptive(cc2, constraint)
        _, fixed = ss.best_nonadaptive(cc2, constraint)
        assert adaptive >= fixed
        rounded = ss.expected_set_value(
            cc2,
            ss.pipage_round(
                cc2,
                constraint,
                ss.run(cc2, constraint, ss.GreedyConfig(delta=0.25)).final,
                seed=0,
            ),
        )
        assert fixed >= rounded - 1e-12

    def test_exact_cap_checked_before_any_work(self, monkeypatch, tmp_path):
        inst = ss.generate_common_cause(17, 2, 2, seed=0)
        path = tmp_path / "m17.json"
        fileio.save_instance(inst, path)

        def refuse(*args):
            raise AssertionError("value table built above the exact cap")

        for builder in ("_transform", "_row_sums", "_numerators"):
            monkeypatch.setattr(model._Evaluator, builder, refuse)
        with pytest.raises(ss.CapacityError, match="17 items exceeds the cap 16"):
            ss.best_nonadaptive(inst, ss.UniformMatroid(rank=1))
        assert main(["oracle", "nonadaptive", str(path)]) == 2

    def test_sixteen_items_still_answer(self):
        inst = ss.generate_common_cause(16, 2, 2, seed=0)
        chosen, value = ss.best_nonadaptive(inst, ss.UniformMatroid(rank=1))
        values = {s: direct_set_value(inst, s) for s in [()] + [(i,) for i in inst.items]}
        best = max(values.values())
        assert value == float(best)
        assert chosen == frozenset(min(s for s, v in values.items() if v == best))


class TestVirtualNonadaptive:
    def test_depth_one_equals_policy_value_for_independent_pick(self, cc2):
        # A single unconditional pick only uses the true draw.
        policy = pick_then_stop(cc2, "b")
        constraint = ss.UniformMatroid(rank=1)
        assert ss.virtual_nonadaptive_value(
            cc2, constraint, policy
        ) == ss.evaluate_policy(cc2, policy)

    def test_deterministic_world_collapses(self, modular3):
        constraint = ss.UniformMatroid(rank=2)
        policy, value = ss.optimal_adaptive(modular3, constraint)
        assert ss.virtual_nonadaptive_value(modular3, constraint, policy) == value

    def test_gamma_threshold_on_cc2(self, cc2):
        constraint = ss.UniformMatroid(rank=2)
        policy, opt = ss.optimal_adaptive(cc2, constraint)
        virtual = ss.virtual_nonadaptive_value(cc2, constraint, policy)
        g = float(ss.gamma(cc2).clamped)
        assert virtual >= g / (1.0 + g) * opt - 1e-9

    def test_infeasible_policy_rejected(self, cc2):
        policy = pick_then_stop(cc2, "b")
        with pytest.raises(ss.PolicyError):
            ss.virtual_nonadaptive_value(cc2, ss.UniformMatroid(rank=0), policy)


class TestPickProbabilities:
    def test_stop_only_zero(self, cc2):
        point = ss.policy_pick_probabilities(cc2, ss.Policy(root=ss.STOP))
        assert point.values == (0.0, 0.0)

    def test_unconditional_pick(self, cc2):
        point = ss.policy_pick_probabilities(cc2, pick_then_stop(cc2, "a"))
        assert point.as_dict() == {"a": 1.0, "b": 0.0}

    def test_branch_dependent_probabilities(self, cc2):
        policy = ss.Policy(
            root=ss.pick(
                "a",
                {"good": ss.pick("b", {s: ss.STOP for s in cc2.states}),
                 "bad": ss.STOP},
            )
        )
        point = ss.policy_pick_probabilities(cc2, policy)
        assert point.as_dict() == {"a": 1.0, "b": 0.5}

    def test_feasible_policy_point_in_polytope(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        policy, _ = ss.optimal_adaptive(cc2, constraint)
        point = ss.policy_pick_probabilities(cc2, policy)
        assert constraint.in_polytope(point)


class TestUpperBoundCheck:
    def test_zero_point(self, cc2):
        policy, _ = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=1))
        check = ss.optimal_upper_bound_check(
            cc2, policy, ss.FractionalPoint.zeros(cc2.items), ss.kappa(cc2).clamped
        )
        assert check.holds

    def test_dominating_point_trivially_holds(self, cc2):
        policy, _ = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=1))
        ones = ss.FractionalPoint(cc2.items, (1.0, 1.0))
        check = ss.optimal_upper_bound_check(
            cc2, policy, ones, ss.kappa(cc2).clamped
        )
        assert check.rhs >= check.lhs

    def test_seeded_grid_on_cc2(self, cc2):
        policy, _ = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=1))
        clamped = ss.kappa(cc2).clamped
        rng = random.Random(13)
        for _ in range(50):
            x = ss.FractionalPoint(cc2.items, (rng.random(), rng.random()))
            assert ss.optimal_upper_bound_check(cc2, policy, x, clamped).holds

    def test_degenerate_kappa(self, cc2):
        policy, _ = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=1))
        with pytest.raises(ss.DegenerateBoundError):
            ss.optimal_upper_bound_check(
                cc2, policy, ss.FractionalPoint.zeros(cc2.items), 0.0
            )
