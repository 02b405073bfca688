from fractions import Fraction

import pytest

import stosub as ss
from stosub import greedy, multilinear
from conftest import make_modular, make_single_item


class TestRun:
    def test_single_item_saturates(self):
        inst = make_single_item(
            {"hi": 3.0, "lo": 1.0}, {"hi": Fraction(1, 2), "lo": Fraction(1, 2)}
        )
        traj = ss.run(inst, ss.UniformMatroid(rank=1), ss.GreedyConfig(delta=0.25))
        assert len(traj.rounds) == 4
        assert traj.final.as_dict() == {"e": 1.0}

    def test_modular_rank_one_picks_heaviest(self, modular3):
        traj = ss.run(modular3, ss.UniformMatroid(rank=1), ss.GreedyConfig(delta=0.2))
        assert traj.final.as_dict() == {"a": 1.0, "b": 0.0, "c": 0.0}
        for record in traj.rounds:
            assert record.lp.vertex_set == ("a",)

    def test_starts_at_zero_and_updates_match_records(self, cc2):
        config = ss.GreedyConfig(delta=0.3)
        traj = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        assert traj.rounds[0].point.values == (0.0, 0.0)
        steps = [r.step for r in traj.rounds]
        assert steps == [0.3, 0.3] + [pytest.approx(0.4)]
        assert sum(steps) == pytest.approx(1.0, abs=0)
        y = traj.rounds[0].point
        for record in traj.rounds:
            assert record.point == y
            y = ss.FractionalPoint(
                y.items,
                tuple(
                    min(1.0, v + record.step * record.lp.point.value_of(item))
                    for item, v in zip(y.items, y.values)
                ),
            )
        assert y == traj.final

    def test_value_nondecreasing_along_trajectory(self, cc2):
        traj = ss.run(cc2, ss.UniformMatroid(rank=1), ss.GreedyConfig(delta=0.1))
        values = [
            ss.multilinear_value(cc2, r.point) for r in traj.rounds
        ] + [ss.multilinear_value(cc2, traj.final)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    def test_final_point_in_polytope(self, cc2, product3):
        for inst in (cc2, product3):
            for constraint in (
                ss.UniformMatroid(rank=1),
                ss.UniformMatroid(rank=2),
            ):
                traj = ss.run(inst, constraint, ss.GreedyConfig(delta=0.05))
                assert constraint.in_polytope(traj.final)

    def test_knapsack_endpoint_spends_exactly_the_budget(self):
        # Every LP vertex here fills the budget's binary value exactly, so
        # the endpoint, a convex combination of them, does too.
        inst = ss.generate_common_cause(3, 2, 4, seed=0)
        costs = (("e1", 0.61), ("e2", 0.3), ("e3", 0.19))
        constraint = ss.Knapsack(costs=costs, budget=0.7)
        final = ss.run(inst, constraint, ss.GreedyConfig(delta=0.25)).final
        assert 0 < final.exact[0] < 1
        spent = sum(Fraction(c) * x for (_, c), x in zip(costs, final.exact))
        assert spent == Fraction(0.7)

    def test_variants_agree_before_any_saturation(self, modular3):
        # At y = 0 both weight definitions coincide, so the first round of the
        # standard variant matches the optimistic one.  They genuinely diverge
        # later: standard weights shrink by (1 - y_e) as coordinates fill.
        constraint = ss.UniformMatroid(rank=2)
        a = ss.run(modular3, constraint, ss.GreedyConfig(weight_variant="optimistic"))
        b = ss.run(modular3, constraint, ss.GreedyConfig(weight_variant="standard"))
        assert a.rounds[0].weights == b.rounds[0].weights
        assert a.rounds[0].lp == b.rounds[0].lp

    def test_optimistic_weights_constant_on_modular(self, modular3):
        constraint = ss.UniformMatroid(rank=2)
        traj = ss.run(modular3, constraint, ss.GreedyConfig(delta=0.2))
        for record in traj.rounds:
            assert record.weights == pytest.approx((5.0, 3.0, 1.0), abs=1e-12)
        assert traj.final.as_dict() == {"a": 1.0, "b": 1.0, "c": 0.0}

    def test_standard_variant_waterfills_modular_rank_one(self, modular3):
        # The classic ascent equalizes (1 - y_e) w_e; the optimistic variant
        # keeps all mass on the heaviest item and ends strictly higher here.
        constraint = ss.UniformMatroid(rank=1)
        config = ss.GreedyConfig(delta=0.01, weight_variant="standard")
        standard = ss.run(modular3, constraint, config)
        optimistic = ss.run(
            modular3, constraint, ss.GreedyConfig(delta=0.01)
        )
        assert optimistic.final.as_dict() == {"a": 1.0, "b": 0.0, "c": 0.0}
        f_std = ss.multilinear_value(modular3, standard.final)
        f_opt = ss.multilinear_value(modular3, optimistic.final)
        assert f_opt > f_std

    def test_sampled_mode_deterministic_given_seed(self, cc2):
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=64, seed=11
        )
        a = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        b = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        assert a == b

    def test_sampled_mode_close_to_exact_on_easy_instance(self, modular3):
        constraint = ss.UniformMatroid(rank=1)
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=400, seed=3
        )
        traj = ss.run(modular3, constraint, config)
        # Modular weights are far apart, so estimation noise cannot flip the pick.
        assert traj.final.as_dict() == {"a": 1.0, "b": 0.0, "c": 0.0}

    def test_sampled_round_draws_once(self, cc2, monkeypatch):
        """One key derivation (one shared draw) per round, not one per item."""
        streams = []
        original = multilinear._key

        def counting(seed, stream):
            streams.append(stream)
            return original(seed, stream)

        monkeypatch.setattr(multilinear, "_key", counting)
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=16, seed=2
        )
        ss.run(cc2, ss.UniformMatroid(rank=1), config)
        assert streams == [(k,) for k in range(config.rounds)]

    def test_exact_round_calls_kernel_once(self, cc2, monkeypatch):
        """One all-item weight contraction per exact round, not one per item."""
        calls = []
        original = greedy.optimistic_weights

        def counting(instance, x):
            calls.append(x)
            return original(instance, x)

        # Under both names, so a per-item optimistic_weight round counts too.
        monkeypatch.setattr(greedy, "optimistic_weights", counting)
        monkeypatch.setattr(multilinear, "optimistic_weights", counting)
        config = ss.GreedyConfig(delta=0.25)
        trajectory = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        assert calls == [record.point for record in trajectory.rounds]

    def test_auto_sample_count_resolution(self):
        config = ss.GreedyConfig(delta=0.5, weight_mode="sampled")
        assert config.resolved_sample_count(2) == ss.estimation_sample_count(0.5, 2)

    def test_faithful_config_step(self):
        # The paper's schedule, delta = 1/(9 m^2) in sampled mode, at m = 2.
        config = ss.GreedyConfig(delta=1.0 / (9 * 2 * 2), weight_mode="sampled")
        assert config.rounds == 36
        assert config.resolved_sample_count(2) == ss.estimation_sample_count(
            1.0 / 36.0, 2
        )


class TestStep:
    def test_first_step_matches_run(self, cc2):
        config = ss.GreedyConfig(delta=0.25)
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(cc2, constraint, config)
        y0 = ss.FractionalPoint.zeros(cc2.items)
        y1, lp = ss.step(cc2, constraint, y0, 0.0, config)
        assert lp == traj.rounds[0].lp
        assert y1 == traj.rounds[1].point

    def test_first_step_matches_run_sampled(self, cc2):
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=64, seed=5
        )
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(cc2, constraint, config)
        _, lp = ss.step(cc2, constraint, ss.FractionalPoint.zeros(cc2.items), 0.0, config)
        assert lp == traj.rounds[0].lp

    def test_final_step_lands_on_one(self, cc2):
        # 1/0.3 is not an integer; the last of the three rounds stretches to
        # 0.4 so the schedule sums to exactly 1.
        config = ss.GreedyConfig(delta=0.3)
        constraint = ss.UniformMatroid(rank=1)
        y = ss.FractionalPoint(cc2.items, (0.0, 0.6))
        y2, _ = ss.step(cc2, constraint, y, 0.6, config)
        assert max(y2.values) == pytest.approx(1.0, abs=0)

    def test_move_past_one_is_an_input_error(self, modular3):
        # The LP picks "a", and 0.98 + 0.05 passes 1: the step is refused,
        # not clamped to a move of 0.02.
        y = ss.FractionalPoint(modular3.items, (0.98, 0.0, 0.0))
        with pytest.raises(ss.InputError, match=r"t=0\.5 moves 'a' past 1"):
            ss.step(modular3, ss.UniformMatroid(rank=1), y, 0.5, ss.GreedyConfig())

    def test_overshoot_rejected(self, cc2):
        config = ss.GreedyConfig(delta=0.25)
        with pytest.raises(ss.InputError):
            ss.step(
                cc2,
                ss.UniformMatroid(rank=1),
                ss.FractionalPoint(cc2.items, (1.0, 1.0)),
                1.0,
                config,
            )

    @pytest.mark.parametrize("variant", ["optimistic", "standard"])
    def test_non_finite_weight_is_an_input_error(self, cc2, monkeypatch, variant):
        """The LP's weight check is the ascent's only one."""
        monkeypatch.setattr(
            greedy, "optimistic_weights", lambda instance, y: (float("nan"), 1.0)
        )
        config = ss.GreedyConfig(delta=0.5, weight_variant=variant)
        y = ss.FractionalPoint.zeros(cc2.items)
        with pytest.raises(ss.InputError, match="weight of 'a' is not finite"):
            ss.step(cc2, ss.UniformMatroid(rank=1), y, 0.0, config)

    def test_zero_base_weights_are_singletons(self, cc2):
        config = ss.GreedyConfig(delta=0.5)
        traj = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        first = traj.rounds[0]
        for item, w in zip(cc2.items, first.weights):
            assert w == pytest.approx(ss.expected_set_value(cc2, {item}))


class TestConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(ss.ConfigurationError):
            ss.GreedyConfig(delta=0.0)

    def test_bad_mode(self):
        with pytest.raises(ss.ConfigurationError):
            ss.GreedyConfig(weight_mode="psychic")

    def test_bad_sample_count(self):
        with pytest.raises(ss.ConfigurationError):
            ss.GreedyConfig(sample_count="plenty")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_count", 2.5),
            ("sample_count", True),
            ("seed", 1.5),
            ("seed", True),
            ("delta", True),
            ("delta", "0.5"),
        ],
    )
    def test_badly_typed_values(self, field, value):
        with pytest.raises(ss.ConfigurationError, match=field):
            ss.GreedyConfig(weight_mode="sampled", **{field: value})

    def test_integer_and_real_values_pass(self):
        config = ss.GreedyConfig(delta=1, sample_count=3, seed=7)
        assert config.rounds == 1
        assert config.resolved_sample_count(2) == 3


class TestCertificate:
    def test_independent_modular_no_violations(self, modular3):
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(modular3, constraint, ss.GreedyConfig(delta=0.1))
        _, opt = ss.optimal_adaptive(modular3, constraint)
        report = ss.lower_bound_certificate(modular3, constraint, traj, opt, 1.0)
        assert report.ok
        assert not report.sampled
        assert len(report.rounds) == 10

    def test_cc2_per_round(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(cc2, constraint, ss.GreedyConfig(delta=0.05))
        _, opt = ss.optimal_adaptive(cc2, constraint)
        clamped = float(ss.kappa(cc2).clamped)
        report = ss.lower_bound_certificate(cc2, constraint, traj, opt, clamped)
        assert report.ok

    def test_saturated_round_holds_trivially(self, cc2):
        # Once the ascent value passes the shifted optimum, the requirement
        # goes nonpositive.
        constraint = ss.UniformMatroid(rank=2)
        traj = ss.run(cc2, constraint, ss.GreedyConfig(delta=0.25))
        _, opt = ss.optimal_adaptive(cc2, constraint)
        report = ss.lower_bound_certificate(cc2, constraint, traj, opt, 0.5)
        assert report.rounds[-1].required <= 0
        assert report.rounds[-1].holds

    def test_sampled_mode_flagged(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=32, seed=0
        )
        traj = ss.run(cc2, constraint, config)
        _, opt = ss.optimal_adaptive(cc2, constraint)
        report = ss.lower_bound_certificate(cc2, constraint, traj, opt, 0.5)
        assert report.sampled

    def test_knapsack_vertices_pass_the_feasibility_check(self):
        inst = ss.generate_common_cause(3, 2, 4, seed=0)
        costs = (("e1", 0.1), ("e2", 0.2), ("e3", 0.3))
        constraint = ss.Knapsack(costs=costs, budget=0.6)
        traj = ss.run(inst, constraint, ss.GreedyConfig(delta=0.25))
        _, opt = ss.optimal_adaptive(inst, constraint)
        report = ss.lower_bound_certificate(inst, constraint, traj, opt, 0.5)
        assert len(report.rounds) == 4

    def test_degenerate_kappa(self, cc2):
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(cc2, constraint, ss.GreedyConfig(delta=0.5))
        with pytest.raises(ss.DegenerateBoundError):
            ss.lower_bound_certificate(cc2, constraint, traj, 2.0, 0.0)


class TestTrajectoryExport:
    def test_table_shape_and_determinism(self, cc2):
        traj = ss.run(cc2, ss.UniformMatroid(rank=1), ss.GreedyConfig(delta=0.25))
        table = ss.format_trajectory(cc2, traj)
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == [
            "t", "y:a", "y:b", "w:a", "w:b", "lp_objective", "value",
        ]
        assert len(lines) == 1 + 4 + 1
        assert table == ss.format_trajectory(cc2, traj)

    def test_sampled_run_has_no_value_column(self, cc2):
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=16, seed=0
        )
        traj = ss.run(cc2, ss.UniformMatroid(rank=1), config)
        table = ss.format_trajectory(cc2, traj)
        rows = [line.split("\t") for line in table.strip().split("\n")]
        assert rows[0] == ["t", "y:a", "y:b", "w:a", "w:b", "lp_objective"]
        assert {len(row) for row in rows} == {6}


class TestFinalGuarantee:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_products_beat_inner_bound(self, seed):
        inst = ss.generate_product(3, states_per_item=2, seed=seed)
        constraint = ss.UniformMatroid(rank=1)
        traj = ss.run(inst, constraint, ss.GreedyConfig(delta=0.05))
        _, opt = ss.optimal_adaptive(inst, constraint)
        bound = ss.ratio_bound(1.0, 3)
        value = ss.multilinear_value(inst, traj.final)
        assert value >= bound * opt - 1e-9
