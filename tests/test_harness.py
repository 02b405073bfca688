import json
from fractions import Fraction
from pathlib import Path

import pytest

import stosub as ss
from helpers import direct_set_value
from stosub import fileio, harness
from stosub.cli import BUNDLED_SUITE

FRACTIONAL_ENDPOINTS = Path(__file__).parent / "data" / "fractional_endpoints.json"


def scenario(name="demo", kind="ratio-check", generator="common-cause-2", **kw):
    spec = ss.harness.InstanceSpec(
        generator=generator,
        m=kw.pop("m", 2),
        states=kw.pop("states", 2),
        worlds=kw.pop("worlds", 2),
        seed=kw.pop("seed", 0),
    )
    return harness.Scenario(
        name=name,
        kind=kind,
        instance=spec,
        constraint=kw.pop("constraint", ss.UniformMatroid(rank=1)),
        greedy=kw.pop("greedy", ss.GreedyConfig(delta=0.1)),
    )


class TestRunPipeline:
    def test_product_modular_like_run_hits_ratio_one(self):
        row = harness.run_pipeline(
            scenario(generator="product", m=3, seed=1)
        )
        assert row.kappa == 1.0 and row.gamma == 1.0
        assert row.flag_inner == "pass"
        assert row.flag_rounding == "pass"
        assert row.flag_virtual == "pass"
        assert row.fractional_value == pytest.approx(row.opt_adaptive)

    def test_cc2_ratio_check(self):
        row = harness.run_pipeline(scenario())
        assert row.kappa_raw == "1/2"
        assert row.all_flags_ok
        # m = 2 makes the closed-form factor negative, hence vacuous.
        assert row.flag_inner == "vacuous"
        assert row.bound_inner < 0

    def test_deterministic_world_collapses_all_values(self):
        row = harness.run_pipeline(
            scenario(generator="common-cause", m=3, worlds=1, seed=3)
        )
        assert row.opt_adaptive == row.best_nonadaptive
        assert row.rounded_mean == pytest.approx(row.opt_adaptive)
        assert not hasattr(row, "rounded_se")

    def test_independence_profile_rows_are_sparse(self):
        row = harness.run_pipeline(scenario(kind="independence-profile"))
        assert row.opt_adaptive is None
        assert row.fractional_value is None
        assert row.kappa_raw == "1/2"

    def test_adaptivity_gap_row(self):
        row = harness.run_pipeline(scenario(kind="adaptivity-gap"))
        assert row.virtual_value is not None
        assert "gap_bound=2.0" in row.notes
        assert row.flag_virtual == "pass"

    def test_certificate_row(self):
        row = harness.run_pipeline(
            scenario(kind="certificate", greedy=ss.GreedyConfig(delta=0.05))
        )
        assert row.flag_inner == "pass"
        assert "certificate_rounds=20" in row.notes

    def test_certificate_row_with_degenerate_kappa(self):
        row = harness.run_pipeline(
            scenario(
                kind="certificate", generator="common-cause", m=5, states=3,
                worlds=16, seed=0, constraint=ss.UniformMatroid(rank=2),
            )
        )
        assert row.kappa == 0.0
        assert row.flag_inner == "vacuous"
        assert row.notes == "degenerate kappa"

    def test_ratio_check_row_with_degenerate_kappa(self):
        row = harness.run_pipeline(
            scenario(
                generator="common-cause", m=4, worlds=6, seed=0,
                constraint=ss.UniformMatroid(rank=2),
            )
        )
        assert row.kappa_raw == "0" and row.bound_inner is None
        assert (row.flag_inner, row.flag_rounding) == ("vacuous", "vacuous")
        assert row.rounded_mean is not None and not hasattr(row, "alpha")
        assert row.notes == "degenerate kappa"

    def test_adaptivity_gap_row_with_degenerate_gamma(self):
        row = harness.run_pipeline(
            scenario(kind="adaptivity-gap", generator="common-cause", m=4, worlds=6)
        )
        assert row.gamma_raw == "0"
        assert row.flag_virtual == "pass"
        assert row.notes == "gap bound undefined (gamma = 0)"

    def test_sampled_certificate_violations_are_vacuous(self, tmp_path):
        """Items a and b cover the same target, so a one-sample estimate of
        either weight is 0 when the draw holds the other item; at seed 27
        both are 0 in one round, the LP picks nothing and that round's
        gain is 0 below a positive requirement."""
        instance = ss.Instance(
            items=("a", "b"),
            states=("on",),
            distribution=ss.JointDistribution(
                ((ss.Realization((("a", "on"), ("b", "on"))), Fraction(1)),)
            ),
            utility=ss.WeightedCoverage.build(
                targets=("t",),
                weights={"t": 1.0},
                coverage={("a", "on"): ("t",), ("b", "on"): ("t",)},
            ),
        )
        fileio.save_instance(instance, tmp_path / "twins.json")
        rows = {}
        for mode in ("sampled", "exact"):
            rows[mode] = harness.run_pipeline(
                harness.Scenario(
                    name=mode,
                    kind="certificate",
                    instance=harness.InstanceSpec(path="twins.json"),
                    constraint=ss.UniformMatroid(rank=2),
                    greedy=ss.GreedyConfig(
                        delta=0.1, weight_mode=mode, sample_count=1, seed=27
                    ),
                ),
                base_dir=tmp_path,
            )
        assert rows["sampled"].flag_inner == "vacuous"
        assert rows["sampled"].notes == "certificate_rounds=10;sampled_violations=1"
        assert rows["exact"].flag_inner == "pass"
        assert rows["exact"].notes == "certificate_rounds=10"

    def test_non_matroid_ratio_check_skips_rounding(self):
        row = harness.run_pipeline(
            scenario(
                constraint=ss.Knapsack(costs=(("a", 1.0), ("b", 1.0)), budget=1.0)
            )
        )
        assert row.rounded_mean is None
        assert "no rounding scheme" in row.notes


class TestFractionalEndpoints:
    """Scenarios whose ascent ends at a fractional point, so rounding branches."""

    SCENARIOS = harness.load_scenarios(FRACTIONAL_ENDPOINTS)

    @pytest.mark.parametrize("s", SCENARIOS, ids=[s.name for s in SCENARIOS])
    def test_rounded_mean_is_the_exact_mean(self, s):
        inst = s.instance.resolve()
        final = ss.run(inst, s.constraint, s.greedy).final
        assert any(1e-9 < v < 1 - 1e-9 for v in final.values)
        dist = ss.exact_distribution(inst, s.constraint, final)
        assert len(dist) > 1
        row = harness.run_pipeline(s)
        assert not hasattr(row, "rounded_se")
        assert row.rounded_mean == float(
            sum(w * direct_set_value(inst, chosen) for chosen, w in dist)
        )
        assert row.all_flags_ok

    def test_some_rounding_flag_is_binding(self):
        rows = harness.run_suite(self.SCENARIOS).rows
        assert any(row.flag_rounding == "pass" for row in rows)


class TestSuiteAndReports:
    def test_tsv_shape(self):
        report = harness.run_suite([scenario(), scenario(name="second")])
        text = harness.report_to_tsv(report)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == list(harness.TSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "demo"

    def test_rows_keep_declaration_order(self):
        report = harness.run_suite(
            [scenario(name="zzz"), scenario(name="aaa")]
        )
        assert [r.name for r in report.rows] == ["zzz", "aaa"]

    def test_report_json_round_trips_through_dumps(self):
        report = harness.run_suite([scenario()])
        doc = harness.report_to_dict(report)
        assert json.loads(fileio.dumps(doc)) == doc

    def test_write_report(self, tmp_path):
        report = harness.run_suite([scenario()])
        tsv_path, json_path = harness.write_report(report, tmp_path / "out")
        assert tsv_path.read_text() == harness.report_to_tsv(report)
        assert json.loads(json_path.read_text()) == harness.report_to_dict(report)


class TestScenarioFiles:
    def test_bundled_suite_parses(self):
        scenarios = harness.load_scenarios(BUNDLED_SUITE)
        assert len(scenarios) >= 10
        ratio_checks = [
            s
            for s in scenarios
            if s.kind == "ratio-check"
            and s.constraint.kind in ("uniform", "partition")
            and 2 <= s.instance.m <= 4
        ]
        assert len(ratio_checks) >= 10

    def test_file_instance_source(self, cc2, tmp_path):
        inst_path = tmp_path / "inst.json"
        fileio.save_instance(cc2, inst_path)
        doc = {
            "scenarios": [
                {
                    "name": "from-file",
                    "kind": "independence-profile",
                    "instance": {"path": "inst.json"},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            ]
        }
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(fileio.dumps(doc))
        scenarios = harness.load_scenarios(suite_path)
        report = harness.run_suite(scenarios, base_dir=suite_path.parent)
        assert report.rows[0].kappa_raw == "1/2"

    def test_bad_kind_rejected(self):
        with pytest.raises(ss.InputError):
            harness.scenario_from_dict(
                {
                    "name": "x",
                    "kind": "mystery",
                    "instance": {"generator": "common-cause-2"},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            )

    def test_missing_constraint_rejected(self):
        with pytest.raises(ss.InputError):
            harness.scenario_from_dict(
                {
                    "name": "x",
                    "kind": "ratio-check",
                    "instance": {"generator": "common-cause-2"},
                }
            )

    @pytest.mark.parametrize(
        "patch",
        [
            {"instance": {"generator": "common-cause", "m": "x"}},
            {"instance": {"generator": "common-cause", "m": 2.5}},
            {"instance": {"generator": "common-cause", "seed": True}},
            {"greedy": {"delta": "fast"}},
            {"greedy": {"sample_count": [1]}},
            {"greedy": "exact"},
        ],
        ids=[
            "string-m",
            "fractional-m",
            "bool-seed",
            "string-delta",
            "list-sample-count",
            "greedy-not-an-object",
        ],
    )
    def test_malformed_scenario_fields_rejected(self, patch):
        doc = {
            "name": "x",
            "instance": {"generator": "common-cause-2"},
            "constraint": {"kind": "uniform", "k": 1},
            **patch,
        }
        with pytest.raises(ss.InputError):
            harness.scenario_from_dict(doc)

    def test_retired_rounding_seed_fields_are_ignored(self):
        doc = {
            "name": "x",
            "instance": {"generator": "common-cause-2"},
            "constraint": {"kind": "uniform", "k": 1},
        }
        legacy = {**doc, "rounding_seeds": "20", "rounding_base_seed": -4}
        assert harness.scenario_from_dict(legacy) == harness.scenario_from_dict(doc)

    def test_defaults_come_from_the_config_types(self):
        doc = {
            "instance": {"generator": "common-cause"},
            "constraint": {"kind": "uniform", "k": 1},
        }
        parsed = harness.scenario_from_dict(doc)
        assert parsed.greedy == ss.GreedyConfig()
        assert parsed.instance == harness.InstanceSpec(generator="common-cause")

    def test_scenario_must_be_an_object(self):
        with pytest.raises(ss.InputError):
            harness.scenario_from_dict(["x"])

    @pytest.mark.parametrize("path", [5, ["a.json"], {"file": "a.json"}])
    def test_instance_path_must_be_a_string(self, path):
        doc = {
            "name": "x",
            "instance": {"path": path},
            "constraint": {"kind": "uniform", "k": 1},
        }
        with pytest.raises(ss.InputError, match="path"):
            harness.scenario_from_dict(doc)


class TestDeterminism:
    def test_pipeline_rows_identical_across_runs(self):
        s = scenario(generator="common-cause", m=3, worlds=4, seed=7)
        assert harness.run_pipeline(s) == harness.run_pipeline(s)
