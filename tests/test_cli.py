import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stosub as ss
from stosub import fileio, harness
from stosub.cli import build_parser, main
from helpers import table_from_function

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def fresh_cli(*args: str, hash_seed: str) -> str:
    """Stdout of ``stosub ARGS`` run in a new interpreter that imports this
    stosub under the given ``PYTHONHASHSEED``."""
    result = subprocess.run(
        [sys.executable, "-m", "stosub.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


@pytest.fixture
def cc2_path(cc2, tmp_path):
    path = tmp_path / "cc2.json"
    fileio.save_instance(cc2, path)
    return str(path)


@pytest.fixture
def product_path(tmp_path):
    path = tmp_path / "product.json"
    fileio.save_instance(ss.generate_product(2, states_per_item=2, seed=4), path)
    return str(path)


def _dip_table():
    """Two correlated items under f = 2 - #hi + #lo / 2 over the observed
    pairs: not monotone, f({}) = 2, kappa = -1/2 and gamma = -1."""
    pairs = [(i, s) for i in ("a", "b") for s in ("hi", "lo")]
    worlds = [(("hi", "hi"), 2), (("lo", "lo"), 1), (("hi", "lo"), 1)]
    return ss.Instance(
        items=("a", "b"),
        states=("hi", "lo"),
        distribution=ss.JointDistribution(
            tuple(
                (ss.Realization((("a", x), ("b", y))), Fraction(w, 4))
                for (x, y), w in worlds
            )
        ),
        utility=table_from_function(
            pairs, lambda s: 2.0 - sum(1.0 if p == "hi" else -0.5 for _, p in s)
        ),
    )


class TestValidate:
    def test_well_formed_instance(self, cc2_path, capsys):
        assert main(["validate", cc2_path]) == 0
        out = capsys.readouterr().out
        assert "monotone: True, submodular: True" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_non_monotone_table_exits_one_with_a_witness(self, tmp_path, capsys):
        path = tmp_path / "dip.json"
        fileio.save_instance(_dip_table(), path)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "monotone: False" in out
        assert "witness: " in out


class TestIndependenceCommands:
    def test_kappa_product_prints_exact_one(self, product_path, capsys):
        assert main(["kappa", product_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kappa = 1\n")

    def test_kappa_cc2(self, cc2_path, capsys):
        assert main(["kappa", cc2_path]) == 0
        assert "kappa = 1/2" in capsys.readouterr().out

    def test_gamma(self, cc2_path, capsys):
        assert main(["gamma", cc2_path]) == 0
        assert "gamma = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["kappa", "gamma"])
    def test_negative_minimum_prints_once(self, tmp_path, capsys, command):
        """The raw minimum never exceeds 1, so the clamped value is the only
        one printed, negative or not."""
        path = tmp_path / "dip.json"
        fileio.save_instance(_dip_table(), path)
        assert main([command, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = {"kappa": "-1/2 (~-0.5)", "gamma": "-1"}[command]
        assert lines[0] == f"{command} = {want}"
        assert lines[1].startswith("ratios examined: ")

    def test_capacity_exit_code(self, tmp_path):
        # One world at m = 17: 2**17 observation keys, above the table's cap.
        inst = ss.Instance(
            items=tuple(f"i{k}" for k in range(17)),
            states=("x",),
            distribution=ss.JointDistribution(
                (
                    (
                        ss.Realization(tuple((f"i{k}", "x") for k in range(17))),
                        __import__("fractions").Fraction(1),
                    ),
                )
            ),
            utility=ss.WeightedCoverage.build(
                targets=("t",),
                weights={"t": 1.0},
                coverage={(f"i{k}", "x"): ("t",) for k in range(17)},
            ),
        )
        path = tmp_path / "wide.json"
        fileio.save_instance(inst, path)
        assert main(["kappa", str(path)]) == 2

    @pytest.mark.parametrize("cap", ["-1", "0"])
    @pytest.mark.parametrize(
        "command",
        [["kappa"], ["gamma"], ["gap", "--constraint", '{"kind": "uniform", "k": 2}']],
        ids=lambda command: command[0],
    )
    def test_cap_below_one_is_a_usage_error(self, cc2_path, command, cap, capsys):
        """No command takes ``--cap``, so any value is a usage error."""
        assert main([command[0], cc2_path, *command[1:], "--cap", cap]) == 1
        assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_parser_defaults_come_from_their_sources():
    parser = build_parser()
    config = ss.GreedyConfig()
    greedy = parser.parse_args(["greedy", "x.json"])
    assert (greedy.delta, greedy.mode, greedy.seed, greedy.variant) == (
        config.delta, config.weight_mode, config.seed, config.weight_variant
    )
    spec = harness.InstanceSpec()
    generate = parser.parse_args(["generate", "product"])
    assert (generate.m, generate.states, generate.worlds, generate.seed) == (
        spec.m, spec.states, spec.worlds, spec.seed
    )


class TestGreedyCommand:
    def test_prints_trajectory_table(self, cc2_path, capsys):
        code = main(
            ["greedy", cc2_path, "--constraint", '{"kind": "uniform", "k": 1}',
             "--delta", "0.25"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("t\ty:a\ty:b")
        assert len(lines) == 6

    def test_writes_output_file(self, cc2_path, tmp_path):
        out = tmp_path / "traj.tsv"
        code = main(["greedy", cc2_path, "--delta", "0.5", "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("t\t")

    def test_sampled_mode(self, cc2_path, capsys):
        code = main(
            ["greedy", cc2_path, "--mode", "sampled", "--samples", "32",
             "--delta", "0.5", "--seed", "7"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t")[-1] == "lp_objective"  # no value column


    def test_explicit_family_with_unknown_item_exits_1(self, cc2_path, capsys):
        doc = '{"kind": "explicit", "feasible_sets": [[], ["a"], ["z"], ["a", "z"]]}'
        assert main(["greedy", cc2_path, "--constraint", doc]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown family item 'z'" in err
        assert "Traceback" not in err

    def test_sample_cap_is_a_capacity_error(self, cc2_path, capsys):
        code = main(
            ["greedy", cc2_path, "--mode", "sampled", "--samples", "100000000000",
             "--delta", "0.5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error:")
        assert "Traceback" not in err

    def test_sampled_draw_over_64_items_is_a_capacity_error(self, tmp_path, capsys):
        path = tmp_path / "cc64.json"
        assert main(["generate", "common-cause", "--m", "64", "--worlds", "2",
                     "--out", str(path)]) == 0
        code = main(["greedy", str(path), "--mode", "sampled", "--samples", "5",
                     "--delta", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "cap 63" in err
        assert "Traceback" not in err


class TestOracleCommands:
    def test_adaptive(self, cc2_path, capsys):
        code = main(
            ["oracle", "adaptive", cc2_path, "--constraint",
             '{"kind": "uniform", "k": 1}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal adaptive value: 2.0" in out
        assert '"item"' in out

    def test_nonadaptive(self, cc2_path, capsys):
        code = main(
            ["oracle", "nonadaptive", cc2_path, "--constraint",
             '{"kind": "uniform", "k": 1}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best non-adaptive value: 2.0" in out
        assert "['b']" in out

    @pytest.mark.parametrize("oracle", ["nonadaptive", "adaptive"])
    def test_explicit_family_with_unknown_item_exits_1(self, cc2_path, capsys, oracle):
        """A listed set that names an item the instance lacks is an input
        error, as it is for the ascent's LP, not a set the oracle skips."""
        doc = '{"kind": "explicit", "feasible_sets": [[], ["a"], ["z"], ["a", "z"]]}'
        assert main(["oracle", oracle, cc2_path, "--constraint", doc]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown family item 'z'" in err
        assert "Traceback" not in err

    def test_embedded_constraint_used(self, cc2, tmp_path, capsys):
        doc = fileio.instance_to_dict(cc2)
        doc["constraint"] = {"kind": "uniform", "k": 1}
        path = tmp_path / "embedded.json"
        path.write_text(fileio.dumps(doc))
        assert main(["oracle", "nonadaptive", str(path)]) == 0
        assert "2.0" in capsys.readouterr().out


class TestUnknownConstraintItems:
    """A partition block or a knapsack cost that names an item the instance
    lacks is an input error for the ascent and both oracles, as it is for a
    listed family, not a name they skip."""

    CONSTRAINTS = {
        "block": '{"kind": "partition", "blocks": [["a"], ["b", "z"]], '
        '"capacities": [1, 1]}',
        "cost": '{"kind": "knapsack", "costs": {"a": 1, "b": 1, "z": 5}, '
        '"budget": 1}',
    }

    @pytest.mark.parametrize("role", ["block", "cost"])
    @pytest.mark.parametrize(
        "command",
        [["greedy"], ["oracle", "adaptive"], ["oracle", "nonadaptive"]],
        ids=["greedy", "adaptive", "nonadaptive"],
    )
    def test_exits_1(self, cc2_path, capsys, command, role):
        doc = self.CONSTRAINTS[role]
        assert main([*command, cc2_path, "--constraint", doc]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown {role} item 'z'" in err
        assert "Traceback" not in err


class TestGapCommand:
    def test_gap_output(self, cc2_path, capsys):
        code = main(["gap", cc2_path, "--constraint", '{"kind": "uniform", "k": 2}'])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma = 1" in out
        assert "gap bound: 2.0" in out
        assert "empirical gap:" in out

    def test_gap_bound_undefined_at_gamma_zero(self, tmp_path, capsys):
        path = tmp_path / "cc4.json"
        fileio.save_instance(ss.generate_common_cause(4, 2, 6, 0), path)
        code = main(["gap", str(path), "--constraint", '{"kind": "uniform", "k": 2}'])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("gamma = 0\n")
        assert out.endswith("gap bound: undefined (gamma = 0)\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"kind": "partition", "blocks": [["a"]], "capacities": [1]}',
             "not covered by any block"),
            ('{"kind": "knapsack", "costs": {"a": 1}, "budget": 1}',
             "no cost declared for item 'b'"),
        ],
        ids=["partition", "knapsack"],
    )
    def test_bad_constraint_prints_nothing(self, cc2_path, capsys, doc, message):
        assert main(["gap", cc2_path, "--constraint", doc]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_oracle_cap_prints_nothing(self, tmp_path, capsys):
        # Product m = 6 with 4 states: 4,096 entries, 2**18 observation keys.
        path = tmp_path / "product6.json"
        fileio.save_instance(ss.generate_product(6, states_per_item=4, seed=0), path)
        assert main(["gap", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "capacity error: the observation table over 6 items and a support "
            "of 4096 needs 262144 keys, above the cap 65536\n"
        )

    def test_cap_flag_opens_gamma_from_m7(self, tmp_path, capsys):
        """``gap`` runs gamma at m = 7 with no flag: common-cause m = 7 with 12
        entries has 1,536 observation keys, inside the table's cap."""
        instance = ss.generate_common_cause(7, 2, 12, 0)
        assert len(instance.distribution.entries) == 12
        path = tmp_path / "cc7.json"
        fileio.save_instance(instance, path)
        assert main(["gap", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gamma = ")
        assert "optimal adaptive value: " in out


@pytest.mark.parametrize("target", ["cc2", "missing"])
def test_python_m_stosub_is_the_command_line(cc2_path, tmp_path, capsys, target):
    """``python -m stosub`` in a new interpreter prints what ``cli.main``
    prints, on both streams, and exits with its code, on success and on an
    input error."""
    path = cc2_path if target == "cc2" else str(tmp_path / "missing.json")
    result = subprocess.run(
        [sys.executable, "-m", "stosub", "kappa", path],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    code = main(["kappa", path])
    out, err = capsys.readouterr()
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert code == (0 if target == "cc2" else 1)


class TestHashSeedIndependence:
    """Outputs must not follow the process's string hash seed, which orders
    sets of item names; knapsack float cost sums once did."""

    KNAPSACK = (
        '{"kind": "knapsack", "costs": {"e1": 0.1, "e2": 0.2, "e3": 0.3}, '
        '"budget": 0.6}'
    )

    def test_knapsack_oracle(self, tmp_path):
        path = tmp_path / "cc3.json"
        fileio.save_instance(ss.generate_common_cause(3, 2, 4, 0), path)
        args = ("oracle", "nonadaptive", str(path), "--constraint", self.KNAPSACK)
        first = fresh_cli(*args, hash_seed="0")
        assert fresh_cli(*args, hash_seed="5") == first
        # 0.1 + 0.2 + 0.3 > 0.6 in floats, and in exact rationals of them.
        assert first.endswith("set: ['e1', 'e3']\n")

    def test_knapsack_adaptive_oracle(self, tmp_path):
        """The adaptive oracle decides feasibility from each mask's items in
        instance order, so the tree is the same in every process."""
        path = tmp_path / "cc3.json"
        fileio.save_instance(ss.generate_common_cause(3, 2, 4, 0), path)
        args = ("oracle", "adaptive", str(path), "--constraint", self.KNAPSACK)
        first = fresh_cli(*args, hash_seed="0")
        assert fresh_cli(*args, hash_seed="5") == first
        assert first.startswith("optimal adaptive value: ") and '"item"' in first

    def test_sampled_greedy_trajectory(self, tmp_path):
        """The sampled estimates and the whole trajectory, not only the masks,
        are the same in every process."""
        path = tmp_path / "cc4.json"
        fileio.save_instance(ss.generate_common_cause(4, 2, 4, 0), path)
        args = ("greedy", str(path), "--mode", "sampled", "--samples", "500",
                "--seed", "3")
        first = fresh_cli(*args, hash_seed="0")
        assert fresh_cli(*args, hash_seed="5") == first
        assert first.count("\n") > 10

    def test_experiment_report_bytes(self, tmp_path):
        suite = str(TESTS / "data" / "hash_seed_suite.json")
        reports = []
        for seed in ("0", "5"):
            out_dir = tmp_path / seed
            fresh_cli("experiment", suite, "--out-dir", str(out_dir), hash_seed=seed)
            reports.append(
                [(out_dir / name).read_bytes() for name in ("report.tsv", "report.json")]
            )
        assert reports[0] == reports[1]


class TestGenerateCommand:
    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "gen.json"
        code = main(
            ["generate", "common-cause", "--m", "3", "--worlds", "3",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        inst = fileio.load_instance(out)
        assert inst == ss.generate_common_cause(3, 2, 3, 5)

    def test_product_to_stdout(self, capsys):
        assert main(["generate", "product", "--m", "2", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["items"] == ["e1", "e2"]


class TestExperimentCommand:
    def test_bundled_strict_passes(self, capsys):
        assert main(["experiment", "--bundled", "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name\t")

    def test_missing_scenarios_argument(self, capsys):
        assert main(["experiment"]) == 1

    def test_strict_flags_failures(self, tmp_path, capsys, monkeypatch):
        # Force a failing flag by shrinking the virtual threshold comparison.
        import stosub.harness as hm

        doc = {
            "scenarios": [
                {
                    "name": "forced",
                    "kind": "adaptivity-gap",
                    "instance": {"generator": "common-cause-2"},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(fileio.dumps(doc))

        real = hm.virtual_nonadaptive_value
        monkeypatch.setattr(
            hm, "virtual_nonadaptive_value", lambda *a, **k: real(*a, **k) - 10.0
        )
        assert main(["experiment", str(path), "--strict"]) == 3
        assert main(["experiment", str(path)]) == 0

    def test_out_dir_written_and_deterministic(self, tmp_path, capsys):
        doc = {
            "scenarios": [
                {
                    "name": "det",
                    "kind": "ratio-check",
                    "instance": {"generator": "product", "m": 2, "states": 2, "seed": 3},
                    "constraint": {"kind": "uniform", "k": 1},
                    "greedy": {"delta": 0.25},
                    "rounding_seeds": 50,
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(fileio.dumps(doc))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", str(path), "--out-dir", str(out_a)]) == 0
        assert main(["experiment", str(path), "--out-dir", str(out_b)]) == 0
        assert (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


class TestOutputPathErrors:
    def test_generate_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.json"
        assert main(["generate", "common-cause", "--out", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_greedy_output_into_missing_directory(self, cc2_path, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "t.tsv"
        assert main(["greedy", cc2_path, "--output", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_experiment_out_dir_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main(["experiment", "--bundled", "--out-dir", str(blocker)]) == 1
        assert "error: cannot write" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory"


class TestUsageErrors:
    def test_unknown_flag(self, cc2_path, capsys):
        assert main(["kappa", cc2_path, "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_bad_constraint_json(self, cc2_path, capsys):
        assert main(["oracle", "adaptive", cc2_path, "--constraint", "{oops"]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind": "uniform", "k": "x"}',
            '{"kind": "uniform", "k": 1.5}',
            '{"kind": "partition", "blocks": [["a"], ["b"]], "capacities": [1.5, 1]}',
            '{"kind": "partition", "blocks": [["a"], ["b"]], "capacities": ["1", 1]}',
            '{"kind": "knapsack", "costs": {"a": 1, "b": 1}, "budget": "x"}',
            '{"kind": "knapsack", "costs": [1], "budget": 1}',
            '[1]',
        ],
        ids=[
            "string-k",
            "fractional-k",
            "fractional-capacity",
            "string-capacity",
            "string-budget",
            "costs-not-a-mapping",
            "not-an-object",
        ],
    )
    def test_malformed_constraint_document(self, cc2_path, capsys, doc):
        assert main(["greedy", cc2_path, "--constraint", doc]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind": "partition", "blocks": [[["a"]]], "capacities": [1]}',
            '{"kind": "explicit", "feasible_sets": [[], ["a"], ["a", "b"]],'
            ' "downward_closed": "no"}',
        ],
        ids=["nested-block-entry", "string-downward-closed"],
    )
    def test_malformed_constraint_entries(self, cc2_path, capsys, doc):
        assert main(["greedy", cc2_path, "--constraint", doc]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "table, path, value",
        [
            (False, ["utility", "coverage"], []),
            (False, ["utility", "coverage", "a"], ["t1"]),
            (False, ["distribution", 0, "assignment"], ["a"]),
            (False, ["utility", "weights", "t1"], "x"),
            (True, ["utility", "table", 1, "value"], "x"),
            (True, ["utility", "table", 1], {"pairs": [["a", "x"]]}),
        ],
        ids=[
            "coverage-list",
            "item-coverage-list",
            "assignment-list",
            "string-weight",
            "string-table-value",
            "missing-table-value",
        ],
    )
    def test_malformed_instance_document(
        self, cc2, tmp_path, capsys, table, path, value
    ):
        if table:
            doc = fileio.instance_to_dict(
                ss.Instance(
                    items=("a",),
                    states=("x",),
                    distribution=ss.JointDistribution(
                        ((ss.Realization((("a", "x"),)), 1),)
                    ),
                    utility=table_from_function([("a", "x")], len),
                )
            )
        else:
            doc = fileio.instance_to_dict(cc2)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        instance_path = tmp_path / "bad.json"
        instance_path.write_text(json.dumps(doc))
        assert main(["validate", str(instance_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_scenario_path_not_a_string(self, tmp_path, capsys):
        doc = {
            "scenarios": [
                {
                    "name": "bad-path",
                    "instance": {"path": 5},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(fileio.dumps(doc))
        assert main(["experiment", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_scenario_field(self, tmp_path, capsys):
        doc = {
            "scenarios": [
                {
                    "name": "bad-m",
                    "instance": {"generator": "common-cause", "m": "x"},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(fileio.dumps(doc))
        assert main(["experiment", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "name, code",
        [("a b", 0), (5, 1), (None, 1), ("a\tb", 1), ("a\nb", 1), ("a\rb", 1)],
    )
    def test_scenario_name_is_one_tsv_cell(self, tmp_path, capsys, name, code):
        doc = {
            "scenarios": [
                {
                    "name": name,
                    "kind": "independence-profile",
                    "instance": {"generator": "common-cause", "m": 3},
                    "constraint": {"kind": "uniform", "k": 1},
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(fileio.dumps(doc))
        out = tmp_path / "out"
        assert main(["experiment", str(path), "--out-dir", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()
        else:
            header, row = (out / "report.tsv").read_text().splitlines()
            assert len(row.split("\t")) == len(header.split("\t"))

    @pytest.mark.parametrize("command", ["validate", "kappa", "gamma"])
    def test_weights_whose_sum_overflows(self, cc2, tmp_path, capsys, command):
        doc = fileio.instance_to_dict(cc2)
        doc["utility"]["weights"] = {"t1": 1e308, "t2": 1e308, "t3": 1e308}
        instance_path = tmp_path / "bad.json"
        instance_path.write_text(json.dumps(doc))
        assert main([command, str(instance_path)]) == 1
        assert "finite sum" in capsys.readouterr().err
