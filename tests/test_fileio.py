import json
from fractions import Fraction

import pytest

import stosub as ss
from helpers import policy_from_obj, table_from_function
from stosub import fileio


class TestInstanceRoundTrip:
    def test_cc2(self, cc2, tmp_path):
        path = tmp_path / "cc2.json"
        fileio.save_instance(cc2, path)
        assert fileio.load_instance(path) == cc2

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_instances(self, seed, tmp_path):
        inst = ss.generate_common_cause(3, 2, 4, seed)
        path = tmp_path / "inst.json"
        fileio.save_instance(inst, path)
        assert fileio.load_instance(path) == inst

    def test_awkward_floats_survive(self, tmp_path):
        inst = ss.Instance(
            items=("a",),
            states=("x",),
            distribution=ss.JointDistribution(
                ((ss.Realization((("a", "x"),)), Fraction(1)),)
            ),
            utility=ss.WeightedCoverage.build(
                targets=("t",), weights={"t": 0.1 + 0.2}, coverage={("a", "x"): ("t",)}
            ),
        )
        path = tmp_path / "float.json"
        fileio.save_instance(inst, path)
        loaded = fileio.load_instance(path)
        assert loaded == inst
        assert loaded.utility.weights[0] == 0.1 + 0.2

    def test_table_utility_round_trip(self, tmp_path):
        table = table_from_function(
            [("a", "x"), ("a", "y")], lambda key: float(len(key)) / 3.0
        )
        inst = ss.Instance(
            items=("a",),
            states=("x", "y"),
            distribution=ss.JointDistribution(
                (
                    (ss.Realization((("a", "x"),)), Fraction(2, 7)),
                    (ss.Realization((("a", "y"),)), Fraction(5, 7)),
                )
            ),
            utility=table,
        )
        path = tmp_path / "table.json"
        fileio.save_instance(inst, path)
        assert fileio.load_instance(path) == inst

    def test_rational_probabilities_as_strings(self, cc2, tmp_path):
        path = tmp_path / "cc2.json"
        fileio.save_instance(cc2, path)
        doc = json.loads(path.read_text())
        assert doc["distribution"][0]["prob"] == "1/2"


def _table_doc():
    return {
        "items": ["a"],
        "states": ["x"],
        "distribution": [{"assignment": {"a": "x"}, "prob": "1"}],
        "utility": {
            "kind": "explicit-table",
            "ground": [["a", "x"]],
            "table": [
                {"pairs": [], "value": 0.0},
                {"pairs": [["a", "x"]], "value": 1.0},
            ],
        },
    }


def _coverage_doc():
    return fileio.instance_to_dict(ss.common_cause_2())


def _setter(path, value):
    def patch(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return patch


def _deleter(path):
    def patch(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]

    return patch


# One malformed document per entry: (base document, patch applied to it).
MALFORMED_INSTANCES = {
    "coverage-not-an-object": (_coverage_doc, _setter(["utility", "coverage"], [])),
    "item-coverage-not-an-object": (
        _coverage_doc, _setter(["utility", "coverage", "a"], ["t1"])
    ),
    "covered-not-a-list": (
        _coverage_doc, _setter(["utility", "coverage", "a", "good"], "t1")
    ),
    "assignment-not-an-object": (
        _coverage_doc, _setter(["distribution", 0, "assignment"], ["a"])
    ),
    "assignment-state-not-a-string": (
        _coverage_doc, _setter(["distribution", 0, "assignment", "a"], ["good"])
    ),
    "distribution-entry-not-an-object": (
        _coverage_doc, _setter(["distribution", 0], "a")
    ),
    "item-not-a-string": (_coverage_doc, _setter(["items", 0], ["a"])),
    "string-weight": (_coverage_doc, _setter(["utility", "weights", "t1"], "x")),
    "bool-weight": (_coverage_doc, _setter(["utility", "weights", "t1"], True)),
    "huge-int-weight": (_coverage_doc, _setter(["utility", "weights", "t1"], 10**400)),
    "weights-sum-overflows": (
        _coverage_doc,
        _setter(["utility", "weights"], {"t1": 1e308, "t2": 1e308, "t3": 1e308}),
    ),
    "missing-weight": (_coverage_doc, _deleter(["utility", "weights", "t1"])),
    "string-table-value": (_table_doc, _setter(["utility", "table", 1, "value"], "x")),
    "missing-table-value": (_table_doc, _deleter(["utility", "table", 1, "value"])),
    "table-entry-not-an-object": (_table_doc, _setter(["utility", "table", 0], [])),
    "ground-pair-not-a-pair": (_table_doc, _setter(["utility", "ground", 0], "ax")),
    "table-pair-not-a-pair": (
        _table_doc, _setter(["utility", "table", 1, "pairs", 0], ["a"])
    ),
}


def malformed_instance(name):
    base, patch = MALFORMED_INSTANCES[name]
    doc = base()
    patch(doc)
    return doc


class TestInstanceParsing:
    @pytest.mark.parametrize("base", [_coverage_doc, _table_doc])
    def test_well_formed_bases_load(self, base):
        assert isinstance(fileio.instance_from_dict(base()), ss.Instance)

    def test_bad_probability_string(self):
        doc = {
            "items": ["a"],
            "states": ["x"],
            "distribution": [{"assignment": {"a": "x"}, "prob": "one half"}],
            "utility": {
                "kind": "weighted-coverage",
                "targets": ["t"],
                "weights": {"t": 1.0},
                "coverage": {"a": {"x": ["t"]}},
            },
        }
        with pytest.raises(ss.InputError):
            fileio.instance_from_dict(doc)

    def test_missing_field(self):
        with pytest.raises(ss.InputError, match="missing"):
            fileio.instance_from_dict({"items": ["a"]})

    def test_unknown_utility_kind(self):
        with pytest.raises(ss.InputError, match="utility kind"):
            fileio.utility_from_dict({"kind": "mystery"})

    @pytest.mark.parametrize("field", ["items", "states"])
    def test_items_and_states_must_be_lists(self, cc2, field):
        doc = fileio.instance_to_dict(cc2)
        doc[field] = "".join(doc[field])
        with pytest.raises(ss.InputError, match=field):
            fileio.instance_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ss.InputError):
            fileio.load_instance(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCES))
    def test_malformed_nested_fields_rejected(self, name):
        with pytest.raises(ss.InputError):
            fileio.instance_from_dict(malformed_instance(name))


class TestConstraintRoundTrip:
    @pytest.mark.parametrize(
        "constraint",
        [
            ss.UniformMatroid(rank=2),
            ss.PartitionMatroid(blocks=(("a",), ("b", "c")), capacities=(1, 1)),
            ss.Knapsack(costs=(("a", 3.0), ("b", 4.0)), budget=7.0),
            ss.ExplicitFamily(feasible_sets=((), ("a",))),
            ss.ExplicitFamily(
                feasible_sets=((), ("a",), ("a", "b")), downward_closed=False
            ),
        ],
    )
    def test_round_trip(self, constraint):
        assert (
            fileio.constraint_from_dict(constraint.to_dict())
            == constraint
        )

    def test_embedded_constraint(self, cc2, tmp_path):
        doc = fileio.instance_to_dict(cc2)
        doc["constraint"] = {"kind": "uniform", "k": 1}
        path = tmp_path / "with_constraint.json"
        path.write_text(fileio.dumps(doc))
        inst, constraint = fileio.load_instance_and_constraint(path)
        assert inst == cc2
        assert constraint == ss.UniformMatroid(rank=1)

    def test_unknown_kind(self):
        with pytest.raises(ss.InputError):
            fileio.constraint_from_dict({"kind": "mystery"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "uniform", "k": "x"},
            {"kind": "uniform", "k": 1.5},
            {"kind": "uniform", "k": True},
            {"kind": "partition", "blocks": [["a"]], "capacities": [1.5]},
            {"kind": "partition", "blocks": [["a"]], "capacities": ["1"]},
            {"kind": "partition", "blocks": [["a"]], "capacities": 1},
            {"kind": "partition", "blocks": "a", "capacities": [1]},
            {"kind": "knapsack", "costs": {"a": 1.0}, "budget": "x"},
            {"kind": "knapsack", "costs": [1], "budget": 1.0},
            {"kind": "knapsack", "costs": {"a": "1"}, "budget": 1.0},
            {"kind": "explicit", "feasible_sets": "a"},
            {"kind": "explicit", "feasible_sets": [[], 5]},
            {"kind": "partition", "blocks": [5], "capacities": [1]},
            {"kind": ["uniform"], "k": 1},
            ["uniform", 1],
        ],
        ids=[
            "string-k",
            "fractional-k",
            "bool-k",
            "fractional-capacity",
            "string-capacity",
            "capacities-not-a-list",
            "blocks-not-a-list",
            "string-budget",
            "costs-not-a-mapping",
            "string-cost",
            "feasible-sets-not-a-list",
            "feasible-set-not-a-list",
            "block-not-a-list",
            "unhashable-kind",
            "not-an-object",
        ],
    )
    def test_malformed_constraint_rejected(self, doc):
        with pytest.raises(ss.InputError):
            fileio.constraint_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "partition", "blocks": [[["a"]]], "capacities": [1]},
            {"kind": "partition", "blocks": [["a", 1]], "capacities": [1]},
            {"kind": "explicit", "feasible_sets": [[], [["a"]]]},
            {"kind": "explicit", "feasible_sets": [[]], "downward_closed": "no"},
            {"kind": "explicit", "feasible_sets": [[]], "downward_closed": 0},
        ],
        ids=[
            "nested-block-entry",
            "number-block-entry",
            "nested-feasible-set-entry",
            "string-downward-closed",
            "number-downward-closed",
        ],
    )
    def test_malformed_constraint_entries_rejected(self, doc):
        with pytest.raises(ss.InputError):
            fileio.constraint_from_dict(doc)

    def test_integral_float_fields_accepted(self):
        doc = {"kind": "partition", "blocks": [["a"], ["b"]], "capacities": [1.0, 2]}
        assert fileio.constraint_from_dict(doc) == ss.PartitionMatroid(
            blocks=(("a",), ("b",)), capacities=(1, 2)
        )


class TestPolicyRoundTrip:
    def test_tree(self, cc2):
        policy, _ = ss.optimal_adaptive(cc2, ss.UniformMatroid(rank=2))
        obj = fileio.policy_to_obj(policy)
        assert policy_from_obj(obj) == policy

    def test_stop(self):
        assert policy_from_obj("stop") == ss.Policy(root=ss.STOP)


class TestIndependenceReportSerialization:
    def test_kappa_report(self, cc2):
        doc = fileio.independence_report_to_dict(ss.kappa(cc2))
        assert doc["value"] == "1/2"
        assert doc["clamped"] == "1/2"
        assert doc["witness"]["item"] == "a"
        assert doc["witness"]["observation"] == {"b": "good"}

    def test_gamma_report(self, cc2):
        doc = fileio.independence_report_to_dict(ss.gamma(cc2))
        assert doc["value"] == "1"
        assert "observation_alt" in doc["witness"]
