"""Mutated documents load or fail with a typed, exit-1 error.

Each example takes a valid instance, constraint or scenario document,
applies a few JSON-shaped mutations (replace a node with an arbitrary JSON
value, delete a key or list entry, insert one) and feeds the result to its
reader.  It must return the reader's object or raise a
``StosubError`` the CLI maps to exit code 1 (anything but
``CapacityError``); any other exception is a defect.  Examples are
derandomized so the suite stays reproducible.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

import stosub as ss
from stosub import fileio, harness
from stosub.cli import BUNDLED_SUITE
from helpers import table_from_function

BASES = [
    fileio.instance_to_dict(ss.common_cause_2()),
    fileio.instance_to_dict(ss.generate_common_cause(3, 2, 4, seed=1)),
    fileio.instance_to_dict(
        ss.Instance(
            items=("a", "b"),
            states=("x", "y"),
            distribution=ss.JointDistribution(
                (
                    (ss.Realization((("a", "x"), ("b", "y"))), "1/3"),
                    (ss.Realization((("a", "y"), ("b", "y"))), "2/3"),
                )
            ),
            utility=table_from_function(
                [(i, s) for i in "ab" for s in "xy"], lambda pairs: len(pairs) ** 0.5
            ),
        )
    ),
]

WORDS = ["a", "b", "x", "y", "good", "bad", "t1", "s1", "e1", "1/2", "1", "",
         "weighted-coverage", "explicit-table", "pairs", "value", "assignment"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc, values=json_values, words=WORDS):
    paths = list(_paths(doc))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    if not path:
        return data.draw(values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if action == "replace":
        parent[path[-1]] = data.draw(values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], data.draw(values))
    else:
        parent[data.draw(st.sampled_from(words))] = data.draw(values)
    return doc


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_instance_documents(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    try:
        instance = fileio.instance_from_dict(doc)
    except ss.StosubError as exc:
        assert not isinstance(exc, ss.CapacityError)
    else:
        assert isinstance(instance, ss.Instance)


CONSTRAINT_BASES = [
    {"kind": "uniform", "k": 2},
    {"kind": "partition", "blocks": [["a"], ["b", "c"]], "capacities": [1, 1]},
    {"kind": "knapsack", "costs": {"a": 1.0, "b": 2.5}, "budget": 3.0, "alpha": 0.5},
    {"kind": "explicit", "feasible_sets": [[], ["a"], ["b"], ["a", "b"]]},
    {"kind": "explicit", "feasible_sets": [[], ["a", "b"]], "downward_closed": False,
     "alpha": 1.0},
]

SCENARIO_BASES = [
    scenario
    for scenario in json.loads(BUNDLED_SUITE.read_text())["scenarios"]
    if scenario["name"] in ("cc-m3-w4-s0-partition", "cc-m3-w4-s1-knapsack-gap")
] + [
    {
        "name": "from-file",
        "kind": "certificate",
        "instance": {"path": "cc2.json"},
        "constraint": {"kind": "uniform", "k": 1},
        "greedy": {"delta": 0.1, "weight_mode": "sampled", "sample_count": 20,
                   "weight_variant": "standard", "seed": 3},
        "rounding_seeds": 10,
        "rounding_base_seed": 4,
    },
]

READERS = {
    "constraint": (fileio.constraint_from_dict, ss.Constraint, CONSTRAINT_BASES),
    "scenario": (harness.scenario_from_dict, harness.Scenario, SCENARIO_BASES),
}

DOCUMENT_WORDS = WORDS + [
    "kind", "k", "uniform", "partition", "knapsack", "explicit", "blocks",
    "capacities", "costs", "budget", "alpha", "feasible_sets", "downward_closed",
    "item", "branches", "stop", "name", "instance", "generator", "path",
    "constraint", "greedy", "delta", "sample_count", "auto", "weight_mode",
    "rounding_seeds", "common-cause", "product", "e1", "good",
]
document_values = st.recursive(
    scalars | st.sampled_from(DOCUMENT_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(DOCUMENT_WORDS), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mutated_documents(reader, data):
    read, kind, bases = READERS[reader]
    doc = copy.deepcopy(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc, document_values, DOCUMENT_WORDS)
    try:
        parsed = read(doc)
    except ss.StosubError as exc:
        assert not isinstance(exc, ss.CapacityError)
    else:
        assert isinstance(parsed, kind)
