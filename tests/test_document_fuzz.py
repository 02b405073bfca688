"""Mutated instance documents load or fail with a typed, exit-1 error.

Each example takes a valid instance document, applies a few JSON-shaped
mutations (replace a node with an arbitrary JSON value, delete a key or list
entry, insert one) and feeds the result to ``fileio.instance_from_dict``.  It
must return an ``Instance`` or raise a ``StosubError`` the CLI maps to exit
code 1 (anything but ``CapacityError``); any other exception is a defect.
Examples are derandomized so the suite stays reproducible.
"""

import copy

from hypothesis import given, settings, strategies as st

import stosub as ss
from stosub import fileio

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
            utility=ss.ExplicitTable.from_function(
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


def _mutate(data, doc):
    paths = list(_paths(doc))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    if not path:
        return data.draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if action == "replace":
        parent[path[-1]] = data.draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], data.draw(json_values))
    else:
        parent[data.draw(st.sampled_from(WORDS))] = data.draw(json_values)
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
