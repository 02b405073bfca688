"""Every input check raises its typed error with its message.

The checks below guard the library API and the scenario and instance
files; none of them is reached by the tests of the paths they guard.  File
inputs run through the command line, which must exit 1 with one
``error:`` line and no traceback.
"""

from fractions import Fraction

import pytest

import stosub as ss
from stosub import fileio, multilinear
from stosub.cli import main


def _realization(**states):
    return ss.Realization(tuple(states.items()))


def _table(ground, entries):
    return ss.ExplicitTable(ground=tuple(ground), entries=tuple(entries))


ONE_PAIR = (("a", "x"),)

LIBRARY = {
    "duplicate-knapsack-cost": (
        lambda: ss.Knapsack(costs=(("a", 1.0), ("a", 2.0)), budget=1.0),
        ss.InputError,
        "duplicate cost for item 'a'",
    ),
    "product-m-zero": (
        lambda: ss.generate_product(0),
        ss.InputError,
        "m must be at least 1",
    ),
    "product-marginal-count": (
        lambda: ss.generate_product(2, per_item_marginals=[[("s", Fraction(1))]]),
        ss.InputError,
        "one marginal per item required",
    ),
    "point-duplicate-items": (
        lambda: ss.FractionalPoint(("a", "a"), (0.5, 0.5)),
        ss.InputError,
        "duplicate items in fractional point",
    ),
    "point-length-mismatch": (
        lambda: ss.FractionalPoint(("a",), (0.5, 0.5)),
        ss.InputError,
        "one coordinate per item required",
    ),
    "point-unknown-item": (
        lambda: ss.FractionalPoint(("a",), (0.5,)).value_of("z"),
        ss.InputError,
        "unknown item 'z'",
    ),
    "stream-not-a-tuple": (
        lambda: multilinear._key(0, [1]),
        ss.InputError,
        r"stream must be a tuple of integers, got \[1\]",
    ),
    "pick-branches-twice": (
        lambda: ss.Pick("a", (("x", ss.Stop()), ("x", ss.Stop()))),
        ss.PolicyError,
        "node for 'a' branches twice on one state",
    ),
    "ratio-bound-m-zero": (
        lambda: ss.ratio_bound(0.5, 0),
        ss.InputError,
        "m must be at least 1",
    ),
    "gap-bound-gamma-above-one": (
        lambda: ss.adaptivity_gap_bound(1.5),
        ss.InputError,
        r"gamma must lie in \(0, 1\]; clamp raw values first",
    ),
    "realization-item-twice": (
        lambda: ss.Realization((("a", "x"), ("a", "y"))),
        ss.InputError,
        "realization assigns an item more than once",
    ),
    "realization-unassigned-item": (
        lambda: _realization(a="x").state_of("b"),
        ss.InputError,
        "item 'b' not assigned in this realization",
    ),
    "empty-support": (
        lambda: ss.JointDistribution(()),
        ss.InputError,
        "distribution support is empty",
    ),
    "negative-probability": (
        lambda: ss.JointDistribution(
            (
                (_realization(a="x"), Fraction(3, 2)),
                (_realization(a="y"), Fraction(-1, 2)),
            )
        ),
        ss.InputError,
        "probabilities must be nonnegative",
    ),
    "duplicate-targets": (
        lambda: ss.WeightedCoverage(("t", "t"), (1.0, 1.0), ()),
        ss.InputError,
        "duplicate targets",
    ),
    "weight-count": (
        lambda: ss.WeightedCoverage(("t",), (1.0, 2.0), ()),
        ss.InputError,
        "one weight per target required",
    ),
    "duplicate-coverage-entry": (
        lambda: ss.WeightedCoverage(
            ("t",), (1.0,), ((("a", "x"), ("t",)), (("a", "x"), ()))
        ),
        ss.InputError,
        r"duplicate coverage entry for \('a', 'x'\)",
    ),
    "table-duplicate-ground": (
        lambda: _table(ONE_PAIR * 2, []),
        ss.InputError,
        "duplicate ground pairs",
    ),
    "table-subset-outside-ground": (
        lambda: _table(ONE_PAIR, [((), 0.0), ((("b", "x"),), 1.0)]),
        ss.InputError,
        r"table subset \[\('b', 'x'\)\] outside the ground set",
    ),
    "table-duplicate-entry": (
        lambda: _table(ONE_PAIR, [((), 0.0), ((), 1.0)]),
        ss.InputError,
        r"duplicate table entry for \[\]",
    ),
    "table-missing-subset": (
        lambda: _table(ONE_PAIR, [((), 0.0)]),
        ss.InputError,
        "table must cover all 2 subsets, got 1",
    ),
    "table-pairs-outside-ground": (
        lambda: _table(ONE_PAIR, [((), 0.0), (ONE_PAIR, 1.0)]).evaluate(
            [("b", "x")]
        ),
        ss.InputError,
        r"pairs \[\('b', 'x'\)\] outside the table's ground set",
    ),
}


def _instance(**changes):
    """A one-item, one-state table instance with ``changes`` applied."""
    fields = dict(
        items=("a",),
        states=("x",),
        distribution=ss.JointDistribution(((_realization(a="x"), 1),)),
        utility=_table(ONE_PAIR, [((), 0.0), (ONE_PAIR, 1.0)]),
    )
    return ss.Instance(**{**fields, **changes})


INSTANCES = {
    "no-states": ({"states": ()}, "at least one state required"),
    "duplicate-items": ({"items": ("a", "a")}, "duplicate items"),
    "duplicate-states": ({"states": ("x", "x")}, "duplicate states"),
    "unknown-state": (
        {"distribution": ss.JointDistribution(((_realization(a="z"), 1),))},
        "realization uses unknown state 'z'",
    ),
    "table-ground-not-the-pairs": (
        {"states": ("x", "y")},
        "table ground set must equal items x states",
    ),
}


@pytest.mark.parametrize("name", list(LIBRARY))
def test_library_check(name):
    call, error, message = LIBRARY[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("name", list(INSTANCES))
def test_instance_check(name):
    changes, message = INSTANCES[name]
    with pytest.raises(ss.InputError, match=message):
        _instance(**changes)


def test_certificate_rejects_an_infeasible_vertex(cc2):
    trajectory = ss.run(cc2, ss.UniformMatroid(2), ss.GreedyConfig(delta=0.5))
    with pytest.raises(ss.InputError, match="trajectory contains an infeasible LP"):
        ss.lower_bound_certificate(cc2, ss.UniformMatroid(0), trajectory, 1.0, 1.0)


def _suite(scenario: dict) -> dict:
    base = {
        "name": "bad",
        "instance": {"generator": "product", "m": 2},
        "constraint": {"kind": "uniform", "k": 1},
    }
    return {"scenarios": [{**base, **scenario}]}


EXACTLY_ONE = "instance spec needs exactly one of generator or path"

FILES = {
    "spec-neither": ("experiment", _suite({"instance": {"m": 2}}), EXACTLY_ONE),
    "spec-both": (
        "experiment",
        _suite({"instance": {"generator": "product", "path": "x.json"}}),
        EXACTLY_ONE,
    ),
    "spec-unknown-generator": (
        "experiment",
        _suite({"instance": {"generator": "bogus"}}),
        "unknown generator 'bogus'",
    ),
    "weight-variant": (
        "experiment",
        _suite({"greedy": {"weight_variant": "bogus"}}),
        "weight_variant must be one of ('optimistic', 'standard')",
    ),
    "scenarios-not-an-object": ("experiment", [], "must contain a JSON object"),
    "instance-not-an-object": ("validate", [1], "must contain a JSON object"),
}


@pytest.mark.parametrize("name", list(FILES))
def test_file_check_exits_one(name, tmp_path, capsys):
    command, doc, message = FILES[name]
    path = tmp_path / "input.json"
    path.write_text(fileio.dumps(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
