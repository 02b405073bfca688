"""Argument-vector fuzz of the command line.

Every subcommand is drawn with some of its flags, each flag with a
well-formed or a malformed value (negative, non-integer or non-numeric
numbers, bad ``--constraint`` JSON, missing or unwritable paths, the
removed ``--cap`` of ``validate``, ``kappa``, ``gamma`` and ``gap``).  Every vector must end in one of the
documented exit codes (0 success, 1 input or usage, 2 capacity, 3 strict
violation) and never in an uncaught exception.  ``experiment --bundled``
is left out for time.  Values starting with ``@`` name paths made by the
fixture.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stosub import fileio, generate_common_cause
from stosub.cli import main

NUMBERS = ["2", "-1", "0", "1", "1.5", "-0.5", "1e3", "abc", "", "nan", "inf"]
CONSTRAINTS = [
    '{"kind": "uniform", "k": 2}',
    '{"kind": "partition", "blocks": [["e1"], ["e2", "e3"]], "capacities": [1, 1]}',
    "{",
    "[]",
    "null",
    '{"kind": 1}',
    '{"kind": ["uniform"]}',
    '{"kind": "uniform", "k": -1}',
    '{"kind": "uniform", "k": 1.5}',
    '{"kind": "partition"}',
    '{"kind": "knapsack", "costs": [], "budget": 1}',
]
INPUTS = ["@instance", "@missing", "@broken", "@directory", "@under-a-file"]
OUTPUTS = ["@written", "@directory", "@under-a-file", "@missing-dir"]
OUT_DIRS = ["@report-dir", "@instance", "@under-a-file"]

# command -> (choices of each positional, {flag: value choices or None})
COMMANDS = {
    "validate": ([INPUTS], {"--cap": NUMBERS}),
    "kappa": ([INPUTS], {}),
    "gamma": ([INPUTS], {}),
    "greedy": (
        [INPUTS],
        {
            "--constraint": CONSTRAINTS,
            "--delta": ["0.25", *NUMBERS],
            "--mode": ["sampled", "exact", "bogus"],
            "--seed": NUMBERS,
            "--samples": NUMBERS,
            "--variant": ["optimistic", "standard", "bogus"],
            "--output": OUTPUTS,
        },
    ),
    "oracle": (
        [["adaptive", "nonadaptive", "bogus"], INPUTS],
        {"--constraint": CONSTRAINTS},
    ),
    "gap": ([INPUTS], {"--constraint": CONSTRAINTS}),
    "generate": (
        [["common-cause", "product", "bogus"]],
        {
            "--m": NUMBERS,
            "--states": NUMBERS,
            "--worlds": NUMBERS,
            "--seed": NUMBERS,
            "--out": OUTPUTS,
        },
    ),
    "experiment": (
        [["@scenarios", *INPUTS]],
        {"--out-dir": OUT_DIRS, "--strict": None},
    ),
    "bogus": ([], {}),
}
DOCUMENTED_EXITS = {0, 1, 2, 3}


def _choice(values):
    """Any of ``values``, the first (well-formed) one at least half the time,
    so that a vector often gets past its first check."""
    return st.one_of(st.just(values[0]), st.sampled_from(values))


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, flags = COMMANDS[command]
    argv = [command] + [draw(_choice(choices)) for choices in positional]
    if positional and draw(st.integers(0, 7)) == 0:
        argv.pop()  # a missing positional
    for flag in draw(st.lists(st.sampled_from(sorted(flags) + ["--bogus"]),
                              max_size=3, unique=True)):
        argv.append(flag)
        values = flags.get(flag, NUMBERS)
        if values is not None:
            argv.append(draw(_choice(values)))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    instance = root / "instance.json"
    fileio.save_instance(generate_common_cause(3, 2, 3, seed=0), instance)
    (root / "broken.json").write_text("{")
    scenarios = root / "scenarios.json"
    scenarios.write_text(json.dumps({"scenarios": [{
        "name": "small",
        "kind": "ratio-check",
        "instance": {"generator": "common-cause", "m": 2, "states": 2,
                     "worlds": 2, "seed": 1},
        "constraint": {"kind": "uniform", "k": 1},
        "greedy": {"delta": 0.25},
    }]}))
    return {
        "@instance": str(instance),
        "@scenarios": str(scenarios),
        "@missing": str(root / "missing.json"),
        "@broken": str(root / "broken.json"),
        "@directory": str(root),
        "@under-a-file": str(instance / "x.json"),
        "@written": str(root / "written.out"),
        "@report-dir": str(root / "reports"),
        "@missing-dir": str(root / "no" / "such" / "dir" / "out.json"),
    }


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exits, such as --help
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(template=argument_vectors())
def test_every_argument_vector_ends_in_a_documented_exit(paths, template):
    argv = [paths.get(arg, arg) for arg in template]
    code, err = _run(argv)
    assert code in DOCUMENTED_EXITS, (argv, code)
    assert code == 0 or err, (argv, code)
    assert "Traceback" not in err


def test_removed_validate_cap_is_a_usage_error(paths):
    code, err = _run(["validate", "--cap", "3", paths["@instance"]])
    assert code == 1
    assert "unrecognized arguments: --cap" in err
    assert "usage: stosub" in err


@pytest.mark.parametrize("command", ["kappa", "gamma", "gap"])
def test_removed_cap_is_a_usage_error(paths, command):
    code, err = _run([command, "--cap", "7", paths["@instance"]])
    assert code == 1
    assert "unrecognized arguments: --cap" in err
    assert "usage: stosub" in err


def test_negative_sampling_seed_is_an_input_error(paths):
    argv = ["greedy", paths["@instance"], "--mode", "sampled", "--seed", "-1"]
    code, err = _run(argv)
    assert code == 1
    assert err.startswith("error: seed must be nonnegative")
