"""Constraint kinds and utility kinds are each decided in one module.

Feasibility, the LP vertex, polytope membership, rounding groups and the
JSON form of each constraint kind live on its class in
``stosub.constraints``; the pair check, the validity report and the JSON
form of each utility kind live on its class in ``stosub.model``.  The tests
below fail when a package module branches on a concrete kind again: an
``isinstance`` on a kind class (anywhere, for utility kinds), a kind-name
string outside the kind's own module, or a kind-name list such as
``MATROID_KINDS``.
"""

import ast
from pathlib import Path

import pytest

import stosub
from stosub.constraints import KINDS
from stosub.model import UTILITY_KINDS

PACKAGE = Path(stosub.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
CLASS_TESTS = ("isinstance", "issubclass")


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def violations(source: str, kinds: dict, names: bool = True) -> list[str]:
    """Branches on the classes of ``kinds`` in ``source``, and on their kind
    names too when ``names``."""
    classes = {cls.__name__ for cls in kinds.values()}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) in CLASS_TESTS:
            named = {_name(n) for arg in node.args[1:] for n in ast.walk(arg)}
            hit = sorted(named & classes)
            if hit:
                found.append(f"line {node.lineno}: {_name(node.func)} on {hit}")
        elif not names:
            continue
        elif _name(node) == "MATROID_KINDS":
            found.append(f"line {node.lineno}: kind-name list MATROID_KINDS")
        elif isinstance(node, ast.Constant) and node.value in kinds:
            found.append(f"line {node.lineno}: kind name {node.value!r}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "constraints.py"], ids=lambda p: p.name
)
def test_no_kind_branches_outside_constraints(path):
    assert violations(path.read_text(), KINDS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_utility_kind_branches(path):
    names = path.name != "model.py"
    assert violations(path.read_text(), UTILITY_KINDS, names) == []


@pytest.mark.parametrize(
    "source",
    [
        "isinstance(c, UniformMatroid)",
        "isinstance(c, (constraints.Knapsack, ExplicitFamily))",
        "MATROID_KINDS = ('uniform', 'partition')",
        "ok = c.kind in MATROID_KINDS",
        "if c.kind == 'partition':\n    pass",
    ],
)
def test_guard_catches_kind_branches(source):
    assert violations(source, KINDS)


@pytest.mark.parametrize(
    "source",
    [
        "isinstance(u, WeightedCoverage)",
        "issubclass(type(u), (model.ExplicitTable, int))",
        "if kind == 'weighted-coverage':\n    pass",
        "ok = {'explicit-table': ExplicitTable}",
    ],
)
def test_guard_catches_utility_kind_branches(source):
    assert violations(source, UTILITY_KINDS)


def test_utility_kind_names_allowed_only_where_asked():
    assert violations("kind = 'explicit-table'", UTILITY_KINDS, names=False) == []
    assert violations("isinstance(u, ExplicitTable)", UTILITY_KINDS, names=False)
