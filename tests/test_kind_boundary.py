"""Constraint kinds are decided in one module.

Feasibility, the LP vertex, polytope membership, rounding groups, alpha and
the JSON form of each kind live on its class in ``stosub.constraints``.  The
test below fails when another package module branches on a concrete kind
again: an ``isinstance`` on a kind class, a kind-name string, or a kind-name
list such as ``MATROID_KINDS``.
"""

import ast
from pathlib import Path

import pytest

import stosub
from stosub.constraints import KINDS

PACKAGE = Path(stosub.__file__).parent
KIND_CLASSES = {cls.__name__ for cls in KINDS.values()}
KIND_NAMES = set(KINDS)
CLASS_TESTS = ("isinstance", "issubclass")


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) in CLASS_TESTS:
            named = {_name(n) for arg in node.args[1:] for n in ast.walk(arg)}
            hit = sorted(named & KIND_CLASSES)
            if hit:
                found.append(f"line {node.lineno}: {_name(node.func)} on {hit}")
        elif _name(node) == "MATROID_KINDS":
            found.append(f"line {node.lineno}: kind-name list MATROID_KINDS")
        elif isinstance(node, ast.Constant) and node.value in KIND_NAMES:
            found.append(f"line {node.lineno}: kind name {node.value!r}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "constraints.py"),
    ids=lambda p: p.name,
)
def test_no_kind_branches_outside_constraints(path):
    assert violations(path.read_text()) == []


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
    assert violations(source)
