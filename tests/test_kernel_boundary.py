"""The 2^m kernels stay vectorized and the value table stays encapsulated.

``multilinear`` contracts the model module's value table with numpy; a
Python loop over ``range(1 << m)`` there would bring back the per-mask
kernels the table replaced.  Only ``model`` may touch the evaluator's
underscore attributes; everyone else goes through its public methods.
"""

import ast
from pathlib import Path

import pytest

import stosub

PACKAGE = Path(stosub.__file__).parent


def _private_evaluator_names() -> set[str]:
    tree = ast.parse((PACKAGE / "model.py").read_text())
    cls = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Evaluator"
    )
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and _is_self(node.value):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


PRIVATE = _private_evaluator_names()


def _is_power_range(node) -> bool:
    """``range(...)`` with a ``1 << ...`` shift among its arguments."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            for arg in node.args
            for n in ast.walk(arg)
        )
    )


def mask_loops(source: str) -> list[str]:
    return [
        f"line {node.iter.lineno}: loop over 2^m masks"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.For, ast.comprehension))
        and _is_power_range(node.iter)
    ]


def private_reads(source: str) -> list[str]:
    return [
        f"line {node.lineno}: evaluator attribute {node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]


def test_private_names_found():
    assert {"_table", "_numerators", "_tables"} <= PRIVATE


def test_multilinear_has_no_mask_loops():
    assert mask_loops((PACKAGE / "multilinear.py").read_text()) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.name,
)
def test_evaluator_internals_stay_in_model(path):
    assert private_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "for mask in range(1 << m):\n    total += 1",
        "for mask in range(0, 1 << instance.m, 2):\n    pass",
        "values = [ev.set_value(mask) for mask in range(1 << m)]",
    ],
)
def test_guard_catches_mask_loops(source):
    assert mask_loops(source)


@pytest.mark.parametrize(
    "source",
    [
        "ev._tables.clear()",
        "numerators = ev._table()[0]",
        "x = _evaluator(i)._numerators(None)",
    ],
)
def test_guard_catches_private_reads(source):
    assert private_reads(source)
