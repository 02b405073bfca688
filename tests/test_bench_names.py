"""Every ``stosub`` name the benchmark in ``bench/`` uses still resolves.

``bench/spans.py`` wraps the functions named in its ``ENTRY_POINTS`` by
module and name, and a name that is gone leaves its counters at 0 without
failing anything.  The workloads reach the library through ``from stosub...
import`` names and ``stosub.module.name`` attribute chains.  The files are
read with ``ast``; nothing under ``bench/`` is imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _entry_points() -> list[str]:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return [f"stosub.{name}" for name in ast.literal_eval(node.value)]
    raise AssertionError("bench/spans.py defines no ENTRY_POINTS")


def _dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _used_names() -> list[str]:
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "stosub" or module.startswith("stosub."):
                    names |= {f"{module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted and dotted.startswith("stosub."):
                    names.add(dotted)
    return sorted(names)


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


ENTRY_POINTS = _entry_points()
USED = _used_names()


def test_the_scan_finds_names():
    assert ENTRY_POINTS and USED
    assert "stosub.greedy.step" in USED


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_wrapped_entry_point_is_callable(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", USED)
def test_used_name_resolves(name):
    _resolve(name)
