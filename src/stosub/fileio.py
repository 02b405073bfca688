"""JSON document formats for instances, constraints, policies, and reports.

Instances round-trip bit-exactly: probabilities are serialized as "p/q"
rational strings and floats go through JSON's shortest-round-trip repr, so
``load(save(x)) == x`` holds on the nose.
"""

from __future__ import annotations

import json
from pathlib import Path

from .constraints import Constraint, constraint_from_dict
from .errors import (
    InputError,
    require_field,
    require_list,
    require_object,
)
from .model import (
    Instance,
    JointDistribution,
    Realization,
    _as_fraction,
    utility_from_dict,
)
from .policies import Pick, Policy, PolicyNode


def instance_to_dict(instance: Instance) -> dict:
    return {
        "items": list(instance.items),
        "states": list(instance.states),
        "distribution": [
            {"assignment": realization.as_dict(), "prob": str(prob)}
            for realization, prob in instance.distribution.entries
        ],
        "utility": instance.utility.to_dict(),
    }


def instance_from_dict(doc: dict) -> Instance:
    entries = []
    for row in require_list(doc, "distribution", "instance", dict):
        assignment = require_object(row, "assignment", "distribution entry")
        if not all(isinstance(s, str) for s in assignment.values()):
            raise InputError("distribution entry assignment must map items to states")
        prob = require_field(row, "prob", "distribution entry")
        entries.append((Realization.from_dict(assignment), _as_fraction(str(prob))))
    return Instance(
        items=tuple(require_list(doc, "items", "instance", str)),
        states=tuple(require_list(doc, "states", "instance", str)),
        distribution=JointDistribution(tuple(entries)),
        utility=utility_from_dict(require_object(doc, "utility", "instance")),
    )


def policy_to_obj(policy: Policy):
    def encode(node: PolicyNode):
        if not isinstance(node, Pick):
            return "stop"
        return {
            "item": node.item,
            "branches": {state: encode(child) for state, child in node.branches},
        }

    return encode(policy.root)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str, parents: bool = False):
    """Write ``text`` to ``path``, creating its directory when ``parents``.

    An operating-system failure (a missing directory, a file where a
    directory should be) becomes an :class:`InputError`.
    """
    path = Path(path)
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def save_instance(instance: Instance, path: str | Path):
    write_text(path, dumps(instance_to_dict(instance)))


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} must contain a JSON object")
    return doc


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(load_document(path))


def load_instance_and_constraint(path: str | Path) -> tuple[Instance, Constraint | None]:
    """Instance files may embed an optional constraint block."""
    doc = load_document(path)
    constraint = (
        constraint_from_dict(doc["constraint"]) if "constraint" in doc else None
    )
    return instance_from_dict(doc), constraint
