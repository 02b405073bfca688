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
    nonnegative,
    require_field,
    require_list,
    require_object,
)
from .independence import GammaWitness, IndependenceReport, KappaWitness
from .model import (
    ExplicitTable,
    Instance,
    JointDistribution,
    Realization,
    UtilityFunction,
    WeightedCoverage,
    _as_fraction,
)
from .policies import Pick, Policy, PolicyNode, STOP


def instance_to_dict(instance: Instance) -> dict:
    doc = {
        "items": list(instance.items),
        "states": list(instance.states),
        "distribution": [
            {"assignment": realization.as_dict(), "prob": str(prob)}
            for realization, prob in instance.distribution.entries
        ],
        "utility": utility_to_dict(instance.utility),
    }
    return doc


def utility_to_dict(utility: UtilityFunction) -> dict:
    if isinstance(utility, WeightedCoverage):
        coverage: dict[str, dict[str, list[str]]] = {}
        for (item, state), covered in utility.coverage:
            coverage.setdefault(item, {})[state] = list(covered)
        return {
            "kind": utility.kind,
            "targets": list(utility.targets),
            "weights": dict(zip(utility.targets, utility.weights)),
            "coverage": coverage,
        }
    return {
        "kind": utility.kind,
        "ground": [list(p) for p in utility.ground],
        "table": [
            {"pairs": [list(p) for p in subset], "value": value}
            for subset, value in utility.entries
        ],
    }


def _pair(value, context: str) -> tuple[str, str]:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, str) for v in value)
    ):
        raise InputError(f"{context} must be an [item, state] pair, got {value!r}")
    return tuple(value)


def utility_from_dict(doc: dict) -> UtilityFunction:
    kind = require_field(doc, "kind", "utility")
    if kind == "weighted-coverage":
        targets = require_list(doc, "targets", "utility", str)
        weights = require_object(doc, "weights", "utility")
        for t in targets:
            nonnegative(require_field(weights, t, "weights"), f"weight of {t!r}")
        coverage_doc = require_object(doc, "coverage", "utility")
        coverage = {}
        for item in coverage_doc:
            by_state = require_object(coverage_doc, item, "utility coverage")
            for state in by_state:
                covered = require_list(by_state, state, f"coverage of {item!r}", str)
                coverage[(item, state)] = tuple(covered)
        return WeightedCoverage.build(
            targets=tuple(targets), weights=weights, coverage=coverage
        )
    if kind == "explicit-table":
        ground = require_list(doc, "ground", "utility")
        entries = []
        for entry in require_list(doc, "table", "utility", dict):
            pairs = require_list(entry, "pairs", "table entry")
            value = require_field(entry, "value", "table entry")
            value = nonnegative(value, "table value")
            entries.append((tuple(_pair(p, "table pair") for p in pairs), value))
        return ExplicitTable(
            ground=tuple(_pair(p, "ground pair") for p in ground),
            entries=tuple(entries),
        )
    raise InputError(f"unknown utility kind {kind!r}")


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


def constraint_to_dict(constraint: Constraint) -> dict:
    return constraint.to_dict()


def policy_to_obj(policy: Policy):
    def encode(node: PolicyNode):
        if not isinstance(node, Pick):
            return "stop"
        return {
            "item": node.item,
            "branches": {state: encode(child) for state, child in node.branches},
        }

    return encode(policy.root)


def policy_from_obj(obj) -> Policy:
    def decode(node) -> PolicyNode:
        if node == "stop":
            return STOP
        item = require_field(node, "item", "policy node")
        if not isinstance(item, str):
            raise InputError(f"policy node item must be a string, got {item!r}")
        branches = require_object(node, "branches", "policy node")
        return Pick(
            item=item,
            branches=tuple((state, decode(child)) for state, child in branches.items()),
        )

    return Policy(root=decode(obj))


def independence_report_to_dict(report: IndependenceReport) -> dict:
    witness = report.witness
    if isinstance(witness, KappaWitness):
        witness_doc = {
            "item": witness.item,
            "base": list(witness.base),
            "observed": list(witness.observed_items),
            "observation": witness.observation.as_dict(),
        }
    elif isinstance(witness, GammaWitness):
        witness_doc = {
            "item": witness.item,
            "observed": list(witness.observed_items),
            "observation": witness.observation.as_dict(),
            "observation_alt": witness.observation_alt.as_dict(),
        }
    else:
        witness_doc = None
    return {
        "value": str(report.value),
        "clamped": str(report.clamped),
        "ratios_examined": report.ratios_examined,
        "witness": witness_doc,
    }


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
