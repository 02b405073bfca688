"""Downward-closed constraint families, their polytopes, and the ascent LP.

Four kinds are supported: uniform matroids, partition matroids, knapsacks,
and explicit set families.  The per-round LP maximizes a nonnegative linear
objective over the relaxation polytope of the family; for the matroid kinds
the optimum is an integral greedy vertex, for knapsacks the density-ordered
fractional greedy on the integer-scaled costs, and for explicit families the
best listed set.

Explicit families are downward-closed by default.  Passing
``downward_closed=False`` admits prefix-closed families that are not
downward-closed, which the adaptive-policy oracles support as well: there a
pick sequence is feasible when the item set of each of its prefixes is listed.

Each kind is one :class:`Constraint` subclass that carries its own behaviour:
``feasible``, ``lp_vertex``, ``in_polytope`` (the one polytope membership
test), ``rounding_groups`` and its JSON form.  A new kind is one class plus
one entry in :data:`KINDS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError, UnsupportedKindError
from .errors import nonnegative, require_field, require_list
from .model import EXACT_TOL, _dyadic
from .multilinear import FractionalPoint


def _name_lists(doc: dict, key: str, context: str) -> list[list[str]]:
    lists = require_list(doc, key, context, of=list)
    if not all(isinstance(name, str) for names in lists for name in names):
        raise InputError(f"{context} field {key!r} must list item names (strings)")
    return lists


@dataclass(frozen=True)
class LPSolution:
    """Optimum of the per-round LP; ``vertex_set`` is set when it is integral."""

    point: FractionalPoint
    objective: float
    vertex_set: tuple[str, ...] | None


def _integral(order: list[str], chosen, objective) -> LPSolution:
    picked = set(chosen)
    return LPSolution(
        point=FractionalPoint(
            tuple(order), tuple(1.0 if it in picked else 0.0 for it in order)
        ),
        objective=objective,
        vertex_set=tuple(sorted(chosen)),
    )


def _greedy_pick(order: list[str], weights: dict[str, float], cap: int) -> list[str]:
    # sorted is stable, so equal weights keep their order in ``order``.
    ranked = sorted(order, key=lambda it: -weights[it])
    return [it for it in ranked if weights[it] > 0][:cap]


def _check_known(named: Iterable[str], items: Iterable[str], role: str):
    known = set(items)
    for item in named:
        if item not in known:
            raise InputError(f"unknown {role} item {item!r}")


class Constraint:
    """Base of the constraint kinds, with the defaults most kinds share."""

    def in_polytope(self, x: FractionalPoint) -> bool:
        """Closed-form membership in the relaxation polytope.  A
        ``FractionalPoint`` holds every coordinate in [0, 1], so only the
        kind's own inequalities are left.  Explicit families have none: hull
        membership for them needs an LP solver and is out of scope."""
        raise UnsupportedKindError(
            f"no closed-form polytope membership for kind {self.kind!r}"
        )

    def rounding_groups(self, items: tuple[str, ...]) -> list | None:
        """Swap-rounding groups as (item positions, cap), None without a
        scheme; ``items`` must have passed :meth:`check_items`."""
        return None

    def check_items(self, items: Iterable[str]):
        """Raise unless every item the constraint names is one of ``items``."""


@dataclass(frozen=True)
class UniformMatroid(Constraint):
    """All sets of at most ``rank`` items."""

    rank: int

    kind = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "rank", nonnegative(self.rank, "rank", whole=True))

    def feasible(self, chosen: set[str]) -> bool:
        return len(chosen) <= self.rank

    def lp_vertex(self, order, weights) -> LPSolution:
        chosen = _greedy_pick(order, weights, self.rank)
        return _integral(order, chosen, sum(weights[i] for i in chosen))

    def in_polytope(self, x):
        return sum(x.values) <= self.rank + EXACT_TOL

    def rounding_groups(self, items):
        return [(list(range(len(items))), self.rank)]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.rank}

    @classmethod
    def from_dict(cls, doc: dict) -> UniformMatroid:
        return cls(rank=require_field(doc, "k", "uniform constraint"))


@dataclass(frozen=True)
class PartitionMatroid(Constraint):
    """Per-block cardinality caps over a partition of the ground items."""

    blocks: tuple[tuple[str, ...], ...]
    capacities: tuple[int, ...]

    kind = "partition"

    def __post_init__(self):
        if len(self.blocks) != len(self.capacities):
            raise InputError("one capacity per block required")
        blocks = tuple(tuple(block) for block in self.blocks)
        seen: set[str] = set()
        for item in (item for block in blocks for item in block):
            if item in seen:
                raise InputError(f"item {item!r} appears in two blocks")
            seen.add(item)
        object.__setattr__(self, "blocks", blocks)
        caps = tuple(nonnegative(c, "capacity", whole=True) for c in self.capacities)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "_covered", frozenset(seen))

    def check_items(self, items):
        _check_known((i for block in self.blocks for i in block), items, "block")

    def _check_covered(self, items: Iterable[str]):
        uncovered = set(items) - self._covered
        if uncovered:
            raise InputError(f"items {sorted(uncovered)} not covered by any block")

    def feasible(self, chosen):
        self._check_covered(chosen)
        return all(
            len(chosen & set(block)) <= cap
            for block, cap in zip(self.blocks, self.capacities)
        )

    def lp_vertex(self, order, weights):
        chosen: list[str] = []
        for block, cap in zip(self.blocks, self.capacities):
            in_block = [it for it in order if it in block]
            chosen.extend(_greedy_pick(in_block, weights, cap))
        self._check_covered(order)
        return _integral(order, chosen, sum(weights[i] for i in chosen))

    def in_polytope(self, x):
        coords = x.as_dict()
        self._check_covered(coords)
        return all(
            sum(coords.get(i, 0.0) for i in block) <= cap + EXACT_TOL
            for block, cap in zip(self.blocks, self.capacities)
        )

    def rounding_groups(self, items):
        index = {item: i for i, item in enumerate(items)}
        return [
            ([index[item] for item in block], cap)
            for block, cap in zip(self.blocks, self.capacities)
        ]

    def to_dict(self):
        return {
            "kind": self.kind,
            "blocks": [list(b) for b in self.blocks],
            "capacities": list(self.capacities),
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            blocks=_name_lists(doc, "blocks", "partition constraint"),
            capacities=require_list(doc, "capacities", "partition constraint"),
        )


@dataclass(frozen=True)
class Knapsack(Constraint):
    """Sets whose total cost stays within the budget.

    Costs and budget are scaled by one power of two to exact integers when
    the knapsack is built; feasibility and the LP vertex read those, so no
    answer depends on item names.  The relaxation polytope is the box cut by
    the budget halfspace; a vertex has at most one fractional coordinate, an
    exact rational.  No rounding scheme for knapsacks is implemented here.
    """

    costs: tuple[tuple[str, float], ...]
    budget: float

    kind = "knapsack"

    def __post_init__(self):
        costs: dict[str, float] = {}
        for item, cost in sorted(self.costs):
            if item in costs:
                raise InputError(f"duplicate cost for item {item!r}")
            costs[item] = nonnegative(cost, "cost")
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget"))
        scaled_budget, *scaled = _dyadic([self.budget, *costs.values()])[1].tolist()
        object.__setattr__(self, "costs", tuple(costs.items()))
        object.__setattr__(self, "_cost", costs)
        object.__setattr__(self, "_scaled_costs", dict(zip(costs, scaled)))
        object.__setattr__(self, "_scaled_budget", scaled_budget)

    def cost_of(self, item: str) -> float:
        try:
            return self._cost[item]
        except KeyError:
            raise InputError(f"no cost declared for item {item!r}") from None

    def feasible(self, chosen):
        if missing := chosen - self._cost.keys():
            self.cost_of(min(missing))  # raises: no cost declared
        return sum(self._scaled_costs[i] for i in chosen) <= self._scaled_budget

    def check_items(self, items):
        _check_known(self._cost, items, "cost")

    def lp_vertex(self, order, weights):
        cost = {it: self.cost_of(it) for it in order}
        coords = {it: 0 for it in order}
        objective, left = 0.0, self._scaled_budget
        # Free items first, then by density; ties keep their order (stable sort).
        ranked = [it for it in order if weights[it] > 0]
        ranked.sort(key=lambda it: -weights[it] / cost[it] if cost[it] else -math.inf)
        for it in ranked:  # whole items while they fit, then part of the next
            need = self._scaled_costs[it]
            coords[it] = Fraction(left, need) if need > left else 1
            objective += weights[it] * coords[it]
            if need > left:
                break
            left -= need
        if all(v in (0, 1) for v in coords.values()):
            return _integral(order, [i for i in order if coords[i] == 1], objective)
        point = FractionalPoint(tuple(order), tuple(coords[it] for it in order))
        return LPSolution(point=point, objective=objective, vertex_set=None)

    def in_polytope(self, x):
        return (
            sum(self.cost_of(i) * v for i, v in x.as_dict().items())
            <= self.budget + EXACT_TOL
        )

    def to_dict(self):
        return {"kind": self.kind, "costs": dict(self.costs), "budget": self.budget}

    @classmethod
    def from_dict(cls, doc):
        costs = require_field(doc, "costs", "knapsack constraint")
        if not isinstance(costs, dict):
            raise InputError("knapsack costs must map items to numbers")
        return cls(
            costs=tuple(costs.items()),
            budget=require_field(doc, "budget", "knapsack constraint"),
        )


@dataclass(frozen=True)
class ExplicitFamily(Constraint):
    """An explicitly listed family of feasible item sets."""

    feasible_sets: tuple[tuple[str, ...], ...]
    downward_closed: bool = True

    kind = "explicit"

    def __post_init__(self):
        canon = tuple(sorted({tuple(sorted(set(s))) for s in self.feasible_sets}))
        object.__setattr__(self, "feasible_sets", canon)
        members = frozenset(frozenset(s) for s in canon)
        object.__setattr__(self, "_members", members)
        if frozenset() not in members:
            raise InputError("explicit families must contain the empty set")
        if self.downward_closed:
            for s in members:
                for item in s:
                    if s - {item} not in members:
                        raise InputError(
                            f"family is not downward-closed: {sorted(s - {item})} "
                            f"missing below {sorted(s)}"
                        )

    def feasible(self, chosen):
        return frozenset(chosen) in self._members

    def check_items(self, items):
        _check_known((i for s in self.feasible_sets for i in s), items, "family")

    def lp_vertex(self, order, weights):
        self.check_items(order)
        best_set: tuple[str, ...] = ()
        best_value = 0.0
        for candidate in self.feasible_sets:
            value = sum(weights[i] for i in candidate)
            if value > best_value or (value == best_value and candidate < best_set):
                best_value = value
                best_set = candidate
        return _integral(order, best_set, best_value)

    def to_dict(self):
        doc = {"kind": self.kind, "feasible_sets": [list(s) for s in self.feasible_sets]}
        if not self.downward_closed:
            doc["downward_closed"] = False
        return doc

    @classmethod
    def from_dict(cls, doc):
        closed = doc.get("downward_closed", True)
        if not isinstance(closed, bool):
            raise InputError(
                f"explicit constraint field 'downward_closed' must be true or false, "
                f"got {closed!r}"
            )
        return cls(
            feasible_sets=_name_lists(doc, "feasible_sets", "explicit constraint"),
            downward_closed=closed,
        )


KINDS: dict[str, type[Constraint]] = {
    c.kind: c for c in (UniformMatroid, PartitionMatroid, Knapsack, ExplicitFamily)
}


def constraint_from_dict(doc: dict) -> Constraint:
    kind = require_field(doc, "kind", "constraint")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown constraint kind {kind!r}")
    return cls.from_dict(doc)


def is_feasible(constraint: Constraint, items: Iterable[str]) -> bool:
    """Membership of an item set in the family."""
    return constraint.feasible(set(items))


def _clamped(weights: Mapping[str, float]) -> dict[str, float]:
    # Negative estimated weights never help in a down-monotone polytope.
    out = {}
    for item, w in weights.items():
        w = float(w)
        if not math.isfinite(w):
            raise InputError(f"weight of {item!r} is not finite")
        out[item] = max(0.0, w)
    return out


def lp_maximize(constraint: Constraint, weights: Mapping[str, float]) -> LPSolution:
    """Maximize a nonnegative linear objective over the relaxation polytope.

    Ties are broken by the order items appear in ``weights``, so callers that
    pass instance-ordered mappings get reproducible vertices.
    """
    weights = _clamped(weights)
    return constraint.lp_vertex(list(weights), weights)
