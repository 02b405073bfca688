"""Adaptive policies as decision trees, plus exact small-instance oracles.

A policy is a tree whose internal nodes pick an item and branch on its
observed state; leaves stop.  Everything here is evaluated exactly over the
explicit support: policy values, the optimal adaptive policy via backward
induction over observation histories, the best non-adaptive set, and the
virtual non-adaptive value obtained by steering the tree with a fresh draw
while scoring the true one.

The oracles work on the evaluator's integers.  A history is keyed by the
set of (item, state) pairs it observed, not by their order (Golovin and
Krause, JAIR 2011), so the histories are the rows of the evaluator's
observation table (``model``): a row's worlds are those that agree with its
pairs, and picking e at row r and seeing state o leads to the row
``children[r, e, o]``.  A pick extends a history when e is unobserved and
the extended item set is feasible, which ``is_feasible`` decides once per
mask.  A row has the total weight T of its worlds (``totals``, with a_w =
p_w * L summing to L at the root) and value V; it is stored as U = T * 2**k
* V, an integer.  Stopping gives U = T * g with g = 2**k f(observed pairs),
every row's g from one batched scaling (``row_values``); picking e gives
the sum of its children's U, because a child's T is the weight of its
worlds.  A row compares the U of its options as it would compare V (T and
2**k are shared), and the root value is U / D with D = L * 2**k, the
correctly rounded float of the exact rational.

The backward induction runs in m sweeps, each over every row at once: it
sums U over each pick's children, puts a floor below every value on the
picks a row may not make (the int64 minimum, or -inf on Python ints), takes
the first best pick, and lets a row pick when that is at least its stop
value.  So ties prefer picking over stopping and the lowest item index among
picks, and after sweep j every row that observes m - j or more items holds
its final value.  U takes the dtype of the row values, int64 when L *
2**k * max f < 2**63: then T <= L and U <= L * 2**k * max f both fit, and a
sum over children is the U of the same worlds.  The tree is built from row
0 through the chosen picks, over the rows reached only.

Every read of a given policy walks ``ev.worlds`` once, in order, for the
pick mask of each world, and sums integers: its value is sum_w a_w * 2**k
f(picked pairs) / D, an item's pick probability is the weight of the worlds
that pick it over L (``lcd``), and the virtual value is sum_v a_v *
N(mask_v) / (L * D) with N a mask's numerator in the value table.  Each is
one int/int division, correctly rounded.  The fixed-set enumeration reads
that table once, as integers, and the value table's cap is the evaluator's.
Both oracles read one enumeration of every mask's items and feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .constraints import Constraint, is_feasible
from .errors import DegenerateBoundError, InputError, PolicyError
from .model import EXACT_TOL, Instance, _evaluator
from .multilinear import FractionalPoint, multilinear_value, optimistic_weights


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Pick:
    item: str
    branches: tuple[tuple[str, "PolicyNode"], ...]

    def __post_init__(self):
        states = [s for s, _ in self.branches]
        if len(set(states)) != len(states):
            raise PolicyError(f"node for {self.item!r} branches twice on one state")
        object.__setattr__(self, "branches", tuple(sorted(self.branches)))

    def child(self, state: str) -> "PolicyNode | None":
        for s, node in self.branches:
            if s == state:
                return node
        return None


PolicyNode = Union[Stop, Pick]

STOP = Stop()


def pick(item: str, branches: Mapping[str, PolicyNode]) -> Pick:
    return Pick(item=item, branches=tuple(branches.items()))


@dataclass(frozen=True)
class Policy:
    """A decision tree; no item may repeat along any root-to-leaf path."""

    root: PolicyNode

    def __post_init__(self):
        def walk(node, seen):
            if isinstance(node, Stop):
                return
            if node.item in seen:
                raise PolicyError(f"item {node.item!r} repeats along a path")
            for _, child in node.branches:
                walk(child, seen | {node.item})

        walk(self.root, frozenset())


def _pick_masks(ev, policy: Policy) -> list[int]:
    """The pick mask of each world of ``ev.worlds``, in order."""
    instance = ev.instance
    masks = []
    for states, _ in ev.worlds:
        node, mask = policy.root, 0
        while isinstance(node, Pick):
            e = instance.item_index(node.item)
            state = instance.states[states[e]]
            child = node.child(state)
            if child is None:
                raise PolicyError(
                    f"policy has no branch for {node.item!r} in state {state!r}"
                )
            mask |= 1 << e
            node = child
        masks.append(mask)
    return masks


def evaluate_policy(instance: Instance, policy: Policy) -> float:
    """Exact expected utility of a policy: sum_w a_w * 2**k f(picked pairs) / D."""
    ev = _evaluator(instance)
    total = 0
    for (states, weight), mask in zip(ev.worlds, _pick_masks(ev, policy)):
        pairs = [(i, s) for i, s in enumerate(states) if mask >> i & 1]
        total += weight * ev.scaled_value(pairs)
    return total / ev.denominator


def policy_is_feasible(policy: Policy, constraint: Constraint) -> bool:
    """True when the set picked at every node of the tree is feasible, so
    that every prefix of every pick sequence is."""

    def feasible(node: PolicyNode, picked: frozenset) -> bool:
        if isinstance(node, Stop):
            return True
        picked = picked | {node.item}
        return is_feasible(constraint, picked) and all(
            feasible(child, picked) for _, child in node.branches
        )

    return feasible(policy.root, frozenset())


def _feasible_sets(
    instance: Instance, constraint: Constraint
) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """The items of every mask, in item order, by doubling over the item
    bits, and whether each set is feasible."""
    picked = [()]
    for item in instance.items:
        picked += [p + (item,) for p in picked]
    return picked, np.array([is_feasible(constraint, p) for p in picked])


def optimal_adaptive(
    instance: Instance, constraint: Constraint
) -> tuple[Policy, float]:
    """Exact optimal adaptive policy by backward induction over the rows of
    the evaluator's observation table (module docstring).  Ties prefer
    picking over stopping and lower item index among picks."""
    constraint.check_items(instance.items)
    ev = _evaluator(instance)
    table, m = ev.observations(), instance.m
    count, bits, child = len(table.masks), 1 << np.arange(m), table.children
    feasible = _feasible_sets(instance, constraint)[1]
    # A pick needs an item the row has not observed and a feasible extended
    # set; each prefix of the picks was checked when it was picked.
    masks = table.masks[:, None]
    allowed = (masks & bits == 0) & feasible[masks | bits]
    values = ev.row_values()
    stop = table.totals.astype(values.dtype) * values
    floor = np.iinfo(np.int64).min if stop.dtype == np.int64 else -math.inf
    value = stop
    for _ in range(m):  # after sweep j, rows observing m - j or more items are final
        sums = np.append(value, 0)[child].sum(axis=2)
        sums[~allowed] = floor
        choice = sums.argmax(axis=1)
        best = sums[np.arange(count), choice]
        picks = best >= stop
        value = np.where(picks, best, stop)

    # The tree over the rows reached from row 0, each level's picks marking
    # the next level's rows; a child lies in a later row than its parent.
    chosen, after = np.where(picks, choice, -1), child[np.arange(count), choice]
    reached = np.zeros(count + 1, dtype=bool)
    reached[0] = True
    for _ in range(m):
        reached[after[reached[:count] & picks]] = True
    kept = np.flatnonzero(reached[:count])
    nodes: dict[int, PolicyNode] = {}
    built = zip(kept.tolist(), chosen[kept].tolist(), after[kept].tolist())
    for r, e, children in reversed(list(built)):
        nodes[r] = STOP if e < 0 else pick(
            instance.items[e],
            {s: nodes[c] for s, c in zip(instance.states, children) if c < count},
        )
    return Policy(root=nodes[0]), int(value[0]) / ev.denominator


def best_nonadaptive(
    instance: Instance, constraint: Constraint
) -> tuple[frozenset[str], float]:
    """Best feasible fixed set by exhaustive enumeration of the value table:
    the largest value, then the smallest sorted item tuple."""
    constraint.check_items(instance.items)
    ev = _evaluator(instance)
    table = ev.table()
    picked, feasible = _feasible_sets(instance, constraint)
    if not feasible.any():
        raise InputError("constraint admits no feasible set, not even the empty one")
    best = table[feasible].max()
    chosen = min(sorted(picked[k]) for k in np.flatnonzero(feasible & (table == best)))
    return frozenset(chosen), int(best) / ev.denominator


def virtual_nonadaptive_value(
    instance: Instance, constraint: Constraint, policy: Policy
) -> float:
    """Expected value of steering the tree with a fresh virtual draw.

    The virtual draw fixes which items get picked; an independent true draw
    supplies the states that are scored, so each picked set scores its exact
    expected value.
    """
    if not policy_is_feasible(policy, constraint):
        raise PolicyError("policy has an infeasible pick sequence")
    ev = _evaluator(instance)
    total = sum(
        weight * ev.numerator(mask)
        for (_, weight), mask in zip(ev.worlds, _pick_masks(ev, policy))
    )
    return total / (ev.lcd * ev.denominator)


def policy_pick_probabilities(instance: Instance, policy: Policy) -> FractionalPoint:
    """Per-item probability of being picked; a point in the constraint polytope
    whenever the policy is feasible."""
    ev = _evaluator(instance)
    picked = [0] * instance.m
    for (_, weight), mask in zip(ev.worlds, _pick_masks(ev, policy)):
        for e in range(instance.m):
            if mask >> e & 1:
                picked[e] += weight
    return FractionalPoint(tuple(instance.items), tuple(a / ev.lcd for a in picked))


@dataclass(frozen=True)
class UpperBoundCheck:
    lhs: float
    rhs: float
    holds: bool


def optimal_upper_bound_check(
    instance: Instance,
    policy: Policy,
    x: FractionalPoint,
    kappa,
) -> UpperBoundCheck:
    """Check that the policy value is at most the multilinear value at ``x``
    plus 1/kappa times the pick-probability-weighted optimistic weights."""
    kappa = float(kappa)
    if kappa <= 0:
        raise DegenerateBoundError("check is undefined for kappa = 0")
    lhs = evaluate_policy(instance, policy)
    picks = policy_pick_probabilities(instance, policy)
    weights = optimistic_weights(instance, x)
    rhs = multilinear_value(instance, x) + (1.0 / kappa) * sum(
        picks.value_of(item) * w for item, w in zip(instance.items, weights)
    )
    return UpperBoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + EXACT_TOL)
