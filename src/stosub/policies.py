"""Adaptive policies as decision trees, plus exact small-instance oracles.

A policy is a tree whose internal nodes pick an item and branch on its
observed state; leaves stop.  Everything here is evaluated exactly over the
explicit support: policy values, the optimal adaptive policy via backward
induction over observation histories, the best non-adaptive set, and the
virtual non-adaptive value obtained by steering the tree with a fresh draw
while scoring the true one.

The oracles work on the evaluator's integers.  A history is keyed by the
set of (item, state) pairs it observed, not by their order (Golovin and
Krause, JAIR 2011): its worlds are those that agree with the pairs, and a
pick extends it when the extended item set is feasible.  Its node has the
total weight T of those worlds (a_w = p_w * L, summing to L at the root)
and value V; it is stored as U = T * 2**k * V, an integer.
Stopping gives U = T * g with g = 2**k f(observed pairs); picking e gives
the sum of its children's U, because a child's T is the weight of its
worlds.  One node compares the U of its options as it would compare V (T
and 2**k are shared), and the root value is U / D with D = L * 2**k, the
correctly rounded float of the exact rational.  The induction returns each
history's subtree with its U, so the tree is built in the same pass.

Every read of a given policy walks ``ev.worlds`` once, in order, for the
pick mask of each world, and sums integers: its value is sum_w a_w * 2**k
f(picked pairs) / D, an item's pick probability is the weight of the worlds
that pick it over L, and the virtual value is sum_v a_v * N(mask_v) / (L * D)
with N a mask's numerator in the value table.  Each is one int/int division,
correctly rounded.  The fixed-set enumeration reads that table, so it stops
at the evaluator's ``EXACT_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .constraints import Constraint, is_feasible
from .errors import CapacityError, DegenerateBoundError, InputError, PolicyError
from .model import EXACT_CAP, EXACT_TOL, Instance, _evaluator
from .multilinear import FractionalPoint, multilinear_value, optimistic_weights

# Adaptive-oracle caps on items and support size; the fixed-set enumeration
# stops at the evaluator's EXACT_CAP.  Each is checked before any work.
ADAPTIVE_ITEM_CAP = 5
ADAPTIVE_SUPPORT_CAP = 64


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


def optimal_adaptive(
    instance: Instance, constraint: Constraint
) -> tuple[Policy, float]:
    """Exact optimal adaptive policy by backward induction over histories.

    Histories are keyed by their observed (item, state) pairs, whatever the
    order of the picks: a history's worlds and the sets reachable from it
    depend on those pairs alone.  Ties prefer picking over stopping and
    lower item index among picks.
    """
    constraint.check_items(instance.items)
    if instance.m > ADAPTIVE_ITEM_CAP:
        raise CapacityError(
            f"adaptive oracle over {instance.m} items exceeds the cap "
            f"{ADAPTIVE_ITEM_CAP}"
        )
    if len(instance.distribution.entries) > ADAPTIVE_SUPPORT_CAP:
        raise CapacityError(
            f"support of {len(instance.distribution.entries)} exceeds the cap "
            f"{ADAPTIVE_SUPPORT_CAP}"
        )
    ev = _evaluator(instance)
    memo: dict = {}

    def solve(observed: frozenset, worlds: list) -> tuple:
        """(U, subtree) of the history; ``worlds`` are those that agree with it."""
        hit = memo.get(observed)
        if hit is not None:
            return hit
        best = (sum(a for _, a in worlds) * ev.scaled_value(observed), STOP)
        picked = [instance.items[i] for i, _ in observed]
        for e, item in enumerate(instance.items):
            # Each prefix of the picks was checked when it was picked, so
            # feasibility of the extended set suffices.
            if item in picked or not is_feasible(constraint, [*picked, item]):
                continue
            split: dict[int, list] = {}
            for states, weight in worlds:
                split.setdefault(states[e], []).append((states, weight))
            children = {
                state: solve(observed | {(e, state)}, split[state])
                for state in sorted(split)
            }
            value = sum(u for u, _ in children.values())
            if value > best[0] or (value == best[0] and best[1] is STOP):
                branches = {instance.states[s]: n for s, (_, n) in children.items()}
                best = (value, pick(instance.items[e], branches))
        memo[observed] = best
        return best

    value, root = solve(frozenset(), ev.worlds)
    return Policy(root=root), value / ev.denominator


def best_nonadaptive(
    instance: Instance, constraint: Constraint
) -> tuple[frozenset[str], float]:
    """Best feasible fixed set by exhaustive enumeration of the value table."""
    constraint.check_items(instance.items)
    if instance.m > EXACT_CAP:
        raise CapacityError(
            f"enumeration over {instance.m} items exceeds the cap {EXACT_CAP}"
        )
    ev = _evaluator(instance)
    best_value: int | None = None
    candidates: list[tuple[str, ...]] = []
    for mask in range(1 << instance.m):
        items = frozenset(
            instance.items[i] for i in range(instance.m) if mask >> i & 1
        )
        if not is_feasible(constraint, items):
            continue
        value = ev.numerator(mask)
        if best_value is None or value > best_value:
            best_value = value
            candidates = [tuple(sorted(items))]
        elif value == best_value:
            candidates.append(tuple(sorted(items)))
    if best_value is None:
        raise InputError("constraint admits no feasible set, not even the empty one")
    return frozenset(min(candidates)), best_value / ev.denominator


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
    return total / (sum(weight for _, weight in ev.worlds) * ev.denominator)


def policy_pick_probabilities(instance: Instance, policy: Policy) -> FractionalPoint:
    """Per-item probability of being picked; a point in the constraint polytope
    whenever the policy is feasible."""
    ev = _evaluator(instance)
    picked = [0] * instance.m
    for (_, weight), mask in zip(ev.worlds, _pick_masks(ev, policy)):
        for e in range(instance.m):
            if mask >> e & 1:
                picked[e] += weight
    total = sum(weight for _, weight in ev.worlds)
    return FractionalPoint(tuple(instance.items), tuple(a / total for a in picked))


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
