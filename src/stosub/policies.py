"""Adaptive policies as decision trees, plus exact small-instance oracles.

A policy is a tree whose internal nodes pick an item and branch on its
observed state; leaves stop.  Everything here is evaluated exactly over the
explicit support: policy values, the optimal adaptive policy via backward
induction over observation histories, the best non-adaptive set, and the
virtual non-adaptive value obtained by steering the tree with a fresh draw
while scoring the true one.

The oracles work on the evaluator's integers.  A history's node has the
total weight T of the worlds that agree with it (a_w = p_w * L, summing to
L at the root) and value V; it is stored as U = T * 2**k * V, an integer.
Stopping gives U = T * g with g = 2**k f(observed pairs); picking e gives
the sum of its children's U, because a child's T is the weight of its
worlds.  One node compares the U of its options as it would compare V (T
and 2**k are shared), and the root value is U / D with D = L * 2**k, the
correctly rounded float of the exact rational.  The induction returns each
history's subtree with its U, so the tree is built in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .constraints import Constraint, is_feasible, is_prefix_feasible
from .errors import CapacityError, DegenerateBoundError, InputError, PolicyError
from .model import EXACT_TOL, Instance, Realization, _evaluator
from .multilinear import FractionalPoint, multilinear_value, optimistic_weights

# Exact-oracle caps: items and support size of the adaptive oracle, items of
# the fixed-set enumeration.  Each is checked before any work.
ADAPTIVE_ITEM_CAP = 5
ADAPTIVE_SUPPORT_CAP = 64
NONADAPTIVE_ITEM_CAP = 20


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

    def item_sequences(self) -> list[tuple[str, ...]]:
        """Every root-to-leaf pick sequence (branch-complete paths)."""
        out: list[tuple[str, ...]] = []

        def walk(node, prefix):
            if isinstance(node, Stop) or not node.branches:
                out.append(prefix + ((node.item,) if isinstance(node, Pick) else ()))
                return
            for _, child in node.branches:
                walk(child, prefix + (node.item,))

        walk(self.root, ())
        return out


@dataclass(frozen=True)
class PolicyValue:
    value: float
    per_realization: tuple[tuple[Realization, frozenset[str], float], ...]


def _walk(policy: Policy, realization: Realization) -> tuple[str, ...]:
    node = policy.root
    picked: list[str] = []
    while isinstance(node, Pick):
        state = realization.state_of(node.item)
        child = node.child(state)
        if child is None:
            raise PolicyError(
                f"policy has no branch for {node.item!r} in state {state!r}"
            )
        picked.append(node.item)
        node = child
    return tuple(picked)


def evaluate_policy(instance: Instance, policy: Policy) -> PolicyValue:
    """Exact expected utility of a policy over the support."""
    total = Fraction(0)
    rows = []
    for realization, prob in instance.distribution.entries:
        if prob == 0:
            continue
        picked = _walk(policy, realization)
        raw = instance.utility.evaluate((i, realization.state_of(i)) for i in picked)
        total += prob * Fraction(raw)
        rows.append((realization, frozenset(picked), raw))
    return PolicyValue(value=float(total), per_realization=tuple(rows))


def policy_is_feasible(policy: Policy, constraint: Constraint) -> bool:
    return all(
        is_prefix_feasible(constraint, seq) for seq in policy.item_sequences()
    )


def optimal_adaptive(
    instance: Instance, constraint: Constraint
) -> tuple[Policy, float]:
    """Exact optimal adaptive policy by backward induction over histories.

    Histories are keyed by the observed (item, state) pairs for
    downward-closed kinds, and by the full pick sequence for explicit
    families that are not downward-closed.  Ties prefer picking over
    stopping and lower item index among picks.
    """
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
    by_sequence = not constraint.downward_closed
    memo: dict = {}

    def solve(sequence: tuple, observed: frozenset, worlds: list) -> tuple:
        """(U, subtree) of the history; ``worlds`` are those that agree with it."""
        key = (sequence, observed) if by_sequence else observed
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = (sum(a for _, a in worlds) * ev.scaled_value(observed), STOP)
        picked_items = {i for i, _ in observed}
        for e in range(instance.m):
            if e in picked_items:
                continue
            # Prefixes of the current sequence were checked on earlier
            # extensions, so feasibility of the extended set suffices.
            names = [instance.items[i] for i in sequence] + [instance.items[e]]
            if not is_feasible(constraint, set(names)):
                continue
            split: dict[int, list] = {}
            for states, weight in worlds:
                split.setdefault(states[e], []).append((states, weight))
            children = {
                state: solve(sequence + (e,), observed | {(e, state)}, split[state])
                for state in sorted(split)
            }
            value = sum(u for u, _ in children.values())
            if value > best[0] or (value == best[0] and best[1] is STOP):
                branches = {instance.states[s]: n for s, (_, n) in children.items()}
                best = (value, pick(instance.items[e], branches))
        memo[key] = best
        return best

    value, root = solve((), frozenset(), ev.worlds)
    return Policy(root=root), value / ev.denominator


def best_nonadaptive(
    instance: Instance, constraint: Constraint
) -> tuple[frozenset[str], float]:
    """Best feasible fixed set by exhaustive enumeration."""
    if instance.m > NONADAPTIVE_ITEM_CAP:
        raise CapacityError(
            f"enumeration over {instance.m} items exceeds the cap "
            f"{NONADAPTIVE_ITEM_CAP}"
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
    total = Fraction(0)
    for virtual, p_virtual in instance.distribution.entries:
        if p_virtual:
            total += p_virtual * ev.numerator(ev.mask_of(_walk(policy, virtual)))
    return float(total / ev.denominator)


def policy_pick_probabilities(instance: Instance, policy: Policy) -> FractionalPoint:
    """Per-item probability of being picked; a point in the constraint polytope
    whenever the policy is feasible."""
    probs = {item: Fraction(0) for item in instance.items}
    for realization, prob in instance.distribution.entries:
        if prob == 0:
            continue
        for item in _walk(policy, realization):
            probs[item] += prob
    return FractionalPoint(
        tuple(instance.items), tuple(float(probs[i]) for i in instance.items)
    )


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
    lhs = evaluate_policy(instance, policy).value
    picks = policy_pick_probabilities(instance, policy)
    weights = optimistic_weights(instance, x)
    rhs = multilinear_value(instance, x) + (1.0 / kappa) * sum(
        picks.value_of(item) * w for item, w in zip(instance.items, weights)
    )
    return UpperBoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + EXACT_TOL)
