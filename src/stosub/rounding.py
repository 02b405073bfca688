"""Randomized swap rounding of a fractional point into a feasible matroid set.

Repeatedly takes the two lowest-index fractional coordinates of a group (one
global group for uniform matroids, one per block for partition matroids) and
moves mass between them until one becomes integral, choosing the direction
with probabilities that keep each coordinate's expectation fixed.  At most
one fractional coordinate per group survives and is resolved by a Bernoulli
draw.  The multilinear extension is convex along swap directions and linear
in single coordinates, so the expected value of the rounded set is at least
the extension's value at the input point, and block sums never exceed their
caps.

A point passes the multilinear extension's item check and the constraint's
``in_polytope``; coordinates within ``_SNAP`` of 0 or 1 are then snapped.

The k-th random move of :func:`pipage_round` uses draw k of the stream
``(seed, ())`` of the counter-based generator in :mod:`stosub.multilinear`,
all taken in one block by its :func:`~stosub.multilinear._draws`.  Every
random move leaves one more coordinate integral, and an integral coordinate
never moves again, so a run takes at most one draw per coordinate.

Each random move has exactly two outcomes, so :func:`exact_distribution`
can run the same moves in ``Fraction`` arithmetic and enumerate every output
set of :func:`pipage_round` with its exact probability.  The experiment
harness decides its rounding flag from that distribution's exact mean.
"""

from __future__ import annotations

from fractions import Fraction

from .constraints import Constraint
from .errors import InputError, UnsupportedKindError
from .model import Instance
from .multilinear import FractionalPoint, _aligned, _draws, _key

_SNAP = 1e-12


def _snap(v: float) -> float:
    if abs(v) < _SNAP:
        return 0.0
    if abs(v - 1.0) < _SNAP:
        return 1.0
    return v


def _start(
    instance: Instance, constraint: Constraint, y: FractionalPoint
) -> tuple[list, tuple[float, ...]]:
    """The rounding groups and the snapped coordinates in instance item order."""
    constraint.check_items(instance.items)
    groups = constraint.rounding_groups(instance.items)
    if groups is None:
        raise UnsupportedKindError(
            f"swap rounding supports matroid kinds only, not {constraint.kind!r}"
        )
    coords = _aligned(instance, y)
    if not constraint.in_polytope(y):
        raise InputError("point lies outside the constraint polytope")
    return groups, tuple(map(_snap, coords))


def _moved(vals: tuple, changes: dict) -> tuple:
    return tuple(changes.get(i, v) for i, v in enumerate(vals))


def _swap(vals: tuple, group: list[int], cap: int):
    """One swap between the group's two lowest-index fractional coordinates.

    Returns ``(p, first, second)``: with probability ``p`` mass moves from b
    to a, otherwise from a to b, until one of them is integral.  Returns None
    once fewer than two coordinates of the group are fractional.  Integer
    literals keep ``Fraction`` coordinates exact.
    """
    fractional = [i for i in group if 0 < vals[i] < 1]
    if len(fractional) < 2:
        return None
    a, b = fractional[0], fractional[1]
    va, vb = vals[a], vals[b]
    up_a = min(1 - va, vb)  # push mass from b to a
    up_b = min(va, 1 - vb)  # push mass from a to b
    return (
        up_b / (up_a + up_b),
        _moved(vals, {a: va + up_a, b: vb - up_a}),
        _moved(vals, {a: va - up_b, b: vb + up_b}),
    )


def _close(vals: tuple, group: list[int], cap: int):
    """The Bernoulli draw that settles the group's last fractional coordinate.

    Returns ``(p, up, down)`` with ``p`` the coordinate's value, or 0 when
    the group is already full (possible only when the leftover fraction is
    within the membership tolerance), which must round down to keep the cap.
    Returns None when no coordinate of the group is fractional.
    """
    fractional = [i for i in group if 0 < vals[i] < 1]
    if not fractional:
        return None
    i = fractional[0]
    full = sum(1 for j in group if vals[j] == 1) >= cap
    return (0 if full else vals[i]), _moved(vals, {i: 1}), _moved(vals, {i: 0})


def _phases(groups: list) -> list:
    """The moves in draw order: all swaps group by group, then the closings."""
    return [(_swap, g, c) for g, c in groups] + [(_close, g, c) for g, c in groups]


def _chosen(instance: Instance, vals: tuple) -> frozenset[str]:
    return frozenset(item for item, v in zip(instance.items, vals) if v == 1)


def pipage_round(
    instance: Instance, constraint: Constraint, y: FractionalPoint, seed: int
) -> frozenset[str]:
    """Round ``y`` to a feasible set of a uniform or partition matroid.

    ``seed`` is a nonnegative integer.  Only a move with two possible
    outcomes takes a draw, the k-th such move draw k of ``(seed, ())``, so
    an integral point costs no randomness.
    """
    groups, vals = _start(instance, constraint, y)
    draws = iter(_draws(_key(seed, ()), 0, len(vals)) * 2.0**-53)
    for move, group, cap in _phases(groups):
        while (outcomes := move(vals, group, cap)) is not None:
            p, first, second = outcomes
            vals = tuple(map(_snap, first if p and next(draws) < p else second))
    return _chosen(instance, vals)


def exact_distribution(
    instance: Instance, constraint: Constraint, y: FractionalPoint
) -> list[tuple[frozenset[str], Fraction]]:
    """Every output set of :func:`pipage_round` with its exact probability.

    Runs the same moves on the snapped coordinates as ``Fraction`` values,
    following both outcomes of each draw and merging equal coordinate
    vectors after every step.  The weights sum to 1, and each item's total
    weight equals its snapped coordinate unless a group's sum exceeded its
    cap within the tolerance and a full group rounded down.
    """
    groups, start = _start(instance, constraint, y)
    dist = {tuple(Fraction(v) for v in start): Fraction(1)}
    for move, group, cap in _phases(groups):
        settled: dict[tuple, Fraction] = {}
        while dist:
            branched: dict[tuple, Fraction] = {}
            for vals, weight in dist.items():
                outcomes = move(vals, group, cap)
                if outcomes is None:
                    settled[vals] = settled.get(vals, 0) + weight
                    continue
                p, first, second = outcomes
                for q, out in ((p, first), (1 - p, second)):
                    if q:
                        branched[out] = branched.get(out, 0) + weight * q
            dist = branched
        dist = settled
    return [(_chosen(instance, vals), weight) for vals, weight in dist.items()]
