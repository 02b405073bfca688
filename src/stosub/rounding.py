"""Randomized swap rounding of a fractional point into a feasible matroid set.

Repeatedly takes the two lowest-index fractional coordinates of a group (one
global group for uniform matroids, one per block for partition matroids) and
moves mass between them until one becomes integral, choosing the direction
with probabilities that keep each coordinate's expectation fixed.  At most
one fractional coordinate per group survives and is resolved by a Bernoulli
draw.  The multilinear extension is convex along swap directions and linear
in single coordinates, so the rounded set's expected value is at least the
extension's at the input point, and block sums never exceed their caps.

A point passes the multilinear extension's item check and the constraint's
``in_polytope``; the walk then moves its exact coordinates (a float is its
binary value) as integer numerators over one common denominator and snaps
nothing.  The k-th move with two outcomes, the first of probability
num / den, takes draw k of ``(seed, ())`` from the counter-based generator
in :mod:`stosub.multilinear` (:func:`~stosub.multilinear._draw`): the 53-bit
j picks the first outcome when j * den < num * 2**53, exactly when
j * 2**-53 < num / den.  Each such move leaves one more coordinate integral
for good, so a run takes at most one draw per coordinate.
:func:`exact_distribution` follows both outcomes of the same moves, so it
lists exactly the sets :func:`pipage_round` can draw; the experiment
harness decides its rounding flag from that distribution's exact mean.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .constraints import Constraint
from .errors import InputError, UnsupportedKindError
from .model import Instance
from .multilinear import FractionalPoint, _aligned, _draw, _key, _numerators


def _start(
    instance: Instance, constraint: Constraint, y: FractionalPoint
) -> tuple[list, tuple[int, ...], int]:
    """The rounding groups, and the exact coordinates in instance item order
    as integer numerators over one common denominator, with that denominator."""
    constraint.check_items(instance.items)
    groups = constraint.rounding_groups(instance.items)
    if groups is None:
        raise UnsupportedKindError(
            f"swap rounding supports matroid kinds only, not {constraint.kind!r}"
        )
    nums, den = _numerators(_aligned(instance, y, y.exact))
    if not constraint.in_polytope(y):
        raise InputError("point lies outside the constraint polytope")
    return groups, tuple(nums), den


def _moved(vals: tuple, changes: dict) -> tuple:
    return tuple(changes.get(i, v) for i, v in enumerate(vals))


def _swap(vals: tuple, den: int, group: list[int], cap: int):
    """One swap of the group's two lowest-index fractional coordinates:
    ``((num, total), first, second)``, mass moving from b to a with
    probability num / total, else from a to b, until one is integral."""
    fractional = [i for i in group if 0 < vals[i] < den]
    if len(fractional) < 2:
        return None
    a, b = fractional[0], fractional[1]
    va, vb = vals[a], vals[b]
    up_a = min(den - va, vb)  # push mass from b to a
    up_b = min(va, den - vb)  # push mass from a to b
    return (
        (up_b, up_a + up_b),
        _moved(vals, {a: va + up_a, b: vb - up_a}),
        _moved(vals, {a: va - up_b, b: vb + up_b}),
    )


def _close(vals: tuple, den: int, group: list[int], cap: int):
    """The draw settling the group's last fractional coordinate: ``((num,
    den), up, down)``, num 0 when the group is already full (its sum was over
    the cap within the membership tolerance) and the coordinate rounds down."""
    fractional = [i for i in group if 0 < vals[i] < den]
    if not fractional:
        return None
    i = fractional[0]
    full = sum(1 for j in group if vals[j] == den) >= cap
    return (0 if full else vals[i], den), _moved(vals, {i: den}), _moved(vals, {i: 0})


def _phases(groups: list) -> list:
    """The moves in draw order: all swaps group by group, then the closings."""
    return [(_swap, g, c) for g, c in groups] + [(_close, g, c) for g, c in groups]


def _chosen(instance: Instance, vals: tuple, den: int) -> frozenset[str]:
    return frozenset(item for item, v in zip(instance.items, vals) if v == den)


def pipage_round(
    instance: Instance, constraint: Constraint, y: FractionalPoint, seed: int
) -> frozenset[str]:
    """Round ``y`` to a feasible set of a uniform or partition matroid with
    the draws of the nonnegative integer ``seed`` (module docstring)."""
    groups, vals, den = _start(instance, constraint, y)
    key, draws = _key(seed, ()), itertools.count(1)
    for move, group, cap in _phases(groups):
        while (outcomes := move(vals, den, group, cap)) is not None:
            (num, total), first, second = outcomes
            drawn = num and _draw(key, next(draws)) * total < num << 53
            vals = first if drawn else second
    return _chosen(instance, vals, den)


def exact_distribution(
    instance: Instance, constraint: Constraint, y: FractionalPoint
) -> list[tuple[frozenset[str], Fraction]]:
    """The exact distribution of :func:`pipage_round`'s output sets: its
    moves, both outcomes of each followed and equal coordinate vectors merged
    after every step.  The weights sum to 1, and each item's total weight is
    its exact coordinate unless a full group rounded a leftover down."""
    groups, start, den = _start(instance, constraint, y)
    dist = {start: Fraction(1)}
    for move, group, cap in _phases(groups):
        settled: dict[tuple, Fraction] = {}
        while dist:
            branched: dict[tuple, Fraction] = {}
            for vals, weight in dist.items():
                outcomes = move(vals, den, group, cap)
                if outcomes is None:
                    settled[vals] = settled.get(vals, 0) + weight
                    continue
                (num, total), first, second = outcomes
                p = Fraction(num, total)
                for q, out in ((p, first), (1 - p, second)):
                    if q:
                        branched[out] = branched.get(out, 0) + weight * q
            dist = branched
        dist = settled
    return [(_chosen(instance, vals, den), weight) for vals, weight in dist.items()]
