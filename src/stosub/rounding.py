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
"""

from __future__ import annotations

import numpy as np

from .constraints import Constraint, point_in_polytope
from .errors import InputError, UnsupportedKindError
from .model import Instance
from .multilinear import FractionalPoint

_SNAP = 1e-12


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def independent_round(y: FractionalPoint, seed: int) -> frozenset[str]:
    """Include each item independently with its coordinate's probability.

    Feasibility is not guaranteed; this is the raw sampling step.
    """
    rng = _rng(seed)
    draws = rng.random(len(y.items))
    return frozenset(
        item for item, v, u in zip(y.items, y.values, draws) if u < v
    )


def _snap(v: float) -> float:
    if abs(v) < _SNAP:
        return 0.0
    if abs(v - 1.0) < _SNAP:
        return 1.0
    return v


def pipage_round(
    instance: Instance, constraint: Constraint, y: FractionalPoint, seed: int
) -> frozenset[str]:
    """Round ``y`` to a feasible set of a uniform or partition matroid."""
    groups = constraint.rounding_groups(instance.items)
    if groups is None:
        raise UnsupportedKindError(
            f"swap rounding supports matroid kinds only, not {constraint.kind!r}"
        )
    if set(y.items) != set(instance.items):
        raise InputError("fractional point items do not match the instance")
    if not point_in_polytope(constraint, y):
        raise InputError("point lies outside the constraint polytope")

    coords = y.as_dict()
    vals = [_snap(coords[item]) for item in instance.items]
    rng = _rng(seed)

    for group, _ in groups:
        while True:
            fractional = [i for i in group if 0.0 < vals[i] < 1.0]
            if len(fractional) < 2:
                break
            a, b = fractional[0], fractional[1]
            up_a = min(1.0 - vals[a], vals[b])  # push mass from b to a
            up_b = min(vals[a], 1.0 - vals[b])  # push mass from a to b
            if rng.random() < up_b / (up_a + up_b):
                vals[a] += up_a
                vals[b] -= up_a
            else:
                vals[a] -= up_b
                vals[b] += up_b
            vals[a] = _snap(vals[a])
            vals[b] = _snap(vals[b])

    # At most one fractional coordinate per group remains; an independent
    # Bernoulli draw per group preserves marginals.  A full group (possible
    # only when the leftover fraction is within the membership tolerance)
    # must round down to keep the cap.
    for group, cap in groups:
        ones = sum(1 for i in group if vals[i] == 1.0)
        for i in group:
            if 0.0 < vals[i] < 1.0:
                if ones >= cap:
                    vals[i] = 0.0
                else:
                    vals[i] = 1.0 if rng.random() < vals[i] else 0.0

    return frozenset(
        item for item, v in zip(instance.items, vals) if v == 1.0
    )
