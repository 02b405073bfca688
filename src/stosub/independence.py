"""Degrees of independence of a joint prior, and the bounds built from them.

Both diagnostics are worst-case ratios of expected marginal gains under
different conditioning regimes, minimized over every item, base set, and
positive-probability observation.  They equal exactly 1 for product priors.
All arithmetic is exact, so a product prior yields the rational 1 with no
tolerance.

Every ratio is a quotient of integers.  World w has integer weight a_w = p_w
* L (L the LCD of the support), and expected values are integer numerators
over the evaluator's D = L * 2**k.  An observation v of the items V groups
the worlds that agree with it: T is their total weight and W_o the weight of
those in which item e has state o, so e's conditional marginal is W_o / T.

- kappa, for item e, base S and observation v: with n_S = N(S + e) - N(S)
  and G_{S,o} = N(S + (e, o)) - N(S), N the numerators of E[f],
  ratio = n_S * T / sum_o W_o * G_{S,o}.
- gamma, for item e and observations a, b of V: with g_o = 2**k * (f(A | B
  | {(e, o)}) - f(A | B)), A and B the observed pair sets,
  ratio = T_b * sum_o W_{a,o} * g_o / (T_a * sum_o W_{b,o} * g_o).

Both read the evaluator's observation table, one row per observation of
every V, V ascending and keys sorted (see ``model``), and skip what cannot
change the report:

- kappa, per item e, stacks the rows whose mask avoids e, takes n and G for
  every S avoiding e from the evaluator's value tables (built for every pin
  in one pass), and forms the denominators ``W @ G.T`` and the numerators
  ``outer(T, n)``: ratios in (V, observation, S) order.  Two rows whose
  W[., e] are proportional, W' = c * W with c > 0, are twins: T' = c * T, so
  every ratio of the later one is the earlier one's with both terms times
  c, and equal under every convention below (0/0, x/0 and sign flips
  included).  The first strict minimum therefore never lies on a later
  twin, and only the first row of each conditional of e is valued.
- gamma, per item e, values the union of each pair a < b of rows of one V
  once, in one evaluator batch, and contracts both rows' W with the pair's
  gains.  (a, b) is T_b * d_a / (T_a * d_b), with d the two contractions,
  and (b, a) is the same pair swapped.  When a and b are twins both terms
  equal c * T_a * d_a, so the ratio is 1, as on the diagonal.  Position 0
  of the enumeration, item 0's V = {} diagonal, is 1 as well, so no other
  ratio-1 entry can be the first strict minimum: only pairs with distinct
  conditionals are valued (none on a product prior), behind a 1/1 that
  stands for position 0.  ``ratios_examined`` still counts every ordered
  pair, as it counts every row for kappa.

The arrays are int64 when L**2 * 2**k * max f < 2**63, which bounds every
numerator and denominator (a weight sum of at most L times a gain of at most
L * 2**k * max f), and Python-int object arrays otherwise.  ``_near_min``
keeps, per item, the ratios that can be its first strict minimum: a float
pre-filter keeps those within a relative window of the smallest float
quotient, a window wider than the rounding of x, y and x / y.  One
``_first_min`` per measure then runs over every item's candidates, in
enumeration order, a tournament of exact integer cross-multiplications (x /
y < x' / y' exactly when x * y' < x' * y, with y, y' > 0), and one
``Fraction`` is built at the end.

Conventions for degenerate ratios follow the definitions: 0/0 counts as 1,
a zero numerator over a positive denominator counts as 0, a negative
denominator flips both signs, and a nonzero numerator over a zero
denominator is skipped (it cannot attain a minimum).  Observations with
probability zero are excluded, as conditioning on them is undefined.  The
witness is the first strict minimum in enumeration order: items, then the
orders above, masks ascending and observations in sorted state order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import CapacityError, DegenerateBoundError, InputError
from .model import Instance, Realization, _evaluator

ENUMERATION_CAP = 6

# Relative width of the float pre-filter.  An int64 quotient is rounded three
# times (x, y and x / y), less than 4 * 2**-53 in all; a Python-int quotient
# is rounded once, correctly, so equal ratios give equal floats.
_WINDOW = 2.0**-40


@dataclass(frozen=True)
class KappaWitness:
    item: str
    base: tuple[str, ...]
    observed_items: tuple[str, ...]
    observation: Realization

    def to_dict(self) -> dict:
        return {
            "item": self.item,
            "base": list(self.base),
            "observed": list(self.observed_items),
            "observation": self.observation.as_dict(),
        }


@dataclass(frozen=True)
class GammaWitness:
    item: str
    observed_items: tuple[str, ...]
    observation: Realization
    observation_alt: Realization

    def to_dict(self) -> dict:
        return {
            "item": self.item,
            "observed": list(self.observed_items),
            "observation": self.observation.as_dict(),
            "observation_alt": self.observation_alt.as_dict(),
        }


@dataclass(frozen=True)
class IndependenceReport:
    """Raw minimum ratio, its minimum with 1, and the minimizing witness.

    A ratio of 1 is always enumerated (kappa at S = V = {}, gamma at position
    0), so the raw value never exceeds 1 and ``clamped`` equals it; a
    negative raw value, possible for a utility that is not monotone, stays
    as it is in both.
    """

    value: Fraction
    clamped: Fraction
    witness: Union[KappaWitness, GammaWitness]
    ratios_examined: int


def _check_cap(instance: Instance, cap: int):
    if cap < 1:
        raise InputError(f"the enumeration cap must be at least 1, got {cap}")
    if instance.m > cap:
        raise CapacityError(
            f"exhaustive enumeration over {instance.m} items exceeds the cap {cap}"
        )


def _near_min(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flat positions and values of the ratios x / y that can be the first
    strict minimum, in order.

    ``x`` and ``y`` are int64 or object arrays of one shape.  The values are
    object arrays of Python ints, in lowest terms with y > 0 under the
    module's conventions; all three are empty when every ratio is skipped.
    The float quotients are those of the ratios clipped into [-1, 1], so none
    overflows, and the clip is monotone, so every minimum stays within the
    window.  The window grows with its low end, so the positions kept from a
    part of an array include every one the whole array's window keeps there.
    """
    x, y = x.ravel(), y.ravel()
    x = np.where(y < 0, -x, x)
    y = abs(y)
    undefined = (x == 0) & (y == 0)
    x, y = np.where(undefined, 1, x), np.where(undefined, 1, y)
    live = np.flatnonzero(y)
    if not len(live):
        return live, np.array([], object), np.array([], object)
    x, y = x[live], y[live]
    quotients = (np.clip(x, -y, y) / y).astype(float)
    low = quotients.min()
    near = np.flatnonzero(quotients <= low + abs(low) * _WINDOW)
    index, x, y = live[near], x[near], y[near]
    # Equal ratios have equal lowest terms, so of the candidates equal to the
    # first one only that one needs comparing (on a product prior, all of them).
    common = np.gcd(x, y)
    x, y = x // common, y // common
    rest = (x != x[0]) | (y != y[0])
    rest[0] = True
    return index[rest], x[rest].astype(object), y[rest].astype(object)


def _first_min(x: np.ndarray, y: np.ndarray) -> tuple[int, tuple[int, int]] | None:
    """Flat position and value of the first strict minimum of the ratios x / y.

    The value is a pair (num, den) of Python ints in lowest terms with den >
    0; None when every ratio is skipped.  A tournament of exact
    cross-multiplications runs over the candidates of ``_near_min``.
    """
    index, x, y = _near_min(x, y)
    if not len(index):
        return None
    while len(index) > 1:  # the later of two wins only when strictly smaller
        if len(index) % 2:  # (1, 0) lies above every ratio, so it never wins
            index, x, y = np.append(index, -1), np.append(x, 1), np.append(y, 0)
        later = x[1::2] * y[::2] < x[::2] * y[1::2]
        index, x, y = (np.where(later, v[1::2], v[::2]) for v in (index, x, y))
    return int(index[0]), (int(x[0]), int(y[0]))


def _ordered_pairs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows a, b of every ordered pair within each block of ``sizes`` rows, the
    blocks laid end to end: block by block, row-major; and the position of
    each pair's mirror (b, a) in that order."""
    squares = sizes * sizes
    start = np.repeat(np.cumsum(sizes) - sizes, squares)
    width = np.repeat(sizes, squares)
    first = np.repeat(np.cumsum(squares) - squares, squares)
    row, col = np.divmod(np.arange(squares.sum()) - first, width)
    return start + row, start + col, first + col * width + row


def _realization_of(instance: Instance, ev, row: int) -> Realization:
    """Observation ``row`` of the evaluator's table, by item and state name."""
    obs = ev.observations()
    mask, states = int(obs.masks[row]), ev.worlds[obs.worlds[row]][0]
    return Realization(
        tuple(
            (item, instance.states[states[i]])
            for i, item in enumerate(instance.items)
            if mask >> i & 1
        )
    )


def _names(instance: Instance, mask: int) -> tuple[str, ...]:
    return tuple(item for i, item in enumerate(instance.items) if mask >> i & 1)


def _report(best: tuple[int, int], witness, examined: int) -> IndependenceReport:
    value = Fraction(*best)
    return IndependenceReport(
        value=value, clamped=min(value, Fraction(1)), witness=witness,
        ratios_examined=examined,
    )


def kappa(instance: Instance, cap: int = ENUMERATION_CAP) -> IndependenceReport:
    """First-form degree of independence.

    Minimizes, over items e, base sets S, and positive observations of any
    V (both avoiding e), the ratio of the unconditional expected marginal of
    e on S to the conditional-state average of the same marginal.
    """
    _check_cap(instance, cap)
    ev = _evaluator(instance)
    m, states = instance.m, len(instance.states)
    # Row 0 holds N; row 1 + e * states + o holds N with (e, o) pinned.
    tables = ev.tables([None, *itertools.product(range(m), range(states))])
    obs = ev.observations()
    rows, masks = np.arange(len(obs.masks)), np.arange(1 << m)

    near, where, examined = [], [], 0
    for e in range(m):
        smasks = np.flatnonzero((masks >> e & 1) == 0)  # ascending, as in _observe
        # Only the first row of each conditional of e: its twins repeat its ratios.
        first = np.flatnonzero(obs.twins[:, e] == rows)
        weights = obs.weights[first, e]
        base = tables[0, smasks]
        pinned = tables[1 + e * states : 1 + (e + 1) * states, smasks]
        num = np.outer(weights.sum(axis=1), tables[0, smasks | 1 << e] - base)
        index, x, y = _near_min(num, weights @ (pinned - base))
        row, col = np.divmod(index, len(smasks))
        near.append((x, y))
        where.append(np.stack([np.full(len(index), e), first[row], smasks[col]]))
        examined += int(np.count_nonzero(obs.twins[:, e] >= 0)) * len(smasks)
    index, best = _first_min(*np.concatenate(near, axis=1))
    e, row, smask = (int(v) for v in np.concatenate(where, axis=1)[:, index])
    witness = KappaWitness(
        item=instance.items[e],
        base=_names(instance, smask),
        observed_items=_names(instance, int(obs.masks[row])),
        observation=_realization_of(instance, ev, row),
    )
    return _report(best, witness, examined)


def gamma(instance: Instance, cap: int = ENUMERATION_CAP) -> IndependenceReport:
    """Second-form degree of independence.

    For two observations of the same item set, compares the expected gain of
    one item's conditional state under either observation, measured on top of
    the union of both observed pair sets.
    """
    _check_cap(instance, cap)
    ev = _evaluator(instance)
    obs = ev.observations()
    masks = np.arange(1 << instance.m)
    totals, sizes = obs.weights.sum(axis=-1), np.bincount(obs.masks)  # rows per mask

    # First item 0's V = {} diagonal, ratio 1/1 at flat position 0, which
    # stands for every ratio-1 pair of equal conditionals (module docstring).
    near, where, examined = [np.ones((2, 1), object)], [np.zeros((3, 1), int)], 0
    for e in range(instance.m):
        rows = np.flatnonzero(obs.twins[:, e] >= 0)
        a, b, mirror = _ordered_pairs(sizes[np.flatnonzero((masks >> e & 1) == 0)])
        examined += len(a)
        a, b = rows[a], rows[b]
        differ = obs.twins[a, e] != obs.twins[b, e]
        at = np.cumsum(differ) - 1  # position among the valued pairs
        upper = np.flatnonzero(differ & (a < b))
        ratios = np.empty((2, np.count_nonzero(differ)), obs.weights.dtype)
        if len(upper):
            # For a < b: dots[0] = W_a . g and dots[1] = W_b . g, g the pair's
            # union gains, which (a, b) and (b, a) share.
            pairs = np.stack([a[upper], b[upper]])
            gains = ev.union_gains(e, *pairs)
            dots = np.einsum("pus,us->pu", obs.weights[pairs, e], gains)
            ratios[:, at[upper]] = totals[pairs[::-1], e] * dots
            ratios[:, at[mirror[upper]]] = ratios[::-1, at[upper]]
        index, x, y = _near_min(*ratios)
        near.append((x, y))
        a, b = a[differ][index], b[differ][index]
        where.append(np.stack([np.full(len(index), e), a, b]))
    index, best = _first_min(*np.concatenate(near, axis=1))
    e, a, b = (int(v) for v in np.concatenate(where, axis=1)[:, index])
    witness = GammaWitness(
        item=instance.items[e],
        observed_items=_names(instance, int(obs.masks[a])),
        observation=_realization_of(instance, ev, a),
        observation_alt=_realization_of(instance, ev, b),
    )
    return _report(best, witness, examined)


def ratio_bound(kappa: float, m: int, alpha: float = 1.0) -> float:
    """Approximation factor of the two-stage pipeline for the given parameters.

    May be negative for small m or small kappa; callers interpret negative
    values as a vacuous guarantee.
    """
    kappa = float(kappa)
    if kappa <= 0:
        raise DegenerateBoundError("bound is undefined for kappa = 0")
    if kappa > 1:
        raise InputError("kappa must lie in (0, 1]; clamp raw values first")
    if m < 1:
        raise InputError("m must be at least 1")
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")
    return alpha * (
        1.0
        - math.exp(-kappa / 2.0 + kappa / (18.0 * m * m))
        - (kappa + 2.0) / (3.0 * m * kappa)
    )


def adaptivity_gap_bound(gamma: float) -> float:
    """Worst-case ratio of best adaptive to best non-adaptive utility."""
    gamma = float(gamma)
    if gamma <= 0:
        raise DegenerateBoundError("bound is undefined for gamma = 0")
    if gamma > 1:
        raise InputError("gamma must lie in (0, 1]; clamp raw values first")
    return (1.0 + gamma) / gamma
