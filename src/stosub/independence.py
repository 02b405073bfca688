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

For one item e both are a few integer array operations.  kappa stacks the
observations of every V avoiding e, V ascending and keys sorted, into W
(observations x states) and T, takes n and G for every S avoiding e from the
evaluator's value tables (built for every pin in one pass), and forms the
denominators ``W @ G.T`` and the numerators ``outer(T, n)``: ratios in
(V, observation, S) order.  gamma values the union of each observation pair
a < b of every V once, in one evaluator batch, and contracts both
observations' W with the pair's gains at once.  The ratios are laid out
row-major per V over every ordered pair: (a, b) is T_b * d_a / (T_a * d_b),
with d the two contractions, and (b, a) is the same pair swapped.  On the
diagonal numerator and denominator are equal, so the ratio is 1/1.

The arrays are int64 when L**2 * 2**k * max f < 2**63, which bounds every
numerator and denominator (a weight sum of at most L times a gain of at most
L * 2**k * max f), and Python-int object arrays otherwise.  ``_first_min``
finds the minimum of each item's ratios: a float pre-filter keeps the ratios
within a relative window of the smallest float quotient, a window wider than
the rounding of x, y and x / y, and a tournament of exact integer
cross-multiplications (x / y < x' / y' exactly when x * y' < x' * y, with
y, y' > 0) picks the first minimum among them.  The items' winners go
through the same helper, and one ``Fraction`` is built at the end.

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
    """Raw minimum ratio, its clamp into [0, 1], and the minimizing witness."""

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


def _submasks(full: int):
    """All submasks of ``full`` in ascending order, including 0."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == full:
            return out
        sub = (sub | ~full) + 1 & full


def _first_min(x: np.ndarray, y: np.ndarray) -> tuple[int, tuple[int, int]] | None:
    """Flat position and value of the first strict minimum of the ratios x / y.

    ``x`` and ``y`` are int64 or object arrays of one shape.  The value is a
    pair (num, den) of Python ints in lowest terms with den > 0, under the
    module's conventions; None when every ratio is skipped.  The float
    quotients are those of the ratios clipped into [-1, 1], so none
    overflows, and the clip is monotone, so every minimum stays within the
    window.
    """
    x, y = x.ravel(), y.ravel()
    x = np.where(y < 0, -x, x)
    y = abs(y)
    undefined = (x == 0) & (y == 0)
    x, y = np.where(undefined, 1, x), np.where(undefined, 1, y)
    live = np.flatnonzero(y)
    if not len(live):
        return None
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
    index, x, y = index[rest], x[rest].astype(object), y[rest].astype(object)
    while len(index) > 1:  # the later of two wins only when strictly smaller
        if len(index) % 2:  # (1, 0) lies above every ratio, so it never wins
            index, x, y = np.append(index, -1), np.append(x, 1), np.append(y, 0)
        later = x[1::2] * y[::2] < x[::2] * y[1::2]
        index, x, y = (np.where(later, v[1::2], v[::2]) for v in (index, x, y))
    return int(index[0]), (int(x[0]), int(y[0]))


def _best(winners: list) -> tuple[tuple[int, int], tuple]:
    """The first strict minimum among the items' (ratio, where) winners."""
    ratios = np.array([ratio for ratio, _ in winners], dtype=object)
    index, best = _first_min(ratios[:, 0], ratios[:, 1])
    return best, winners[index][1]


def _ordered_pairs(sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows a, b of every ordered pair within each block of ``sizes`` rows, the
    blocks laid end to end: block by block, row-major; and the position of
    each pair's mirror (b, a) in that order."""
    sizes = np.array(sizes)
    squares = sizes * sizes
    start = np.repeat(np.cumsum(sizes) - sizes, squares)
    width = np.repeat(sizes, squares)
    first = np.repeat(np.cumsum(squares) - squares, squares)
    row, col = np.divmod(np.arange(squares.sum()) - first, width)
    return start + row, start + col, first + col * width + row


def _realization_of(instance: Instance, vmask: int, key) -> Realization:
    bits = [i for i in range(instance.m) if vmask >> i & 1]
    return Realization(
        tuple((instance.items[i], instance.states[s]) for i, s in zip(bits, key))
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
    full = (1 << m) - 1
    # Row 0 holds N; row 1 + e * states + o holds N with (e, o) pinned.
    tables = ev.tables([None, *itertools.product(range(m), range(states))])

    winners, examined = [], 0
    for e in range(m):
        masks = _submasks(full & ~(1 << e))
        smasks = np.array(masks)
        groups = [ev.observations(vmask) for vmask in masks]
        weights = np.concatenate([w[:, e] for _, w in groups])
        rows = [(v, key) for v, (keys, _) in zip(masks, groups) for key in keys]
        base = tables[0, smasks]
        pinned = tables[1 + e * states : 1 + (e + 1) * states, smasks]
        num = np.outer(weights.sum(axis=1), tables[0, smasks | 1 << e] - base)
        den = weights @ (pinned - base)
        examined += den.size
        index, ratio = _first_min(num, den)
        row, col = divmod(index, len(masks))
        winners.append((ratio, (e, masks[col], *rows[row])))
    best, (e, smask, vmask, key) = _best(winners)
    witness = KappaWitness(
        item=instance.items[e],
        base=_names(instance, smask),
        observed_items=_names(instance, vmask),
        observation=_realization_of(instance, vmask, key),
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
    full = (1 << instance.m) - 1

    winners, examined = [], 0
    for e in range(instance.m):
        vmasks = _submasks(full & ~(1 << e))
        groups = [ev.observations(vmask) for vmask in vmasks]
        weights = np.concatenate([w[:, e] for _, w in groups])
        rows = [(v, key) for v, (keys, _) in zip(vmasks, groups) for key in keys]
        totals = weights.sum(axis=1)
        a, b, mirror = _ordered_pairs([len(keys) for keys, _ in groups])
        # For a < b: dots[0] = W_a . g and dots[1] = W_b . g, g the pair's
        # union gains, which (a, b) and (b, a) share.
        upper = np.flatnonzero(a < b)
        pairs = np.stack([a[upper], b[upper]])
        dots = (weights[pairs] * ev.union_gains(e, vmasks, *pairs)).sum(axis=-1)
        # Rows num, den; the diagonal keeps 1/1, as there num equals den.
        ratios = np.ones((2, len(a)), weights.dtype)
        ratios[:, upper] = totals[pairs[::-1]] * dots
        ratios[:, mirror[upper]] = ratios[::-1, upper]
        examined += len(a)
        index, ratio = _first_min(*ratios)
        (vmask, key_a), (_, key_b) = rows[a[index]], rows[b[index]]
        winners.append((ratio, (e, vmask, key_a, key_b)))
    best, (e, vmask, key_a, key_b) = _best(winners)
    witness = GammaWitness(
        item=instance.items[e],
        observed_items=_names(instance, vmask),
        observation=_realization_of(instance, vmask, key_a),
        observation_alt=_realization_of(instance, vmask, key_b),
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
