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

A ratio x / y is kept as the pair (x, y) with y > 0, and x / y < x' / y'
exactly when x * y' < x' * y, so the minimization compares Python ints and
builds one ``Fraction`` at the end.

Conventions for degenerate ratios follow the definitions: 0/0 counts as 1,
a zero numerator over a positive denominator counts as 0, and a positive
numerator over a zero denominator is skipped (it cannot attain a minimum).
Observations with probability zero are excluded, as conditioning on them is
undefined.  The witness is the first strict minimum in enumeration order,
with the loops nested as written below, masks ascending and observations in
sorted state order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CapacityError, DegenerateBoundError, InputError
from .model import Instance, Realization, _evaluator

ENUMERATION_CAP = 6


@dataclass(frozen=True)
class KappaWitness:
    item: str
    base: tuple[str, ...]
    observed_items: tuple[str, ...]
    observation: Realization


@dataclass(frozen=True)
class GammaWitness:
    item: str
    observed_items: tuple[str, ...]
    observation: Realization
    observation_alt: Realization


@dataclass(frozen=True)
class IndependenceReport:
    """Raw minimum ratio, its clamp into [0, 1], and the minimizing witness."""

    value: Fraction
    clamped: Fraction
    witness: Union[KappaWitness, GammaWitness]
    ratios_examined: int


def _check_cap(instance: Instance, cap: int):
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


def _bits(vmask: int, m: int) -> list[int]:
    return [i for i in range(m) if vmask >> i & 1]


def _observations(ev, e: int, vmask: int) -> list[tuple[tuple[int, ...], int, list]]:
    """Positive-probability observations of ``vmask``, in sorted order.

    One pass over the worlds: each observation (the states of the observed
    items, in item order) comes with its total weight T and the weight W_o
    of each state o that item ``e`` takes under it, as (o, W_o) pairs.
    """
    bits = _bits(vmask, ev.m)
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for states, weight in ev.worlds:
        by_state = groups.setdefault(tuple(states[i] for i in bits), {})
        by_state[states[e]] = by_state.get(states[e], 0) + weight
    return [
        (key, sum(by_state.values()), sorted(by_state.items()))
        for key, by_state in sorted(groups.items())
    ]


def _observation_of(instance: Instance, ev, e: int, vmask: int, observation):
    """The entry of ``_observations(ev, e, vmask)`` for ``observation``."""
    if ev.mask_of(observation.domain) != vmask:
        raise InputError("observation must assign exactly the observed items")
    key = tuple(
        instance.state_index(s)
        for _, s in sorted((instance.item_index(i), s) for i, s in observation.pairs)
    )
    for entry in _observations(ev, e, vmask):
        if entry[0] == key:
            return entry
    raise InputError("observation has probability zero")


def _realization_of(instance: Instance, vmask: int, key) -> Realization:
    return Realization(
        tuple(
            (instance.items[i], instance.states[s])
            for i, s in zip(_bits(vmask, instance.m), key)
        )
    )


def _names(instance: Instance, mask: int) -> tuple[str, ...]:
    return tuple(item for i, item in enumerate(instance.items) if mask >> i & 1)


def _ratio(num: int, den: int) -> tuple[int, int] | None:
    """``num / den`` as a pair with a positive denominator, 0/0 as 1; None for x/0."""
    if den == 0:
        return (1, 1) if num == 0 else None
    return (num, den) if den > 0 else (-num, -den)


def _expect(weights, gains) -> int:
    """Sum of W_o * gain_o over the (o, W_o) pairs of one observation."""
    total = 0
    for o, w in weights:
        total += w * gains[o]
    return total


def _state_gains(ev, e: int, smask: int) -> tuple[int, list[int]]:
    """Marginal of item ``e`` on base ``smask``, and its gain in each state,
    as numerators over the evaluator's denominator."""
    base = ev.numerator(smask)
    states = range(len(ev.instance.states))
    gains = [ev.numerator(smask, (e, o)) - base for o in states]
    return ev.numerator(smask | 1 << e) - base, gains


def _cross_gains(ev, e: int, vmask: int, observations) -> list[list[int]]:
    """``dots[a][b]`` = sum_o W_{a,o} * g_o for a != b, where g_o is the
    gain of state o of ``e`` on top of the union of observations a and b."""
    dots = [[0] * len(observations) for _ in observations]
    rows = [key for key, _, _ in observations]
    gains = ev.union_gains(e, _bits(vmask, ev.m), rows)
    for (a, b), g in zip(itertools.combinations(range(len(rows)), 2), gains):
        dots[a][b] = _expect(observations[a][2], g)
        dots[b][a] = _expect(observations[b][2], g)
    return dots


def _below(ratio, best) -> bool:
    """``ratio < best`` for pairs with positive denominators."""
    return ratio[0] * best[1] < best[0] * ratio[1]


# (1, 0) stands for +infinity: every x/y with y > 0 compares below it.
_UNBOUNDED = (1, 0)


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
    m = instance.m
    full = (1 << m) - 1

    best = _UNBOUNDED
    found = None
    examined = 0

    for e in range(m):
        smasks = _submasks(full & ~(1 << e))
        # Marginal pieces are independent of the observation, so hoist them.
        pieces = [(s, *_state_gains(ev, e, s)) for s in smasks]
        for vmask in smasks:
            for key, total, weights in _observations(ev, e, vmask):
                examined += len(smasks)
                for smask, num, gains in pieces:
                    ratio = _ratio(num * total, _expect(weights, gains))
                    if ratio is not None and _below(ratio, best):
                        best, found = ratio, (e, smask, vmask, key)
    e, smask, vmask, key = found
    witness = KappaWitness(
        item=instance.items[e],
        base=_names(instance, smask),
        observed_items=_names(instance, vmask),
        observation=_realization_of(instance, vmask, key),
    )
    return _report(best, witness, examined)


def kappa_ratio(
    instance: Instance,
    item: str,
    base: tuple[str, ...],
    observed_items: tuple[str, ...],
    observation: Realization,
) -> Fraction | None:
    """Re-evaluate one ratio from the kappa minimization; None when unbounded."""
    ev = _evaluator(instance)
    e = instance.item_index(item)
    smask = ev.mask_of(base)
    if smask >> e & 1 or any(instance.item_index(v) == e for v in observed_items):
        raise InputError("base and observed sets must avoid the item itself")
    vmask = ev.mask_of(observed_items)
    _, total, weights = _observation_of(instance, ev, e, vmask, observation)
    num, gains = _state_gains(ev, e, smask)
    ratio = _ratio(num * total, _expect(weights, gains))
    return None if ratio is None else Fraction(*ratio)


def gamma(instance: Instance, cap: int = ENUMERATION_CAP) -> IndependenceReport:
    """Second-form degree of independence.

    For two observations of the same item set, compares the expected gain of
    one item's conditional state under either observation, measured on top of
    the union of both observed pair sets.
    """
    _check_cap(instance, cap)
    ev = _evaluator(instance)
    m = instance.m
    full = (1 << m) - 1

    best = _UNBOUNDED
    found = None
    examined = 0

    for e in range(m):
        for vmask in _submasks(full & ~(1 << e)):
            observations = _observations(ev, e, vmask)
            dots = _cross_gains(ev, e, vmask, observations)
            examined += len(observations) ** 2
            for a, (key_a, total_a, _) in enumerate(observations):
                for b, (key_b, total_b, _) in enumerate(observations):
                    if a == b:
                        ratio = (1, 1)  # identical conditionals cancel
                    else:
                        ratio = _ratio(total_b * dots[a][b], total_a * dots[b][a])
                        if ratio is None:
                            continue
                    if _below(ratio, best):
                        best, found = ratio, (e, vmask, key_a, key_b)
    e, vmask, key_a, key_b = found
    witness = GammaWitness(
        item=instance.items[e],
        observed_items=_names(instance, vmask),
        observation=_realization_of(instance, vmask, key_a),
        observation_alt=_realization_of(instance, vmask, key_b),
    )
    return _report(best, witness, examined)


def gamma_ratio(
    instance: Instance,
    item: str,
    observed_items: tuple[str, ...],
    observation: Realization,
    observation_alt: Realization,
) -> Fraction | None:
    """Re-evaluate one ratio from the gamma minimization; None when unbounded."""
    ev = _evaluator(instance)
    e = instance.item_index(item)
    vmask = ev.mask_of(observed_items)
    if vmask >> e & 1:
        raise InputError("observed set must avoid the item itself")
    pair = [
        _observation_of(instance, ev, e, vmask, observation),
        _observation_of(instance, ev, e, vmask, observation_alt),
    ]
    if pair[0] == pair[1]:
        return Fraction(1)
    dots = _cross_gains(ev, e, vmask, pair)
    ratio = _ratio(pair[1][1] * dots[0][1], pair[0][1] * dots[1][0])
    return None if ratio is None else Fraction(*ratio)


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
