"""Degrees of independence of a joint prior, and the bounds built from them.

Both diagnostics are worst-case ratios of expected marginal gains under
different conditioning regimes, minimized over every item, base set, and
positive-probability observation.  They equal exactly 1 for product priors.
All arithmetic is exact: probabilities are rationals and utility floats are
converted to rationals without rounding, so a product prior yields the
rational 1 with no tolerance.

Conventions for degenerate ratios follow the definitions: 0/0 counts as 1,
a zero numerator over a positive denominator counts as 0, and a positive
numerator over a zero denominator is skipped (it cannot attain a minimum).
Observations with probability zero are excluded, as conditioning on them is
undefined.
"""

from __future__ import annotations

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


def _projections(ev, vmask: int) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """Distinct positive-probability restrictions of the support to ``vmask``."""
    bits = [i for i in range(ev.m) if vmask >> i & 1]
    agg: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for states, prob in ev.support:
        if prob == 0:
            continue
        key = tuple((i, states[i]) for i in bits)
        agg[key] = agg.get(key, Fraction(0)) + prob
    return sorted((k, p) for k, p in agg.items() if p > 0)


def _conditional(ev, item: int, vmask: int, proj) -> list[tuple[int, Fraction]]:
    """State marginal of ``item`` given the projection, as exact fractions."""
    keep = dict(proj)
    weights: dict[int, Fraction] = {}
    total = Fraction(0)
    for states, prob in ev.support:
        if prob == 0:
            continue
        if any(states[i] != s for i, s in keep.items()):
            continue
        weights[states[item]] = weights.get(states[item], Fraction(0)) + prob
        total += prob
    if total == 0:
        raise InputError("observation has probability zero")
    return [(s, weights[s] / total) for s in sorted(weights)]


def _realization_of(instance: Instance, proj) -> Realization:
    return Realization(
        tuple((instance.items[i], instance.states[s]) for i, s in proj)
    )


def _names(instance: Instance, mask: int) -> tuple[str, ...]:
    return tuple(item for i, item in enumerate(instance.items) if mask >> i & 1)


def _projection_of(instance: Instance, ev, vmask: int, observation: Realization):
    if ev.mask_of(observation.domain) != vmask:
        raise InputError("observation must assign exactly the observed items")
    return tuple(
        sorted(
            (instance.item_index(i), instance.state_index(s))
            for i, s in observation.pairs
        )
    )


def _ratio(num: Fraction, den: Fraction) -> Fraction | None:
    """``num / den`` with 0/0 as 1; None for an unbounded ratio x/0."""
    if den == 0:
        return Fraction(1) if num == 0 else None
    return num / den


def _state_gains(ev, e: int, smask: int):
    """Marginal of item ``e`` on base ``smask``, and its gain in each state."""
    base = ev.set_value_exact(smask)
    states = range(len(ev.instance.states))
    gains = [ev.state_value_exact(smask, e, o) - base for o in states]
    return ev.set_value_exact(smask | 1 << e) - base, gains


def _pair_gains(ev, e: int, base_key: frozenset) -> list[Fraction]:
    """Gain of each state of item ``e`` on top of the observed pair set."""
    base = ev.pair_value(base_key)[1]
    states = range(len(ev.instance.states))
    return [ev.pair_value(base_key | {(e, o)})[1] - base for o in states]


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

    best: Fraction | None = None
    witness: KappaWitness | None = None
    examined = 0

    for e in range(m):
        others = full & ~(1 << e)
        smasks = _submasks(others)
        # Marginal pieces are independent of the observation, so hoist them.
        gains = {s: _state_gains(ev, e, s) for s in smasks}
        for vmask in smasks:
            for proj, _ in _projections(ev, vmask):
                cond = _conditional(ev, e, vmask, proj)
                for smask in smasks:
                    examined += 1
                    num, state_gains = gains[smask]
                    den = Fraction(0)
                    for o, q in cond:
                        den += q * state_gains[o]
                    ratio = _ratio(num, den)
                    if ratio is None:
                        continue  # unbounded ratio, never a minimum
                    if best is None or ratio < best:
                        best = ratio
                        witness = KappaWitness(
                            item=instance.items[e],
                            base=_names(instance, smask),
                            observed_items=_names(instance, vmask),
                            observation=_realization_of(instance, proj),
                        )
    assert best is not None and witness is not None
    return IndependenceReport(
        value=best, clamped=min(best, Fraction(1)), witness=witness,
        ratios_examined=examined,
    )


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
    cond = _conditional(ev, e, vmask, _projection_of(instance, ev, vmask, observation))
    num, gains = _state_gains(ev, e, smask)
    return _ratio(num, sum((q * gains[o] for o, q in cond), Fraction(0)))


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

    best: Fraction | None = None
    witness: GammaWitness | None = None
    examined = 0

    pair_gains: dict = {}

    for e in range(m):
        others = full & ~(1 << e)
        for vmask in _submasks(others):
            projections = _projections(ev, vmask)
            conds = {
                proj: _conditional(ev, e, vmask, proj) for proj, _ in projections
            }
            for proj_a, _ in projections:
                for proj_b, _ in projections:
                    examined += 1
                    if proj_a == proj_b:
                        ratio = Fraction(1)  # identical conditionals cancel
                    else:
                        base_key = frozenset(proj_a) | frozenset(proj_b)
                        gains = pair_gains.get((e, base_key))
                        if gains is None:
                            gains = _pair_gains(ev, e, base_key)
                            pair_gains[(e, base_key)] = gains
                        num = den = Fraction(0)
                        for o, q in conds[proj_a]:
                            num += q * gains[o]
                        for o, q in conds[proj_b]:
                            den += q * gains[o]
                        ratio = _ratio(num, den)
                        if ratio is None:
                            continue
                    if best is None or ratio < best:
                        best = ratio
                        witness = GammaWitness(
                            item=instance.items[e],
                            observed_items=_names(instance, vmask),
                            observation=_realization_of(instance, proj_a),
                            observation_alt=_realization_of(instance, proj_b),
                        )
    assert best is not None and witness is not None
    return IndependenceReport(
        value=best, clamped=min(best, Fraction(1)), witness=witness,
        ratios_examined=examined,
    )


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
    proj_a = _projection_of(instance, ev, vmask, observation)
    proj_b = _projection_of(instance, ev, vmask, observation_alt)
    cond_a = _conditional(ev, e, vmask, proj_a)
    cond_b = _conditional(ev, e, vmask, proj_b)
    if proj_a == proj_b:
        return Fraction(1)
    base_key = frozenset(proj_a) | frozenset(proj_b)
    gains = _pair_gains(ev, e, base_key)
    return _ratio(
        sum((q * gains[o] for o, q in cond_a), Fraction(0)),
        sum((q * gains[o] for o, q in cond_b), Fraction(0)),
    )


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
