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
change the report.  Each works on a batch of consecutive items at a time,
all the batch's items in one set of arrays (``_BATCH`` bounds their size):

- kappa stacks, item by item, the rows whose mask avoids e, takes n from
  the evaluator's value table and G from its pair gains for every S
  avoiding e, reads the rows' W through the table's one reader, and forms
  the denominators sum_o W_o * G_o and the numerators T * n: ratios in
  (item, V, observation, S) order.  Two rows
  whose W[., e] are proportional, W' = c * W with c > 0, are twins: T' = c *
  T, so every ratio of the later one is the earlier one's with both terms
  times c, and equal under every convention below (0/0, x/0 and sign flips
  included).  The first strict minimum therefore never lies on a later
  twin, and only the first row of each conditional of e is valued.
- gamma writes (a, b) as T_b * d_a / (T_a * d_b), with d_x = W_x[e] . g the
  contractions of the pair's gains, and (b, a) as the same pair swapped.
  Twins give both terms c * T_a * d_a, so the ratio is 1, as on the
  diagonal; position 0 of the enumeration, item 0's V = {} diagonal, is 1 as
  well, so no other ratio-1 entry can be the first strict minimum, and a 1/1
  stands for position 0 and every pair of one conditional.  The gains of e
  on a union read of each row only its key (``union_keys``): for coverage,
  the targets e can cover that the row leaves uncovered, and for an
  explicit table the row's whole pair set.  So the rows of one V
  with one conditional and one key form a group whose members every ratio
  treats alike, and a pair of groups takes its first place in the
  enumeration at their first rows, (i, j) of V's n_V rows at V's first
  position + i * n_V + j.  Each unordered pair of groups of one V with
  different conditionals is valued once, in both orientations
  (``union_dots``; none on a product prior), and the few candidates are
  sorted by position.  A pair whose contractions are both 0 is 0/0 = 1 both
  ways and is left to the 1/1 too; on coverage that is every pair whose
  keys do not meet, most pairs.  ``ratios_examined`` still counts
  every ordered pair, the sum over V avoiding e of n_V**2, as it counts
  every row for kappa.

The arrays are int64 when L**2 * 2**k * max f < 2**63, which bounds every
numerator and denominator (a weight sum of at most L times a gain of at most
L * 2**k * max f), and Python-int object arrays otherwise.  ``_first_min``
takes each batch's exact first strict minimum: a float pre-filter keeps the
ratios within a relative window of the smallest float quotient, a window
wider than the rounding of x, y and x / y, and one scan of those, in
enumeration order, compares them by exact integer cross-multiplications
(x / y < x' / y' exactly when x * y' < x' * y, with y, y' > 0).  The
batches run in enumeration order, so a batch's minimum replaces the earlier
ones' only when strictly smaller (gamma's first is its 1/1 at position 0),
and one ``Fraction`` is built at the end.  T is read from the table's
``totals``.

Conventions for degenerate ratios follow the definitions: 0/0 counts as 1,
a zero numerator over a positive denominator counts as 0, a negative
denominator flips both signs, and a nonzero numerator over a zero
denominator is skipped (it cannot attain a minimum).  Observations with
probability zero are excluded, as conditioning on them is undefined.  The
witness is the first strict minimum in enumeration order: items, then the
orders above, masks ascending and observations in sorted state order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import DegenerateBoundError, InputError
from .model import Instance, Realization, _evaluator

# Relative width of the float pre-filter.  An int64 quotient is rounded three
# times (x, y and x / y), less than 4 * 2**-53 in all; a Python-int quotient
# is rounded once, correctly, so equal ratios give equal floats.
_WINDOW = 2.0**-40

# The ratios a batch of items holds: those kappa values, and the ordered
# pairs gamma counts.  The exact-oracles benchmark's m = 6 instances (at most
# 37,266 pairs) run as one batch, and from m = 10 on (24 worlds) each item is
# a batch of its own, so the arrays stay those of one item.
_BATCH = 1 << 16


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


def _first_min(
    x: np.ndarray, y: np.ndarray, position: np.ndarray | None = None
) -> tuple[int, tuple[int, int]] | None:
    """Flat index and value of the first strict minimum of the ratios x / y.

    ``x`` and ``y`` are int64 or object arrays of one shape, in enumeration
    order unless ``position`` gives each ratio's place in it.  The value is a
    pair (num, den) of Python ints in lowest terms with den > 0 under the
    module's conventions; None when every ratio is skipped.  A float
    pre-filter keeps the ratios within ``_WINDOW`` of the smallest float
    quotient, those of the ratios clipped into [-1, 1], so none overflows;
    the clip is monotone, so every minimum stays within the window.  One
    ordered scan of exact cross-multiplications runs over what it keeps.
    """
    x, y = x.ravel(), y.ravel()
    x, y = np.where(y < 0, -x, x), abs(y)  # new arrays, changed in place below
    undefined = (x == 0) & (y == 0)
    x[undefined] = y[undefined] = 1
    live = np.flatnonzero(y)
    if not len(live):
        return None
    if len(live) < len(y):
        x, y = x[live], y[live]
    quotients = (np.clip(x, -y, y) / y).astype(float, copy=False)
    low = quotients.min()
    near = np.flatnonzero(quotients <= low + abs(low) * _WINDOW)
    if position is not None:
        near = near[np.argsort(position[live[near]], kind="stable")]
    index, x, y = live[near], x[near], y[near]
    # Equal ratios have equal lowest terms, so of the candidates equal to the
    # first one only that one needs comparing (on a product prior, all of them).
    common = np.gcd(x, y)
    x, y = x // common, y // common
    rest = (x != x[0]) | (y != y[0])
    rest[0] = True
    index, x, y, best = index[rest], x[rest].tolist(), y[rest].tolist(), 0
    for k in range(1, len(x)):  # a later candidate wins only when strictly smaller
        if x[k] * y[best] < x[best] * y[k]:
            best = k
    return int(index[best]), (x[best], y[best])


def _below(found, best: tuple[int, int] | None) -> bool:
    """Whether a batch's ``_first_min`` lies strictly below ``best``, the
    value of the earlier batches' first minimum (None before any)."""
    if found is None:
        return False
    x, y = found[1]
    return best is None or x * best[1] < best[0] * y


def _batches(costs: np.ndarray):
    """Runs [lo, hi) of consecutive items whose costs sum to at most
    ``_BATCH``, or of one item when its cost alone exceeds it."""
    lo = total = 0
    for e, cost in enumerate(costs.tolist()):
        if total and total + cost > _BATCH:
            yield lo, e
            lo, total = e, 0
        total += cost
    yield lo, len(costs)


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


def kappa(instance: Instance) -> IndependenceReport:
    """First-form degree of independence.

    Minimizes, over items e, base sets S, and positive observations of any
    V (both avoiding e), the ratio of the unconditional expected marginal of
    e on S to the conditional-state average of the same marginal.
    """
    ev = _evaluator(instance)
    obs, m = ev.observations(), instance.m
    # Row e: the masks without bit e, ascending (as in _observe), made from
    # 0 .. 2**(m-1) - 1 by moving the bits from e up one place; n and G there.
    low, bit = np.arange(1 << (m - 1)), 1 << np.arange(m)[:, None]
    smasks = (low & -bit) << 1 | low & bit - 1
    table = ev.table()
    n = table[smasks | bit] - table[smasks]
    gains = ev.pair_gains()[smasks, np.arange(m)[:, None]]  # (e, S, o)

    # Only the first row of each conditional of e: its twins repeat its ratios.
    first = (obs.twins == np.arange(len(obs.masks))[:, None]).T
    best = None
    for lo, hi in _batches(first.sum(axis=1) * smasks.shape[1]):
        items, rows = np.nonzero(first[lo:hi])
        items += lo
        # sum_o W_o * G_o, in one pass over each row's gathered gains.
        den = np.einsum("ko,kso->ks", obs.weights(rows, items), gains[items])
        found = _first_min(obs.totals[rows, None] * n[items], den)
        if _below(found, best):
            k, col = divmod(found[0], smasks.shape[1])
            best, e, row = found[1], int(items[k]), int(rows[k])
            smask = int(smasks[e, col])
    examined = int(np.count_nonzero(obs.twins >= 0)) * smasks.shape[1]
    witness = KappaWitness(
        item=instance.items[e],
        base=_names(instance, smask),
        observed_items=_names(instance, int(obs.masks[row])),
        observation=_realization_of(instance, ev, row),
    )
    return _report(best, witness, examined)


def _runs(fresh: np.ndarray) -> np.ndarray:
    """For each position, the end of the run it lies in; a run starts at
    every True of ``fresh``, whose first entry is True."""
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], len(fresh))
    return np.repeat(ends, ends - starts)


def gamma(instance: Instance) -> IndependenceReport:
    """Second-form degree of independence.

    For two observations of the same item set, compares the expected gain of
    one item's conditional state under either observation, measured on top of
    the union of both observed pair sets.
    """
    ev = _evaluator(instance)
    obs, m = ev.observations(), instance.m
    sizes = np.bincount(obs.masks, minlength=1 << m)  # rows per mask
    starts = np.cumsum(sizes) - sizes
    # squares[e, V]: the ordered pairs of V's rows, for each V avoiding e;
    # offset[e, V]: the position of V's first pair in the enumeration.
    free = (np.arange(1 << m) >> np.arange(m)[:, None] & 1) == 0
    squares = np.where(free, sizes * sizes, 0)
    offset = np.cumsum(squares).reshape(m, -1) - squares

    # First item 0's V = {} diagonal, ratio 1/1 at flat position 0, which
    # stands for every ratio-1 pair of equal conditionals (module docstring).
    best, where = (1, 1), (0, 0, 0)
    for lo, hi in _batches(squares.sum(axis=1)):
        items, rows = np.nonzero(obs.twins[:, lo:hi].T >= 0)
        items += lo
        masks, classes = obs.masks[rows], obs.twins[rows, items]
        # Blocks: the rows of one (item, mask), already in place.
        block = np.ones(len(rows), bool)
        block[1:] = (items[1:] != items[:-1]) | (masks[1:] != masks[:-1])
        # Groups: the rows of one block with one conditional and one key,
        # which value every pair alike (module docstring).  The sort is
        # stable, so a group's first row is its earliest.
        words = ev.union_keys(items, rows)
        order = np.lexsort((*words.T, np.cumsum(block) * len(obs.masks) + classes))
        rows, classes, words = rows[order], classes[order], words[order]
        conditional = block.copy()
        conditional[1:] |= classes[1:] != classes[:-1]
        group = conditional.copy()
        group[1:] |= (words[1:] != words[:-1]).any(axis=1)
        heads = np.flatnonzero(group)
        items, rows, masks = items[heads], rows[heads], masks[heads]
        # Each group pairs with the later groups of its block whose
        # conditional differs: those from the end of its conditional's run on.
        skip = _runs(conditional[heads])
        count = _runs(block[heads]) - skip
        a = np.repeat(np.arange(len(heads)), count)
        if not len(a):
            continue
        b = skip[a] + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
        # Pairs whose contractions are both 0 have ratio 0/0 = 1 both ways.
        kept, da, db = ev.union_dots(items, rows, a, b)
        if not len(kept):
            continue
        a, b = a[kept], b[kept]
        e, v = items[a], masks[a]
        i, j = rows[a] - starts[v], rows[b] - starts[v]
        base = offset[e, v]
        position = np.concatenate([base + i * sizes[v] + j, base + j * sizes[v] + i])
        # (a, b) is T_b d_a / (T_a d_b), and (b, a) its reciprocal.
        forward, backward = obs.totals[rows[b]] * da, obs.totals[rows[a]] * db
        found = _first_min(
            np.concatenate([forward, backward]),
            np.concatenate([backward, forward]),
            position,
        )
        if _below(found, best):
            back, k = divmod(found[0], len(a))
            ra, rb = int(rows[a[k]]), int(rows[b[k]])
            if back:  # the pair's (b, a) orientation
                ra, rb = rb, ra
            best, where = found[1], (int(e[k]), ra, rb)
    examined = int(squares.sum())
    e, a, b = where
    witness = GammaWitness(
        item=instance.items[e],
        observed_items=_names(instance, int(obs.masks[a])),
        observation=_realization_of(instance, ev, a),
        observation_alt=_realization_of(instance, ev, b),
    )
    return _report(best, witness, examined)


def ratio_bound(kappa: float, m: int) -> float:
    """Approximation factor of the two-stage pipeline for the given parameters.

    The paper's factor carries the rounding loss alpha as a multiplier; swap
    rounding on a matroid, the only rounding here, loses nothing in
    expectation, so alpha is 1.  May be negative for small m or small kappa;
    callers interpret negative values as a vacuous guarantee.
    """
    kappa = float(kappa)
    if kappa <= 0:
        raise DegenerateBoundError("bound is undefined for kappa = 0")
    if kappa > 1:
        raise InputError("kappa must lie in (0, 1]; clamp raw values first")
    if m < 1:
        raise InputError("m must be at least 1")
    return (
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
