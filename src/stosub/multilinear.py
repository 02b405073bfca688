"""Multilinear extension of the expected set value, exact and sampled.

The extension of a set function w is sum over subsets S of w(S) times the
probability that an independent inclusion draw with the given coordinates
produces exactly S.  Below the exact cap everything is enumerated; the
evaluator's full table owns that cap, and a read above it is a
``CapacityError`` before any table is built.  The sampled estimators exist
for larger ground sets and for exercising the estimation path of the ascent
algorithm.

All expected set values come from the model module's exact tables, so an
indicator vector reproduces ``expected_set_value`` bit for bit.  The exact
kernels contract that table with numpy in a scalar loop's float order: a
mask's coordinate factors multiply in item order, and terms add left to
right from 0.0 in mask order (``np.sum`` would pair them up instead).
``optimistic_weights`` gives every item's weight from one contraction of
the evaluator's cached gain matrix (column e: the table split by bit e)
with one inclusion-probability column per item (x without x_e), summed down
the columns in that same order; ``optimistic_weight`` reads entry e of it.

The sampled weights share one inclusion draw.  ``optimistic_weight_estimates``
draws n masks at x once and estimates every item e from that draw: clearing
bit e in every mask gives exactly the draw at x with x_e = 0 (a uniform is
never below 0), and each sample is the paired difference f(S + e) - f(S).
The one-item ``optimistic_weight_estimate`` reads entry e of those.
The ascent's guarantee bounds each estimate separately (a Chernoff bound)
and then takes a union bound over items and rounds, which needs no
independence between the items' estimates, so common draws keep it.  One
draw holds at most ``SAMPLE_CAP`` uniforms (n times m) over at most 63
items (a drawn set is one int64 mask); a larger request is a
``CapacityError`` before anything is drawn.

A sampled estimate never sums floats.  The draw is reduced to its distinct
masks u and their counts c (``np.bincount`` up to the evaluator's
``EXACT_CAP``, where a 2^m count array is small, ``np.unique`` above it),
and each sample's value is read once per distinct mask as an exact integer
numerator g(u) = D * value, with D the evaluator's denominator: N(u | e) -
N(u - e) for an item's weight, N(u) for the multilinear value.  The moments
s1 = sum c g and s2 = sum c g^2 are exact (int64 while n * max g^2 < 2^63,
Python ints beyond).  The mean is s1 / (n D), one correctly rounded integer
division, and the standard error sqrt((n s2 - s1^2) / (n^2 (n - 1) D^2)),
its radicand rounded once from the exact fraction; it is 0.0 exactly when
n s2 = s1^2, that is, when every sample is equal, n = 1 included.

Every random draw of the package, here and in swap rounding, comes from one
counter-based generator (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011) built on SplitMix64 (Steele, Lea and Flood, OOPSLA 2014).
:func:`_key` chains the seed, the stream's length and each stream element,
each spelled as its count of 64-bit limbs and then the limbs, through the
SplitMix64 output function :func:`_mix`; the spelling is unambiguous, so
distinct ``(seed, stream)`` pairs get unrelated 64-bit keys.  Draw i (from 1)
of a key is ``j = _mix(key + i * gamma) >> 11``, the uniform j * 2**-53, which
is output i of SplitMix64 started at the key.  Draws are thus a pure function
of ``(seed, stream)`` and of i alone, whatever block they are computed in.
Two streams share a state only if their keys differ by k * gamma modulo
2**64 with |k| below the draw lengths; gamma is odd, so each k names one
difference, and for unrelated keys and draws within ``SAMPLE_CAP`` that is
a chance of about 2**-38.

Item e of sample r is draw r * m + e + 1, and it is included when
j < ceil(x_e * 2**53); x_e * 2**53 is an exact float, so this integer test
is exactly j * 2**-53 < x_e.  The draw runs in blocks of ``_BLOCK``
uniforms, which keeps its temporaries cache-sized and its peak below 10
bytes per uniform; the blocks cannot show in the result.  Swap rounding
takes its draws one at a time from :func:`_draw`, the same formula on a
Python int.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, InputError, integer
from .model import EXACT_CAP, EXACT_TOL, Instance, _evaluator


# Uniforms in one inclusion draw (samples times items).  The draw runs in
# blocks of _BLOCK uniforms, so only its int64 masks, one per sample, grow
# with it: it peaks below 10 bytes per uniform, under 320 MiB at the cap.
SAMPLE_CAP = 1 << 25
_BLOCK = 1 << 14

# Items in one inclusion draw: each drawn set is an int64 mask, bit e for
# item e, so bit 63 would wrap to the sign.
_MASK_BITS = 63

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, 2**64 / golden ratio


@dataclass(frozen=True)
class FractionalPoint:
    """A vector in [0,1]^m keyed by item name."""

    items: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.items)) != len(self.items):
            raise InputError("duplicate items in fractional point")
        if len(self.items) != len(self.values):
            raise InputError("one coordinate per item required")
        cleaned = []
        for item, v in zip(self.items, self.values):
            v = float(v)
            if not math.isfinite(v) or v < -EXACT_TOL or v > 1 + EXACT_TOL:
                raise InputError(f"coordinate {item}={v} outside [0, 1]")
            cleaned.append(min(1.0, max(0.0, v)))
        object.__setattr__(self, "values", tuple(cleaned))
        object.__setattr__(self, "_pos", {it: i for i, it in enumerate(self.items)})

    @classmethod
    def from_dict(cls, coords: Mapping[str, float]) -> "FractionalPoint":
        return cls(tuple(coords), tuple(coords.values()))

    @classmethod
    def zeros(cls, items: Iterable[str]) -> "FractionalPoint":
        items = tuple(items)
        return cls(items, (0.0,) * len(items))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.items, self.values))

    def value_of(self, item: str) -> float:
        try:
            return self.values[self._pos[item]]
        except (KeyError, TypeError):
            raise InputError(f"unknown item {item!r}") from None


@dataclass(frozen=True)
class Estimate:
    """A sample mean with its standard error, over ``sample_count`` samples
    v_1..v_n: ``mean`` is the exact mean (sum v_r) / n, rounded once, and
    ``std_error`` the square root of the exact sum (v_r - mean)^2 / (n (n - 1)),
    rounded once before the root (module docstring); it is 0.0 exactly when
    every sample is equal."""

    mean: float
    sample_count: int
    std_error: float


def _aligned(instance: Instance, x: FractionalPoint) -> list[float]:
    if set(x.items) != set(instance.items):
        raise InputError("fractional point items do not match the instance")
    coords = x.as_dict()
    return [coords[item] for item in instance.items]


def _inclusion_probabilities(coords) -> np.ndarray:
    """Probability of each mask over the coordinates along axis 0, for each
    further index; doubling in place multiplies each mask's factors in
    coordinate order, as a loop would."""
    shape = np.shape(coords)
    p = np.empty((1 << shape[0],) + shape[1:])
    p[0] = 1.0
    for k, x in enumerate(coords):
        low = p[: 1 << k]
        np.multiply(low, x, out=p[1 << k : 2 << k])
        low *= 1.0 - x
    return p


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """``0.0 + t0 + t1 + ...`` down each column, left to right, as a scalar
    loop adds (``np.sum`` and matmul would pair the terms up).  Overwrites
    ``terms``."""
    return 0.0 + np.add.accumulate(terms, axis=0, out=terms)[-1]


def multilinear_value(instance: Instance, x: FractionalPoint) -> float:
    """Exact multilinear extension value at ``x``."""
    table = _evaluator(instance).values()
    return float(_column_sums(_inclusion_probabilities(_aligned(instance, x)) * table))


def optimistic_weights(instance: Instance, x: FractionalPoint) -> tuple[float, ...]:
    """Every item's exact optimistic weight, in item order, from one
    contraction.  Column e of the evaluator's gain matrix lists f(S + e) -
    f(S) over the masks S without bit e; its inclusion probabilities come
    from x without x_e, so each column multiplies its factors in item order."""
    xv = np.array(_aligned(instance, x))
    gains = _evaluator(instance).gains()
    rest = np.arange(instance.m - 1)[:, None]
    coords = xv[rest + (rest >= np.arange(instance.m))]  # x without x_e
    terms = _inclusion_probabilities(coords)
    terms *= gains
    return tuple(_column_sums(terms).tolist())


def optimistic_weight(instance: Instance, x: FractionalPoint, item: str) -> float:
    """Expected marginal of ``item`` over a draw that excludes its own coordinate.

    Equals the standard marginal weight at the point with the item's
    coordinate zeroed, and never falls below the standard weight.
    """
    e = instance.item_index(item)
    return optimistic_weights(instance, x)[e]


def standard_weight(instance: Instance, x: FractionalPoint, item: str) -> float:
    """Expected marginal of ``item`` over an inclusion draw at ``x``.

    Computed as (1 - x_e) times the optimistic weight, which is an exact
    identity of the two enumerations.
    """
    return optimistic_weight(instance, x, item) * (1.0 - x.value_of(item))


def estimation_sample_count(delta: float, m: int) -> int:
    """Number of samples per round the estimation schedule prescribes for step
    size delta; one draw of that many sets serves every item's estimate."""
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not (
        0 < delta <= 1
    ):
        raise InputError(f"delta must lie in (0, 1], got {delta!r}")
    m = integer(m, "m", least=1)
    return math.ceil(10.0 / delta**2 * (1.0 + math.log(m)))


def _mix(z):
    """The SplitMix64 output function, a bijection of [0, 2**64).  Its
    operators work alike on a Python int, reduced modulo 2**64 after each
    product, and on a uint64 array, which wraps and is mixed in place."""
    wide = isinstance(z, int)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    if wide:
        z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    if wide:
        z &= _MASK
    z ^= z >> 31
    return z


def _limbs(n: int) -> list[int]:
    limbs = [n & _MASK]
    while n := n >> 64:
        limbs.append(n & _MASK)
    return [len(limbs), *limbs]


def _key(seed: int, stream: tuple[int, ...]) -> int:
    """The key of the draws of ``(seed, stream)`` (module docstring); every
    draw starts here."""
    if not isinstance(stream, tuple):
        raise InputError(f"stream must be a tuple of integers, got {stream!r}")
    words = [*_limbs(integer(seed, "seed")), len(stream)]
    for element in stream:
        words += _limbs(integer(element, "stream element"))
    key = 0
    for word in words:
        key = _mix((key + word + _GAMMA) & _MASK)
    return key


def _draw(key: int, i: int) -> int:
    """Draw ``i`` (from 1) of ``key`` as the int j, the uniform j * 2**-53."""
    return _mix((key + i * _GAMMA) & _MASK) >> 11


def _sample_masks(xv: list[float], n: int, seed: int, stream: tuple) -> np.ndarray:
    """``n`` inclusion masks at coordinates ``xv`` from ``(seed, stream)``,
    drawn a block at a time (module docstring).  Each block's states are
    the first block's plus its offset times gamma."""
    key = _key(seed, stream)
    m = len(xv)
    if m > _MASK_BITS:
        raise CapacityError(
            f"sampled draws over {m} items exceed the cap {_MASK_BITS}: "
            "each drawn set is one int64 mask"
        )
    if n * m > SAMPLE_CAP:
        raise CapacityError(
            f"{n} samples over {m} items need {n * m} uniform draws, "
            f"above the cap {SAMPLE_CAP}"
        )
    limits = np.ceil(np.asarray(xv) * 2.0**53).astype(np.uint64)
    weights = 1 << np.arange(m, dtype=np.int64)
    rows = max(1, _BLOCK // m)
    first = np.arange(1, min(rows, n) * m + 1, dtype=np.uint64)
    first *= _GAMMA
    first += key
    masks = np.empty(n, dtype=np.int64)
    for start in range(0, n, rows):
        offset = np.uint64(start * m * _GAMMA & _MASK)
        j = _mix(first[: min(rows, n - start) * m] + offset)
        j >>= 11
        masks[start : start + rows] = (j.reshape(-1, m) < limits) @ weights
    return masks


def _histogram(masks: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct masks of a draw over m items, ascending, and their counts."""
    if m > EXACT_CAP:
        return np.unique(masks, return_counts=True)
    counts = np.bincount(masks)
    distinct = np.flatnonzero(counts)
    return distinct, counts[distinct]


def _estimate(gains: np.ndarray, counts: np.ndarray, denominator: int) -> Estimate:
    """The estimate of samples with numerator ``gains[k]`` drawn ``counts[k]``
    times, from exact integer moments (module docstring)."""
    n = int(counts.sum())
    if gains.dtype == np.int64 and n * int(np.abs(gains).max()) ** 2 < 1 << 63:
        s1, s2 = int(counts @ gains), int(counts @ (gains * gains))
    else:
        pairs = list(zip(counts.tolist(), gains.tolist()))
        s1 = sum(c * g for c, g in pairs)
        s2 = sum(c * g * g for c, g in pairs)
    spread = n * s2 - s1 * s1
    if spread:
        std_error = math.sqrt(Fraction(spread, n * n * (n - 1) * denominator**2))
    else:
        std_error = 0.0
    return Estimate(mean=s1 / (n * denominator), sample_count=n, std_error=std_error)


def multilinear_estimate(
    instance: Instance,
    x: FractionalPoint,
    sample_count: int,
    seed: int,
    stream: tuple[int, ...] = (),
) -> Estimate:
    """Monte-Carlo estimate of the multilinear value via independent draws."""
    sample_count = integer(sample_count, "sample_count", least=1)
    masks = _sample_masks(_aligned(instance, x), sample_count, seed, stream)
    distinct, counts = _histogram(masks, instance.m)
    ev = _evaluator(instance)
    return _estimate(ev.numerators(distinct), counts, ev.denominator)


def optimistic_weight_estimates(
    instance: Instance,
    x: FractionalPoint,
    sample_count: int,
    seed: int,
    stream: tuple[int, ...] = (),
) -> tuple[Estimate, ...]:
    """Paired Monte-Carlo estimates of every item's optimistic weight, in item
    order, all from one draw of ``sample_count`` sets (module docstring).

    Each sample differences the value of a drawn set with and without the
    item, which keeps each estimator unbiased at lower variance than two
    independent value estimates.
    """
    sample_count = integer(sample_count, "sample_count", least=1)
    ev = _evaluator(instance)
    masks = _sample_masks(_aligned(instance, x), sample_count, seed, stream)
    distinct, counts = _histogram(masks, instance.m)
    estimates = []
    for bit in (1 << e for e in range(instance.m)):
        # distinct & ~bit is the draw at x with the item's coordinate zeroed.
        with_e, without = ev.numerators(np.stack([distinct | bit, distinct & ~bit]))
        estimates.append(_estimate(with_e - without, counts, ev.denominator))
    return tuple(estimates)


def optimistic_weight_estimate(
    instance: Instance,
    x: FractionalPoint,
    item: str,
    sample_count: int,
    seed: int,
    stream: tuple[int, ...] = (),
) -> Estimate:
    """Paired Monte-Carlo estimate of one item's optimistic weight; the draws
    equal those of a draw at x with the item's coordinate zeroed."""
    e = instance.item_index(item)
    return optimistic_weight_estimates(instance, x, sample_count, seed, stream)[e]
