"""Items, states, joint priors, and submodular utilities over (item, state) pairs.

An :class:`Instance` bundles a ground set of items, a finite state alphabet,
an explicit joint distribution over full state realizations, and a monotone
submodular utility defined on sets of (item, state) pairs.  Probabilities are
exact rationals throughout so that conditioning and the independence
diagnostics can distinguish true zeros from rounding; utility values are
plain floats.

Expected values exposed here (``expected_set_value`` and friends) are
computed in exact rational arithmetic internally and rounded once on the way
out, which makes algebraically equal expectations compare equal as floats.

Each utility kind (``WeightedCoverage``, ``ExplicitTable``) carries its own
behaviour: its JSON form (``to_dict``, and ``from_dict`` through the
``UTILITY_KINDS`` registry), the check that it covers an instance's
(item, state) pairs, and its ``validity`` report, so no other module
branches on the kind.

The value table: entry ``mask`` (bit i for item i) holds E[f(S)] as an
integer numerator N over one denominator D = L * 2**k.  L is the LCD of the
support's probabilities (p_w = a_w / L).  Utility values are floats, hence
dyadic: 2**k times every weight or table value is an integer, and so is
2**k times any left-to-right float sum of weights, because rounding a sum
of nonnegative floats never drops below the finest bit of its terms.  So
N = sum_w a_w * 2**k f_w exactly, in int64 when L * 2**k * max f < 2**63
and in Python ints otherwise; the float view is the correctly rounded N / D,
the float ``float(Fraction(N, D))`` gives.  Coverage sums its weights left
to right in ascending target order, in ``WeightedCoverage.evaluate`` and in
the kernel alike.  The kernel runs world by world, building the covered
targets (or the explicit table's ground-pair index) of all 2**m masks by
doubling over the item bits, so its extra memory is O(2**m) whatever the
support size.  Full tables exist up to ``EXACT_CAP`` items, built on first
use; above it only the requested masks are valued.  ``union_gains`` values
pair sets that are not item masks (the union of two observations, which
gamma needs) through the same codes and scaling, one batch per call, and
``scaled_value`` gives 2**k f of one pair set, so callers that do their own
exact sums over ``worlds`` (the policy oracles) never see the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import (
    CapacityError,
    ConditioningError,
    InputError,
    nonnegative,
    require_field,
    require_list,
    require_object,
)

Pair = tuple[str, str]

EXACT_CAP = 16

# Slack of the monotonicity and submodularity checks: float-built tables
# (modular or budget-additive sums) miss exact equalities by an ulp or so.
VALIDITY_TOL = 1e-12


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    raise InputError(
        f"probabilities must be exact rationals, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class Realization:
    """An assignment of states to items; partial when the domain is a subset."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        items = [item for item, _ in self.pairs]
        if len(set(items)) != len(items):
            raise InputError("realization assigns an item more than once")
        ordered = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", ordered)
        object.__setattr__(self, "_state_map", dict(ordered))

    @classmethod
    def from_dict(cls, assignment: Mapping[str, str]) -> "Realization":
        return cls(tuple(assignment.items()))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(item for item, _ in self.pairs)

    def state_of(self, item: str) -> str:
        try:
            return self._state_map[item]
        except (KeyError, TypeError):
            raise InputError(
                f"item {item!r} not assigned in this realization"
            ) from None

    def restrict(self, items: Iterable[str]) -> "Realization":
        keep = set(items)
        missing = keep - self.domain
        if missing:
            raise InputError(f"cannot restrict to unassigned items {sorted(missing)}")
        return Realization(tuple(p for p in self.pairs if p[0] in keep))

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def consistent_with(self, partial: "Realization") -> bool:
        """True when this realization agrees with ``partial`` on its domain."""
        own = self._state_map
        return all(own.get(item) == state for item, state in partial.pairs)


@dataclass(frozen=True)
class JointDistribution:
    """Explicit support of full realizations with exact rational probabilities."""

    entries: tuple[tuple[Realization, Fraction], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError("distribution support is empty")
        normalized = []
        seen = set()
        domain = self.entries[0][0].domain
        total = Fraction(0)
        for realization, prob in self.entries:
            prob = _as_fraction(prob)
            if prob < 0:
                raise InputError("probabilities must be nonnegative")
            if realization.domain != domain:
                raise InputError("all realizations in a support must share one domain")
            if realization in seen:
                raise InputError(f"duplicate realization {realization.as_dict()}")
            seen.add(realization)
            total += prob
            normalized.append((realization, prob))
        if total != 1:
            raise InputError(f"probabilities sum to {total}, expected exactly 1")
        object.__setattr__(self, "entries", tuple(normalized))

    @property
    def domain(self) -> frozenset[str]:
        return self.entries[0][0].domain

    def support(self) -> tuple[Realization, ...]:
        return tuple(r for r, _ in self.entries)

    def probability_of(self, partial: Realization) -> Fraction:
        """Exact probability that the random realization agrees with ``partial``."""
        return sum(
            (p for r, p in self.entries if r.consistent_with(partial)), Fraction(0)
        )


@dataclass(frozen=True)
class ConditionalDistribution:
    """Marginal of one item's state given a positive-probability partial observation."""

    item: str
    conditioning: Realization
    marginal: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        total = sum((p for _, p in self.marginal), Fraction(0))
        if total != 1:
            raise InputError("conditional marginal must sum to exactly 1")

    def probability(self, state: str) -> Fraction:
        for s, p in self.marginal:
            if s == state:
                return p
        return Fraction(0)


def condition(
    distribution: JointDistribution, item: str, observed: Realization
) -> ConditionalDistribution:
    """Bayes-restrict the support to ``observed`` and marginalize onto ``item``.

    Raises :class:`ConditioningError` when the observation has probability
    zero, which signals an unreachable branch rather than a bad instance.
    """
    if item in observed.domain:
        raise InputError(f"cannot condition {item!r} on an observation of itself")
    if item not in distribution.domain:
        raise InputError(f"unknown item {item!r}")
    weights: dict[str, Fraction] = {}
    total = Fraction(0)
    for realization, prob in distribution.entries:
        if prob == 0 or not realization.consistent_with(observed):
            continue
        state = realization.state_of(item)
        weights[state] = weights.get(state, Fraction(0)) + prob
        total += prob
    if total == 0:
        raise ConditioningError(
            f"observation {observed.as_dict()} has probability zero"
        )
    marginal = tuple(
        (state, weights[state] / total) for state in sorted(weights) if weights[state]
    )
    return ConditionalDistribution(item=item, conditioning=observed, marginal=marginal)


@dataclass(frozen=True)
class UtilityReport:
    monotone: bool
    submodular: bool
    witness: tuple | None
    note: str = ""


def _pair(value, context: str) -> Pair:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, str) for v in value)
    ):
        raise InputError(f"{context} must be an [item, state] pair, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class WeightedCoverage:
    """Weighted coverage utility: each (item, state) covers a subset of targets.

    Monotone and submodular by construction.  ``coverage`` must be total over
    the instance's item/state product when used inside an :class:`Instance`.
    """

    targets: tuple[str, ...]
    weights: tuple[float, ...]
    coverage: tuple[tuple[Pair, tuple[str, ...]], ...]

    kind = "weighted-coverage"

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise InputError("duplicate targets")
        if len(self.weights) != len(self.targets):
            raise InputError("one weight per target required")
        weights = tuple(nonnegative(w, "target weight") for w in self.weights)
        total = 0.0  # summed left to right, as ``_values`` sums them
        for w in weights:
            total += w
        if math.isinf(total):
            raise InputError("target weights must have a finite sum")
        index = {t: i for i, t in enumerate(self.targets)}
        canon = []
        cover: dict[Pair, frozenset[int]] = {}
        for pair, covered in sorted(self.coverage):
            if pair in cover:
                raise InputError(f"duplicate coverage entry for {pair}")
            unknown = [t for t in covered if t not in index]
            if unknown:
                raise InputError(f"coverage of {pair} names unknown targets {unknown}")
            cover[pair] = frozenset(index[t] for t in covered)
            canon.append((pair, tuple(sorted(set(covered)))))
        object.__setattr__(self, "coverage", tuple(canon))
        object.__setattr__(self, "_cover", cover)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def build(
        cls,
        targets: Iterable[str],
        weights: Mapping[str, float],
        coverage: Mapping[Pair, Iterable[str]],
    ) -> "WeightedCoverage":
        targets = tuple(targets)
        return cls(
            targets=targets,
            weights=tuple(weights[t] for t in targets),
            coverage=tuple((pair, tuple(ts)) for pair, ts in coverage.items()),
        )

    def to_dict(self) -> dict:
        coverage: dict[str, dict[str, list[str]]] = {}
        for (item, state), covered in self.coverage:
            coverage.setdefault(item, {})[state] = list(covered)
        return {
            "kind": self.kind,
            "targets": list(self.targets),
            "weights": dict(zip(self.targets, self.weights)),
            "coverage": coverage,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightedCoverage":
        targets = require_list(doc, "targets", "utility", str)
        weights = require_object(doc, "weights", "utility")
        for t in targets:
            nonnegative(require_field(weights, t, "weights"), f"weight of {t!r}")
        coverage_doc = require_object(doc, "coverage", "utility")
        coverage = {}
        for item in coverage_doc:
            by_state = require_object(coverage_doc, item, "utility coverage")
            for state in by_state:
                covered = require_list(by_state, state, f"coverage of {item!r}", str)
                coverage[(item, state)] = tuple(covered)
        return cls.build(targets=tuple(targets), weights=weights, coverage=coverage)

    def check_pairs(self, pairs: set[Pair]):
        """Raise unless the coverage map names every pair in ``pairs``."""
        missing = pairs - {pair for pair, _ in self.coverage}
        if missing:
            raise InputError(
                f"coverage map missing {len(missing)} (item, state) pairs, "
                f"e.g. {sorted(missing)[0]}"
            )

    def validity(self) -> UtilityReport:
        return UtilityReport(
            monotone=True,
            submodular=True,
            witness=None,
            note="weighted coverage is monotone submodular by construction",
        )

    def evaluate(self, pairs: Iterable[Pair]) -> float:
        covered: set[int] = set()
        for pair in pairs:
            try:
                covered |= self._cover[tuple(pair)]
            except KeyError:
                raise InputError(f"unknown (item, state) pair {pair}") from None
        # Left to right in target order, as ``_values`` adds (sum() may compensate).
        total = 0
        for i in sorted(covered):
            total += self.weights[i]
        return total

    def _codes(self, pairs: list[Pair]) -> np.ndarray:
        """One row of covered-target flags per pair; a union is an OR of rows."""
        codes = np.zeros((len(pairs), len(self.targets)), dtype=bool)
        for row, pair in zip(codes, pairs):
            row[list(self._cover[pair])] = True
        return codes

    def _values(self, codes: np.ndarray) -> np.ndarray:
        total = np.zeros(len(codes))
        for t, weight in enumerate(self.weights):
            total += codes[:, t] * weight
        return total

    def _grid(self) -> tuple[float, int]:
        """Largest value any pair set can take, and its dyadic scale exponent."""
        every = self._values(np.ones((1, len(self.targets)), dtype=bool))
        return float(every[0]), _dyadic_shift(self.weights)


@dataclass(frozen=True)
class ExplicitTable:
    """Utility given by an explicit value for every subset of the ground pairs."""

    ground: tuple[Pair, ...]
    entries: tuple[tuple[tuple[Pair, ...], float], ...]

    kind = "explicit-table"

    CONSTRUCTION_CAP = 16

    def __post_init__(self):
        ground = tuple(sorted(set(self.ground)))
        if len(ground) != len(self.ground):
            raise InputError("duplicate ground pairs")
        if len(ground) > self.CONSTRUCTION_CAP:
            raise CapacityError(
                f"explicit tables support at most {self.CONSTRUCTION_CAP} ground pairs"
            )
        object.__setattr__(self, "ground", ground)
        table: dict[frozenset[Pair], float] = {}
        for subset, value in self.entries:
            key = frozenset(tuple(p) for p in subset)
            if not key <= set(ground):
                raise InputError(f"table subset {sorted(key)} outside the ground set")
            if key in table:
                raise InputError(f"duplicate table entry for {sorted(key)}")
            table[key] = nonnegative(value, "table value")
        if len(table) != 1 << len(ground):
            raise InputError(
                f"table must cover all {1 << len(ground)} subsets, got {len(table)}"
            )
        canon = tuple(
            (tuple(sorted(key)), table[key])
            for key in sorted(table, key=lambda k: (len(k), tuple(sorted(k))))
        )
        object.__setattr__(self, "entries", canon)
        bit = {pair: 1 << i for i, pair in enumerate(ground)}
        by_mask = np.zeros(len(table))
        for key, value in table.items():
            by_mask[sum(bit[p] for p in key)] = value
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_mask_cache", by_mask)

    @classmethod
    def from_function(cls, ground: Iterable[Pair], fn) -> "ExplicitTable":
        """Tabulate ``fn`` over every subset of ``ground``.

        ``fn`` receives each subset as a tuple of pairs in sorted order, so a
        ``fn`` that sums floats over it builds the same table in every process.
        """
        ground = tuple(sorted(set(ground)))
        entries = []
        for mask in range(1 << len(ground)):
            subset = tuple(g for i, g in enumerate(ground) if mask >> i & 1)
            entries.append((subset, fn(subset)))
        return cls(ground=ground, entries=tuple(entries))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ground": [list(p) for p in self.ground],
            "table": [
                {"pairs": [list(p) for p in subset], "value": value}
                for subset, value in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplicitTable":
        ground = require_list(doc, "ground", "utility")
        entries = []
        for entry in require_list(doc, "table", "utility", dict):
            pairs = require_list(entry, "pairs", "table entry")
            value = require_field(entry, "value", "table entry")
            value = nonnegative(value, "table value")
            entries.append((tuple(_pair(p, "table pair") for p in pairs), value))
        return cls(
            ground=tuple(_pair(p, "ground pair") for p in ground),
            entries=tuple(entries),
        )

    def check_pairs(self, pairs: set[Pair]):
        """Raise unless the ground set is exactly ``pairs``."""
        if set(self.ground) != pairs:
            raise InputError("table ground set must equal items x states")

    def validity(self) -> UtilityReport:
        """Check every (subset, pair) gain and every (subset, pair, pair) gain
        difference, one numpy pass per pair of ground pairs; the witness is the
        first failure in (subset mask, i, j) order.  ``CONSTRUCTION_CAP``
        bounds the work."""
        n, values = len(self.ground), self._mask_cache
        masks = np.arange(1 << n)
        drops, bends = [], []  # first failing (mask, i) and (mask, i, j) per i, j
        for i in range(n):
            free_i = (masks & 1 << i) == 0
            up = values[masks | 1 << i]
            gain_i = up - values
            drops += [(k, i) for k in _first(free_i & (up < values - VALIDITY_TOL))]
            for j in range(i + 1, n):
                free = free_i & ((masks & 1 << j) == 0)
                bent = gain_i[masks | 1 << j] > gain_i + VALIDITY_TOL
                bends += [(k, i, j) for k in _first(free & bent)]

        def subset(mask: int) -> tuple[Pair, ...]:
            return tuple(p for k, p in enumerate(self.ground) if mask >> k & 1)

        witness = None
        if bends:
            mask, i, j = min(bends)
            witness = (
                "submodular", subset(mask), self.ground[i], self.ground[j],
                float(values[mask | 1 << i] - values[mask]),
                float(values[mask | 1 << j | 1 << i] - values[mask | 1 << j]),
            )
        if drops:
            mask, i = min(drops)
            witness = (
                "monotone", subset(mask), self.ground[i],
                float(values[mask]), float(values[mask | 1 << i]),
            )
        return UtilityReport(monotone=not drops, submodular=not bends, witness=witness)

    def evaluate(self, pairs: Iterable[Pair]) -> float:
        key = frozenset(tuple(p) for p in pairs)
        try:
            return float(self._mask_cache[sum(self._bit[p] for p in key)])
        except KeyError:
            raise InputError(f"pairs {sorted(key)} outside the table's ground set") from None

    def _codes(self, pairs: list[Pair]) -> np.ndarray:
        """The ground-set bit of each pair; a union is an OR of bits."""
        return np.array([self._bit[p] for p in pairs], dtype=np.int64)

    def _values(self, codes: np.ndarray) -> np.ndarray:
        return self._mask_cache[codes]

    def _grid(self) -> tuple[float, int]:
        values = self._mask_cache.tolist()
        return max(values), _dyadic_shift(values)


def _first(flags: np.ndarray) -> list[int]:
    """The index of the first set flag, as a list of zero or one int."""
    return np.flatnonzero(flags)[:1].tolist()


UtilityFunction = Union[WeightedCoverage, ExplicitTable]
UTILITY_KINDS: dict[str, type] = {c.kind: c for c in (WeightedCoverage, ExplicitTable)}


def utility_from_dict(doc: dict) -> UtilityFunction:
    kind = require_field(doc, "kind", "utility")
    cls = UTILITY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown utility kind {kind!r}")
    return cls.from_dict(doc)


def _dyadic_shift(values: Iterable[float]) -> int:
    """Least k >= 0 such that every value times 2**k is an integer."""
    return max((v.as_integer_ratio()[1].bit_length() - 1 for v in values), default=0)


def evaluate(utility: UtilityFunction, pairs: Iterable[Pair]) -> float:
    """Value of a set of (item, state) pairs. Duplicate items union their coverage."""
    return utility.evaluate(pairs)


def validate_utility(utility: UtilityFunction) -> UtilityReport:
    """Monotonicity and submodularity of ``utility``, from its own ``validity``.

    Coverage utilities are monotone submodular by construction.  Explicit
    tables are checked exhaustively, up to ``VALIDITY_TOL``, on every
    (subset, pair) and (subset, pair, pair) combination of their ground set.
    """
    return utility.validity()


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance: items, states, joint prior, and utility."""

    items: tuple[str, ...]
    states: tuple[str, ...]
    distribution: JointDistribution
    utility: UtilityFunction

    def __post_init__(self):
        if not self.items:
            raise InputError("at least one item required")
        if not self.states:
            raise InputError("at least one state required")
        if len(set(self.items)) != len(self.items):
            raise InputError("duplicate items")
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate states")
        item_set, state_set = set(self.items), set(self.states)
        if self.distribution.domain != item_set:
            raise InputError("distribution domain must equal the item set")
        for realization, _ in self.distribution.entries:
            for _, state in realization.pairs:
                if state not in state_set:
                    raise InputError(f"realization uses unknown state {state!r}")
        self.utility.check_pairs({(i, s) for i in self.items for s in self.states})

        for name, names in (("_item_pos", self.items), ("_state_pos", self.states)):
            object.__setattr__(self, name, {n: k for k, n in enumerate(names)})

    @property
    def m(self) -> int:
        return len(self.items)

    def item_index(self, item: str) -> int:
        try:
            return self._item_pos[item]
        except (KeyError, TypeError):
            raise InputError(f"unknown item {item!r}") from None

    def state_index(self, state: str) -> int:
        try:
            return self._state_pos[state]
        except (KeyError, TypeError):
            raise InputError(f"unknown state {state!r}") from None


class _Evaluator:
    """Per-instance exact value tables over item bitmasks (module docstring).
    Table writes are pure functions of their keys, so threads at worst race."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.m = instance.m
        support = [
            (tuple(instance.state_index(r.state_of(i)) for i in instance.items), p)
            for r, p in instance.distribution.entries
        ]
        pairs = [(i, s) for i in instance.items for s in instance.states]
        codes = instance.utility._codes(pairs)
        self._codes = codes.reshape((self.m, len(instance.states)) + codes.shape[1:])
        lcd = math.lcm(*(prob.denominator for _, prob in support))
        # Positive-probability worlds with integer weights a_w = p_w * L.
        self.worlds = [(states, int(p * lcd)) for states, p in support if p]
        top, self._shift = instance.utility._grid()
        self._int64 = lcd * max(1, int(Fraction(top) * (1 << self._shift))) < 1 << 63
        self.denominator = lcd << self._shift
        self._tables: dict = {}

    def _numerators(self, masks: np.ndarray | None, pin=None) -> np.ndarray:
        """Numerators of the given masks (all 2^m in order when None), world by
        world; ``pin`` adds one fixed (item, state) pair to every set."""
        base = np.zeros_like(self._codes[0, 0]) if pin is None else self._codes[pin]
        total = 0
        for states, weight in self.worlds:
            rows = [self._codes[i, s] for i, s in enumerate(states)]
            if masks is None:  # doubling over item bits: mask | 1<<i from mask
                codes = base[None]
                for row in rows:
                    codes = np.concatenate([codes, codes | row])
            else:
                codes = np.repeat(base[None], len(masks), axis=0)
                for i, row in enumerate(rows):
                    codes[(masks >> i) & 1 == 1] |= row
            total = total + weight * self._scaled(codes)
        return total

    def _scaled(self, codes: np.ndarray) -> np.ndarray:
        """2**k times the utility of each pair-set code, as exact integers."""
        values = self.instance.utility._values(codes)
        if self._int64:
            return np.ldexp(values, self._shift).astype(np.int64)
        scale = 1 << self._shift
        scaled = [int(Fraction(v) * scale) for v in values.tolist()]
        return np.array(scaled, dtype=object)

    def _floats(self, numerators: np.ndarray) -> np.ndarray:
        """Correctly rounded ``numerator / denominator``, as float(Fraction) gives."""
        return np.array([n / self.denominator for n in numerators.tolist()])

    def _table(self, pin=None) -> tuple[np.ndarray, np.ndarray]:
        hit = self._tables.get(pin)
        if hit is None:
            numerators = self._numerators(None, pin)
            hit = self._tables[pin] = (numerators, self._floats(numerators))
        return hit

    def values(self, masks: np.ndarray | None = None, pin=None) -> np.ndarray:
        """Float E[f] of each mask, or of every mask in order when None."""
        if self.m <= EXACT_CAP:
            floats = self._table(pin)[1]
            return floats if masks is None else floats[masks]
        return self._floats(self._numerators(masks, pin))

    def union_gains(
        self, item: int, observed: list[int], rows: list[tuple[int, ...]]
    ) -> list[list[int]]:
        """Gains of ``item``'s states on top of the union of two observations.

        Each row assigns a state to each ``observed`` item.  For every two
        rows a < b, in ``itertools.combinations`` order, the result lists
        2**k * (f(A | B | {(item, o)}) - f(A | B)) for each state o, exact
        integers, where A and B are the pair sets of rows a and b.
        """
        codes = np.zeros((len(rows),) + self._codes.shape[2:], self._codes.dtype)
        for j, i in enumerate(observed):
            codes |= self._codes[i][[row[j] for row in rows]]
        first, second = np.triu_indices(len(rows), 1)
        base = codes[first] | codes[second]
        stacked = [base] + [base | pinned for pinned in self._codes[item]]
        scaled = self._scaled(np.concatenate(stacked)).reshape(len(stacked), len(base))
        return (scaled[1:] - scaled[0]).T.tolist()

    def numerator(self, mask: int, pin=None) -> int:
        """E[f] of ``mask`` (plus the pinned pair) times ``denominator``."""
        if self.m <= EXACT_CAP:
            return int(self._table(pin)[0][mask])
        return int(self._numerators(np.array([mask], dtype=object), pin)[0])

    def scaled_value(self, pairs: Iterable[tuple[int, int]]) -> int:
        """2**k times the utility of the (item index, state index) pairs."""
        code = np.zeros_like(self._codes[0, 0])
        for i, s in pairs:
            code |= self._codes[i, s]
        return int(self._scaled(code[None])[0])

    def mask_of(self, items: Iterable[str]) -> int:
        mask = 0
        for item in items:
            mask |= 1 << self.instance.item_index(item)
        return mask


def _evaluator(instance: Instance) -> _Evaluator:
    ev = getattr(instance, "_evaluator_cache", None)
    if ev is None:
        ev = _Evaluator(instance)
        object.__setattr__(instance, "_evaluator_cache", ev)
    return ev


def expected_set_value(instance: Instance, items: Iterable[str]) -> float:
    """Expected utility of picking ``items``, the prior averaging their states."""
    ev = _evaluator(instance)
    return ev.numerator(ev.mask_of(items)) / ev.denominator


def expected_set_value_exact(instance: Instance, items: Iterable[str]) -> Fraction:
    ev = _evaluator(instance)
    return Fraction(ev.numerator(ev.mask_of(items)), ev.denominator)


def marginal(instance: Instance, base: Iterable[str], item: str) -> float:
    """Expected gain of adding ``item`` to the picked set ``base``."""
    ev = _evaluator(instance)
    base_mask = ev.mask_of(base)
    bit = 1 << instance.item_index(item)
    if base_mask & bit:
        raise InputError(f"item {item!r} already in the base set")
    return (ev.numerator(base_mask | bit) - ev.numerator(base_mask)) / ev.denominator


def state_marginal(
    instance: Instance, base: Iterable[str], item: str, state: str
) -> float:
    """Expected gain of adding ``item`` pinned to ``state``, the base still random."""
    ev = _evaluator(instance)
    base_mask = ev.mask_of(base)
    i = instance.item_index(item)
    if base_mask >> i & 1:
        raise InputError(f"item {item!r} already in the base set")
    pin = (i, instance.state_index(state))
    return (ev.numerator(base_mask, pin) - ev.numerator(base_mask)) / ev.denominator
