"""Items, states, joint priors, and submodular utilities over (item, state) pairs.

An :class:`Instance` bundles a ground set of items, a finite state alphabet,
an explicit joint distribution over full state realizations, and a monotone
submodular utility defined on sets of (item, state) pairs.  Probabilities are
exact rationals throughout so that the independence diagnostics can
distinguish true zeros from rounding; utility weights and table values are
plain floats.

Expected values exposed here (``expected_set_value`` and its exact twin) are
computed in exact rational arithmetic internally and rounded once on the way
out, which makes algebraically equal expectations compare equal as floats.

Each utility kind (``WeightedCoverage``, ``ExplicitTable``) carries its own
behaviour: its JSON form (``to_dict``, and ``from_dict`` through the
``UTILITY_KINDS`` registry), the check that it covers an instance's
(item, state) pairs, and its ``validity`` report, so no other module
branches on the kind.

The value table: entry ``mask`` (bit i for item i) holds E[f(S)] as an
integer numerator N over one denominator D = L * 2**k, with L = ``lcd`` the
support's LCD (p_w = a_w / L).  Utility values are dyadic: a coverage value
is the exact sum of its covered weights, and 2**k times every weight or
explicit table value is an integer.  So N = sum_w a_w * 2**k f_w exactly,
in int64 when L * 2**k * max f < 2**63 and in Python ints otherwise; the
float view is the correctly rounded N / D, the float ``float(Fraction(N,
D))`` gives (one numpy division when N and D are below 2**53, so both are
exact floats).  The full table comes from one kernel per utility kind,
and ``table()`` builds it once:

- Coverage takes a superset-sum (fast zeta) transform, as in Bjorklund,
  Husfeldt, Kaski and Koivisto, "Fourier meets Mobius: fast subset
  convolution" (STOC 2007).  The utility holds its integer units c_t =
  2**k w_t, summing to C, and the evaluator keeps them in the table's
  dtype; whether it holds them picks the kernel here and for gamma's
  unions below.  Set S leaves target t uncovered in world w exactly when S
  avoids every item whose state in w covers t, so N[S] = L * C minus the
  sum of a_w * c_t over the (w, t) with S inside that complement.  One
  scatter-add of those |support| * #targets terms and one m-step superset
  sum give the table: O(|support| * #targets + m * 2**m) time.
- Explicit tables sum the observation table below: N[S] sums T_r * 2**k
  f(P_r) over the rows r of mask S, P_r the row's pair set.  Their ground
  set, items x states, has at most ``CONSTRUCTION_CAP`` = ``EXACT_CAP``
  pairs, so 2**m * |support| <= (2 * |states|)**m <= 2**EXACT_CAP.

kappa also reads the pair gains G[S, e, o] = N(S + (e, o)) - N(S), which
``pair_gains()`` builds on each call: for coverage, the sum of U[S, t]
over the targets (e, o) covers, U the transform with its target axis
kept; for explicit tables, the sum of T_r * 2**k (f(P_r + (e, o)) -
f(P_r)) over the rows of mask S.

``table`` owns the value table's cap: above ``EXACT_CAP`` items it raises
``CapacityError`` before any work, whoever asks (the float view, kappa,
the fixed-set oracle).  Only there ``numerators`` runs the world kernel,
``_numerators``, on the requested masks: world by world, one ``_scaled``
call on their pair-set codes (covered-target flags for coverage).
``gains`` caches the float table's differences across each item's bit, the
2**(m-1) x m matrix the multilinear weight kernel contracts.

The independence measures weigh states by observation, and the adaptive
oracle's histories are the same observations.  ``observations()`` lists
every positive-probability observation of every item set in one table,
built in one vectorised pass the first time kappa, gamma or the oracle asks
and shared by all three.  It is the one owner of their capacity rule: it
raises ``CapacityError`` before any work when the 2**m * |support| keys it
would sort (|support| counts the positive-probability worlds) exceed
2**EXACT_CAP.  The bound reuses the value table's, so
every instance the table admits (2**m <= 2**m * |support|) has m <=
``EXACT_CAP``, and kappa's pair gains stay below the value table's cap.
Nothing else checks it: an instance whose table would be too large
still gets every value-table read.

A world's key under a mask is a mixed-radix code of the masked items'
states, item 0 most significant, so within a mask the numeric order of the
keys is the sorted order of the state tuples.  One stable sort of each row
of the 2**m x worlds key matrix groups the worlds, and one ``add.reduceat``
sums each group's weight.  The rows run mask-ascending, then key-ascending,
and row r carries:

- its mask, and the index of one world that agrees with it (its first);
- totals[r], the weight T of the worlds that agree with it, int64 when
  L**2 * 2**k * max f < 2**63, so that every ratio product fits, and
  Python ints otherwise;
- children[r, i, o], the row of mask | 1 << i that holds the worlds of row r
  giving item i state o (row r itself when r observes i in state o), or the
  number of rows, one past the last, when no world of r does;
- twins[r, i], the first row whose mask avoids i and whose W[., i] (below)
  is a positive multiple of W[r, i], that is, the first row with the same
  conditional of item i (its class); -1 when row r observes i.  Every free
  (row, item) pair is named by one stable ``lexsort``, by item and then by
  the conditional in lowest terms (``gcd`` chained over the state columns),
  so each class's rows sit together in ascending order behind its first;
- the code of its observed pair set, kept inside the evaluator: every
  world's code under every mask, by doubling over the item bits, read at
  (mask, first world).  ``row_values`` scales them all in one batch.

W[r, i, o], the weight of the worlds of row r that give item i state o,
is T read through ``children`` (0 past the last row), so ``W[r, i].sum()``
is ``totals[r]``; ``Observations.weights`` reads it for requested pairs.

gamma compares two observations of one mask through the gains of an item on
the union of their pair sets, contracted with each one's W.  ``union_keys``
names what those gains read of a row, so that rows of one mask with one
class and one key are interchangeable, and ``union_dots`` gives both
contractions of each requested pair in one batch.  Coverage needs no
union: a gain is an integer sum over the targets neither row covers, and
the key is the targets the item can cover that the row leaves uncovered.
Explicit tables key each row by its whole pair set and value the unions
through ``union_gains``, the codes and the same scaling.  ``scaled_value``
gives 2**k f of one pair set and ``row_values`` that of every row, so the
policy oracles, which do their own exact sums, never see the scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    CapacityError,
    InputError,
    nonnegative,
    require_field,
    require_list,
    require_object,
)

Pair = tuple[str, str]

EXACT_CAP = 16

# Every integer below this is an exact float.
_FLOAT_EXACT = 1 << 53

# Slack of the monotonicity and submodularity checks: float-built tables
# (modular or budget-additive sums) miss exact equalities by an ulp or so.
VALIDITY_TOL = 1e-12

# Slack of every float comparison against a bound: polytope membership, the
# ascent certificate, the optimal-value upper bound and the report flags.
EXACT_TOL = 1e-9


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

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)


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

    f(S) is the exact sum of the weights of the targets S covers, so f is
    monotone and submodular by construction.  Each weight is a dyadic float,
    so with k = ``_dyadic_shift(weights)`` the integer units c_t = 2**k w_t
    give f(S) = sum c_t / 2**k, and ``evaluate`` returns its correctly
    rounded float.  ``coverage`` must be total over the instance's item/state
    product when used inside an :class:`Instance`.
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
        # From the exact ratios: 2**k overflows a float at k = 1074.
        shift = _dyadic_shift(weights)
        units = tuple(
            n * (1 << shift) // d for n, d in map(float.as_integer_ratio, weights)
        )
        if sum(units) > int(sys.float_info.max) << shift:
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
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_units", units)

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
        # Integer true division rounds the exact quotient once.
        return sum(self._units[t] for t in covered) / (1 << self._shift)

    def _codes(self, pairs: list[Pair]) -> np.ndarray:
        """One row of covered-target flags per pair; a union is an OR of rows."""
        codes = np.zeros((len(pairs), len(self.targets)), dtype=bool)
        for row, pair in zip(codes, pairs):
            row[list(self._cover[pair])] = True
        return codes

    def _grid(self) -> tuple[int, int]:
        """2**k times the largest value any pair set can take, and k."""
        return sum(self._units), self._shift


@dataclass(frozen=True)
class ExplicitTable:
    """Utility given by an explicit value for every subset of the ground pairs."""

    ground: tuple[Pair, ...]
    entries: tuple[tuple[tuple[Pair, ...], float], ...]

    kind = "explicit-table"

    # No target units to transform: the evaluator sums observation rows.
    _units = None

    # At most 2**EXACT_CAP observation keys, whatever the prior (``model``).
    CONSTRUCTION_CAP = EXACT_CAP

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

    def _grid(self) -> tuple[int, int]:
        values = self._mask_cache.tolist()
        shift = _dyadic_shift(values)
        return int(Fraction(max(values)) * (1 << shift)), shift


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


class Observations(NamedTuple):
    """The evaluator's observation table (module docstring), one row per
    observation: ``masks``, ``worlds`` and ``totals`` have shape (rows,),
    ``children`` (rows, items, states), and ``twins`` (rows, items)."""

    masks: np.ndarray
    worlds: np.ndarray
    totals: np.ndarray
    twins: np.ndarray
    children: np.ndarray

    def weights(self, rows: np.ndarray, items: np.ndarray) -> np.ndarray:
        """W of each (row, item), the rows and items broadcast together:
        its states' weights, T read through ``children``."""
        return np.append(self.totals, 0)[self.children[rows, items]]


class _Evaluator:
    """Per-instance exact value tables over item bitmasks (module docstring).
    Table writes are pure functions of their keys, so threads at worst race."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.m = instance.m
        support = [
            (tuple(instance._state_pos[r._state_map[i]] for i in instance.items), p)
            for r, p in instance.distribution.entries
        ]
        pairs = [(i, s) for i in instance.items for s in instance.states]
        codes = instance.utility._codes(pairs)
        self._codes = codes.reshape((self.m, len(instance.states)) + codes.shape[1:])
        # L, the support's LCD: the worlds' integer weights a_w = p_w * L sum
        # to it exactly, because the probabilities sum to exactly 1.
        self.lcd = lcd = math.lcm(*(prob.denominator for _, prob in support))
        self.worlds = [
            (s, p.numerator * (lcd // p.denominator)) for s, p in support if p
        ]
        top, self._shift = instance.utility._grid()
        scaled_top = max(1, top)
        self._int64 = lcd * scaled_top < 1 << 63
        self.denominator = lcd << self._shift
        # The dtype rule of the observation weights (``_observe``).
        self._ratio_int64 = lcd * lcd * scaled_top < 1 << 63
        # A coverage utility's units c_t = 2**k w_t in the table's dtype, None
        # for an explicit table: the kernel choice of ``_scaled``, ``table``,
        # ``pair_gains``, ``union_keys`` and ``union_dots``.
        units = instance.utility._units
        self._units = None
        if units is not None:
            self._units = np.array(units, np.int64 if self._int64 else object)
        self._numerator_table = None
        self._float_table = None
        self._observations = None
        self._row_codes = None
        self._row_words = None
        self._gains = None

    def _states(self) -> np.ndarray:
        """The state index of every item in every world, one row per world."""
        return np.array([s for s, _ in self.worlds], dtype=np.intp).reshape(-1, self.m)

    def _numerators(self, masks: np.ndarray) -> np.ndarray:
        """Numerators of the given masks, world by world, with one
        ``_scaled`` call per world: the kernel above ``EXACT_CAP``."""
        zero = np.zeros_like(self._codes[0, 0])
        total = 0
        for states, weight in self.worlds:
            codes = np.repeat(zero[None], len(masks), axis=0)
            for i, s in enumerate(states):
                codes[(masks >> i) & 1 == 1] |= self._codes[i, s]
            total = total + weight * self._scaled(codes)
        return total

    def _transform(self, by_target: bool) -> np.ndarray:
        """Entry S sums a_w c_t over the (world, target) pairs in which S
        leaves t uncovered, that is, lies inside M, the items whose state in
        w misses t: one scatter-add at M and one superset sum.  One column
        per target when ``by_target``.  Every partial sum is at most L C, so
        the int64 rule of ``__init__`` holds throughout."""
        m, states, units = self.m, self._states(), self._units
        a = np.array([weight for _, weight in self.worlds], units.dtype)
        free = 0  # M of each (world, target): bit i when item i's state misses t
        for i in range(m):
            free = free | (~self._codes[i, states[:, i]]).astype(np.int64) << i
        targets = (len(units),) if by_target else ()
        sums = np.zeros((1 << m, *targets), units.dtype)
        index = (free, np.arange(len(units))) if by_target else free
        np.add.at(sums, index, a[:, None] * units)
        for i in range(m):  # superset sums, one item bit at a time
            halves = sums.reshape(1 << (m - 1 - i), 2, 1 << i, *targets)
            halves[:, 0] += halves[:, 1]
        return sums

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per mask, in mask order, the sum of T_r * values[r] over the
        observation rows r of that mask; values[r] may be an array."""
        obs = self.observations()
        terms = (obs.totals.astype(values.dtype) * values.T).T
        starts = np.searchsorted(obs.masks, np.arange(1 << self.m))
        return np.add.reduceat(terms, starts)

    def _scaled(self, codes: np.ndarray) -> np.ndarray:
        """2**k times the utility of each pair-set code, as exact integers: a
        coverage code's product with the units, else the scaled table value."""
        if self._units is not None:
            return codes @ self._units
        values = self.instance.utility._values(codes)
        if self._int64:
            return np.ldexp(values, self._shift).astype(np.int64)
        scale = 1 << self._shift
        scaled = [int(Fraction(v) * scale) for v in values.tolist()]
        return np.array(scaled, dtype=object)

    def _floats(self, numerators: np.ndarray) -> np.ndarray:
        """Correctly rounded ``numerator / denominator``, as float(Fraction) gives.
        When both are below 2**53 they are exact floats, and one float division
        rounds their quotient correctly too."""
        if (
            self.denominator < _FLOAT_EXACT
            and numerators.dtype == np.int64
            and (np.abs(numerators) < _FLOAT_EXACT).all()
        ):
            return numerators / float(self.denominator)
        return np.array([n / self.denominator for n in numerators.tolist()])

    def table(self) -> np.ndarray:
        """Numerators of every mask, in mask order, built once (module
        docstring), or a ``CapacityError`` before any work above
        ``EXACT_CAP`` items."""
        if self._numerator_table is None:
            if self.m > EXACT_CAP:
                raise CapacityError(
                    f"exact enumeration over {self.m} items exceeds the cap {EXACT_CAP}"
                )
            if self._units is None:
                self._numerator_table = self._row_sums(self.row_values())
            else:
                self._numerator_table = (
                    self.lcd * int(self._units.sum()) - self._transform(False)
                )
        return self._numerator_table

    def pair_gains(self) -> np.ndarray:
        """G[S, e, o] = N(S + (e, o)) - N(S), exact, of shape (2**m, items,
        states), built on each call (module docstring).  kappa reads it
        after the observation table, whose cap bounds m."""
        shape = (1 << self.m, *self._codes.shape[:2])
        if self._units is None:
            values, pairs = self.row_values(), self._codes.ravel()
            grown = self._scaled((self._row_codes[:, None] | pairs).ravel())
            gains = grown.reshape(len(values), len(pairs)) - values[:, None]
            return self._row_sums(gains).reshape(shape)
        # One row of covered-target flags per pair, in the units' dtype.
        covered = self._codes.reshape(shape[1] * shape[2], len(self._units))
        gains = self._transform(True) @ covered.T.astype(self._units.dtype)
        return gains.reshape(shape)

    def values(self) -> np.ndarray:
        """Float E[f] of every mask, the full table in mask order."""
        if self._float_table is None:
            self._float_table = self._floats(self.table())
        return self._float_table

    def numerators(self, masks: np.ndarray) -> np.ndarray:
        """Numerators N of an array of masks, exact (module docstring)."""
        if self.m <= EXACT_CAP:
            return self.table()[masks]
        return self._numerators(masks.ravel()).reshape(masks.shape)

    def gains(self) -> np.ndarray:
        """The 2**(m-1) x m gain matrix, built once: column e lists the float
        f(S + e) - f(S) over the masks S without bit e, in ascending order of
        the mask with bit e taken out (the table split by bit e)."""
        if self._gains is None:
            table = self.values()
            self._gains = np.empty((len(table) // 2, self.m))
            for e in range(self.m):
                halves = table.reshape(-1, 2, 1 << e)
                self._gains[:, e] = (halves[:, 1] - halves[:, 0]).ravel()
        return self._gains

    def observations(self) -> Observations:
        """Every positive-probability observation of every item set, in one
        table built on first use (see the module docstring), or a
        ``CapacityError`` before any work when its 2**m * |support| keys
        exceed 2**EXACT_CAP.  The weights are int64 or Python ints by the
        ratio rule in ``__init__``, so products with them are exact."""
        if self._observations is None:
            support = len(self.worlds)
            if support << self.m > 1 << EXACT_CAP:
                raise CapacityError(
                    f"the observation table over {self.m} items and a support "
                    f"of {support} needs {support << self.m} keys, above the "
                    f"cap {1 << EXACT_CAP}"
                )
            self._observations, self._row_codes = self._observe()
        return self._observations

    def _observe(self) -> tuple[Observations, np.ndarray]:
        """The observation table, and the pair-set code of each row."""
        m, radix, states = self.m, len(self.instance.states), self._states()
        # Mixed-radix keys with item 0 most significant: within one mask their
        # numeric order is the order of the observed state tuples.
        dtype = np.int64 if radix**m < 1 << 63 else object
        place = np.array([radix ** (m - 1 - i) for i in range(m)], dtype)
        bits = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(dtype)
        keys = bits @ (states * place).T
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        fresh = np.ones(keys.shape, dtype=bool)
        fresh[:, 1:] = keys[:, 1:] != keys[:, :-1]
        # The row of each sorted (mask, world), put back in world order.
        rows = np.empty(keys.shape, np.intp)
        np.put_along_axis(rows, order, np.cumsum(fresh).reshape(keys.shape) - 1, 1)
        starts = np.flatnonzero(fresh)
        order = order.ravel()
        masks, worlds = starts // len(states), order[starts]
        # Row r's worlds that give item i state o make up one row of mask |
        # 1 << i (row r itself when r observes i), so W is T read through
        # these children, and T sums a_w over each row's worlds.  A ratio
        # multiplies a sum of weights (at most L) by a difference of
        # numerators (at most L * 2**k * top), so they are int64 only when
        # L**2 * 2**k * top < 2**63.
        children = np.full((len(masks), m, radix), len(masks))
        for i in range(m):
            children[rows, i, states[:, i]] = rows[np.arange(len(rows)) | 1 << i]
        a = np.array(
            [weight for _, weight in self.worlds],
            np.int64 if self._ratio_int64 else object,
        )
        totals = np.add.reduceat(a[order], starts)
        twins = np.full((len(masks), m), -1)
        table = Observations(masks, worlds, totals, twins, children)

        # A free (row, item) pair's conditional, in lowest terms, names it
        # among the rows that leave the item free.  One stable sort of every
        # free pair by (item, conditional), listed item by item with rows
        # ascending, puts each name's rows together, its first row at the head.
        items, named = np.nonzero((masks[:, None] >> np.arange(m) & 1).T == 0)
        conditionals = table.weights(named, items)
        divisor = conditionals[:, 0]
        for o in range(1, radix):
            divisor = np.gcd(divisor, conditionals[:, o])
        conditionals = conditionals // divisor[:, None]
        sort = np.lexsort((*conditionals.T, items))
        items, named, conditionals = items[sort], named[sort], conditionals[sort]
        heads = np.ones(len(sort), dtype=bool)
        heads[1:] = (items[1:] != items[:-1]) | (
            conditionals[1:] != conditionals[:-1]
        ).any(axis=1)
        twins[named, items] = named[heads][np.cumsum(heads) - 1]
        # Every world's pair-set code under every mask, by doubling over the
        # item bits, read at each row's first world.
        codes = np.zeros((1, len(states)) + self._codes.shape[2:], self._codes.dtype)
        for i in range(m):
            codes = np.concatenate([codes, codes | self._codes[i, states[:, i]]])
        return table, codes[masks, worlds]

    def row_values(self) -> np.ndarray:
        """2**k times the utility of each observation row's pair set, exact
        integers: int64 when L * 2**k * max f < 2**63, as the value table."""
        self.observations()
        return self._scaled(self._row_codes)

    def union_gains(
        self, items: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Gains of each item's states on top of the union of two observations.

        ``a`` and ``b`` index rows of ``observations()``.  Row r lists 2**k *
        (f(A | B | {(items[r], o)}) - f(A | B)) for each state o, exact
        integers, where A and B are the pair sets of observations a[r] and
        b[r].  Every pair is valued in one batch.
        """
        self.observations()
        base = self._row_codes[a] | self._row_codes[b]
        pins = self._codes[items]
        states = pins.shape[1]
        stacked = np.concatenate([base] + [base | pins[:, o] for o in range(states)])
        scaled = self._scaled(stacked).reshape(1 + states, len(base))
        return (scaled[1:] - scaled[0]).T

    def union_keys(self, items: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Words naming, for each (item, observation row), all that the item's
        union gains read of the row's pair set.

        Two rows of one mask with equal words have equal gains on top of
        their union with any third row.  For coverage (``union_dots``) that
        is the set of targets the item can cover and the row leaves
        uncovered; for an explicit table it is the whole pair-set code.  The
        codes are packed into words once, on first use.
        """
        if self._row_words is None:
            self.observations()
            self._row_words = _words(self._row_codes)
        words = self._row_words[rows]
        if self._units is not None:
            words = ~words & _words(self._codes.any(axis=1))[items]
        return words

    def union_dots(
        self, items: np.ndarray, rows: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs of observations with a nonzero contraction, and their
        contractions (W_a[e] . g, W_b[e] . g), exact integers.

        ``items`` and ``rows`` list (item, observation row) groups, and pair
        p joins groups a[p] and b[p], two rows of one mask that avoids their
        common item e; g lists 2**k times e's gains on their union and W is
        the observation weights.  The first array indexes the pairs kept,
        in order; every other pair has both contractions 0.

        Coverage needs no union: with c_t = 2**k w_t, g_o sums c_t over the
        targets state o of e covers and neither row does, in integers.  It
        vanishes unless the rows' ``union_keys`` meet, and few pairs' do, so
        only those are valued.  Explicit tables value the unions through
        ``union_gains``.  Each contraction is at
        most L * 2**k * max f, so under the int64 rule of the observation
        weights it fits, and so does its product with a row weight.
        """
        weights = self.observations().weights(rows, items)
        kept = np.arange(len(a))
        if self._units is None:
            gains = self.union_gains(items[a], rows[a], rows[b])
        else:
            keys = self.union_keys(items, rows)
            kept = np.flatnonzero((keys[a] & keys[b]).any(axis=1))
            a, b = a[kept], b[kept]
            neither = ~(self._row_codes[rows[a]] | self._row_codes[rows[b]])
            gains = np.einsum(
                "pt,pst->ps", self._units * neither, self._codes[items[a]]
            )
        da, db = (np.einsum("ps,ps->p", weights[x], gains) for x in (a, b))
        live = (da != 0) | (db != 0)
        return kept[live], da[live], db[live]

    def numerator(self, mask: int) -> int:
        """E[f] of ``mask`` times ``denominator``."""
        if self.m <= EXACT_CAP:
            return int(self.table()[mask])
        return int(self.numerators(np.array([mask], dtype=object))[0])

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


def _words(codes: np.ndarray) -> np.ndarray:
    """Pair-set codes as rows of integer words that are equal exactly when
    the codes are: an explicit table's bitmask as it is, coverage flags
    packed eight to a byte and eight bytes to a word."""
    if codes.ndim == 1:
        return codes[:, None]
    packed = np.packbits(codes, axis=-1)
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


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

