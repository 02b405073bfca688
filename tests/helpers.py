"""Independent brute-force oracles used to check the library's fast paths.

Everything here enumerates directly over item names, the raw support, and
``direct_value``: a coverage value summed in Fractions off the public
``coverage`` and ``weights`` fields, an explicit table's through
``utility.evaluate``.  None of it touches the library's cached evaluators or
bitmask tables, so agreement is meaningful.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from stosub import (
    Estimate,
    ExplicitFamily,
    ExplicitTable,
    GammaWitness,
    IndependenceReport,
    KappaWitness,
    Knapsack,
    PartitionMatroid,
    Realization,
    UniformMatroid,
    UtilityReport,
    WeightedCoverage,
    is_feasible,
)


def table_from_function(ground, fn) -> ExplicitTable:
    """An explicit table of ``fn`` over every subset of ``ground``.

    ``fn`` receives each subset as a tuple of pairs in sorted order, so a
    ``fn`` that sums floats over it builds the same table in every process.
    """
    ground = tuple(sorted(set(ground)))
    entries = []
    for mask in range(1 << len(ground)):
        subset = tuple(g for i, g in enumerate(ground) if mask >> i & 1)
        entries.append((subset, fn(subset)))
    return ExplicitTable(ground=ground, entries=tuple(entries))


def pairs_of(realization, items):
    return [(i, realization.state_of(i)) for i in items]


def direct_value(instance, pair_set) -> Fraction:
    """Exact utility of a set of (item, state) pairs: a coverage utility's
    exact sum of the weights of the targets they cover."""
    utility = instance.utility
    if not isinstance(utility, WeightedCoverage):
        return Fraction(utility.evaluate(pair_set))
    cover = dict(utility.coverage)
    covered = {t for pair in pair_set for t in cover[tuple(pair)]}
    weight = dict(zip(utility.targets, utility.weights))
    return sum((Fraction(weight[t]) for t in covered), Fraction(0))


def direct_set_value(instance, items) -> Fraction:
    """Exact expected value of an item set, straight off the support."""
    total = Fraction(0)
    for realization, prob in instance.distribution.entries:
        total += prob * direct_value(instance, pairs_of(realization, items))
    return total


def direct_state_value(instance, items, item, state) -> Fraction:
    total = Fraction(0)
    for realization, prob in instance.distribution.entries:
        pairs = set(pairs_of(realization, items)) | {(item, state)}
        total += prob * direct_value(instance, pairs)
    return total


def direct_multilinear(instance, coords) -> float:
    """Double enumeration over subsets and the support."""
    total = 0.0
    for r in range(len(instance.items) + 1):
        for subset in itertools.combinations(instance.items, r):
            p = 1.0
            for item in instance.items:
                p *= coords[item] if item in subset else 1.0 - coords[item]
            total += p * float(direct_set_value(instance, subset))
    return total


def direct_conditional(instance, item, observed: dict) -> list:
    """State marginal of ``item`` given an observation, or [] if unreachable."""
    weights: dict = {}
    total = Fraction(0)
    for realization, prob in instance.distribution.entries:
        if prob == 0:
            continue
        if any(realization.state_of(i) != s for i, s in observed.items()):
            continue
        state = realization.state_of(item)
        weights[state] = weights.get(state, Fraction(0)) + prob
        total += prob
    if total == 0:
        return []
    return [(s, w / total) for s, w in sorted(weights.items())]


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _observations(instance, observed_items):
    """Distinct positive-probability observations of the given items."""
    seen = {}
    for realization, prob in instance.distribution.entries:
        if prob == 0:
            continue
        key = tuple((i, realization.state_of(i)) for i in sorted(observed_items))
        seen[key] = seen.get(key, Fraction(0)) + prob
    return [dict(k) for k, p in sorted(seen.items()) if p > 0]


def brute_kappa(instance) -> Fraction:
    """First independence degree by definition-level enumeration."""
    best = None
    for e in instance.items:
        rest = [i for i in instance.items if i != e]
        for base in _subsets(rest):
            num = direct_set_value(instance, set(base) | {e}) - direct_set_value(
                instance, base
            )
            state_gain = {
                s: direct_state_value(instance, base, e, s)
                - direct_set_value(instance, base)
                for s in instance.states
            }
            for observed in _subsets(rest):
                for observation in _observations(instance, observed):
                    cond = direct_conditional(instance, e, observation)
                    den = sum((q * state_gain[s] for s, q in cond), Fraction(0))
                    if den == 0:
                        ratio = Fraction(1) if num == 0 else None
                    else:
                        ratio = num / den
                    if ratio is not None and (best is None or ratio < best):
                        best = ratio
    return best


def brute_gamma(instance) -> Fraction:
    """Second independence degree by definition-level enumeration."""
    best = None
    for e in instance.items:
        rest = [i for i in instance.items if i != e]
        for observed in _subsets(rest):
            observations = _observations(instance, observed)
            for obs_a in observations:
                for obs_b in observations:
                    base = {(i, s) for i, s in obs_a.items()} | {
                        (i, s) for i, s in obs_b.items()
                    }
                    base_value = direct_value(instance, base)
                    gain = {
                        s: direct_value(instance, base | {(e, s)}) - base_value
                        for s in instance.states
                    }
                    num = sum(
                        (q * gain[s] for s, q in direct_conditional(instance, e, obs_a)),
                        Fraction(0),
                    )
                    den = sum(
                        (q * gain[s] for s, q in direct_conditional(instance, e, obs_b)),
                        Fraction(0),
                    )
                    if den == 0:
                        ratio = Fraction(1) if num == 0 else None
                    else:
                        ratio = num / den
                    if ratio is not None and (best is None or ratio < best):
                        best = ratio
    return best


def _ascending_subsets(instance, item):
    """Subsets of the other items, as ascending bitmasks over the item order."""
    items = instance.items
    skip = items.index(item)
    return [
        tuple(i for j, i in enumerate(items) if mask >> j & 1)
        for mask in range(1 << len(items))
        if not mask >> skip & 1
    ]


def indexed_observations(instance, observed_items):
    """Positive-probability observations, ordered by state index in item order."""
    rank = {s: k for k, s in enumerate(instance.states)}
    return sorted(
        _observations(instance, observed_items),
        key=lambda obs: tuple(rank[obs[i]] for i in observed_items),
    )


def loop_twins(masks, weights) -> list[list[int]]:
    """The twins of an observation table from its masks and weight rows, by
    a plain loop: for each row and each item its mask avoids, the first row
    that avoids the item too and gives it the same conditional, compared as
    ``Fraction`` vectors W[i] / T; -1 where the row observes the item."""
    first: dict = {}
    twins = []
    for r, (mask, row) in enumerate(zip(masks, weights)):
        twins.append([])
        for i, counts in enumerate(row):
            if mask >> i & 1:
                twins[-1].append(-1)
                continue
            conditional = tuple(Fraction(c, sum(counts)) for c in counts)
            twins[-1].append(first.setdefault((i, conditional), r))
    return twins


def _fraction_ratio(num: Fraction, den: Fraction):
    if den == 0:
        return Fraction(1) if num == 0 else None
    return num / den


def _conditional_mean(instance, item, observation, gain) -> Fraction:
    return sum(
        (q * gain[s] for s, q in direct_conditional(instance, item, observation)),
        Fraction(0),
    )


def kappa_ratio_at(instance, witness) -> Fraction | None:
    """The kappa ratio at ``witness``, by the definition; None when skipped."""
    e, base = witness.item, tuple(witness.base)
    value = direct_set_value(instance, base)
    gain = {
        s: direct_state_value(instance, base, e, s) - value for s in instance.states
    }
    return _fraction_ratio(
        direct_set_value(instance, base + (e,)) - value,
        _conditional_mean(instance, e, witness.observation.as_dict(), gain),
    )


def gamma_pair_ratio(instance, item, obs_a: dict, obs_b: dict) -> Fraction | None:
    """The gamma ratio of two observations, by the definition, on the gains
    over the union of their pair sets; None when skipped."""
    base = set(obs_a.items()) | set(obs_b.items())
    base_value = direct_value(instance, base)
    gain = {
        s: direct_value(instance, base | {(item, s)}) - base_value
        for s in instance.states
    }
    return _fraction_ratio(
        _conditional_mean(instance, item, obs_a, gain),
        _conditional_mean(instance, item, obs_b, gain),
    )


def _report(best, witness, examined):
    return IndependenceReport(best, min(best, Fraction(1)), witness, examined)


def loop_kappa(instance) -> IndependenceReport:
    """kappa by one Fraction per ratio, in the library's enumeration order.

    Items; then observed sets, their observations, then base sets, each set
    an ascending bitmask and observations by state index.  The witness is the
    first strict minimum and every ratio, skipped or not, is counted.
    """
    best = witness = None
    examined = 0
    for e in instance.items:
        subsets = _ascending_subsets(instance, e)
        pieces = []
        for base in subsets:
            value = direct_set_value(instance, base)
            num = direct_set_value(instance, base + (e,)) - value
            gain = {
                s: direct_state_value(instance, base, e, s) - value
                for s in instance.states
            }
            pieces.append((base, num, gain))
        for observed in subsets:
            for observation in indexed_observations(instance, observed):
                for base, num, gain in pieces:
                    examined += 1
                    ratio = _fraction_ratio(
                        num, _conditional_mean(instance, e, observation, gain)
                    )
                    if ratio is not None and (best is None or ratio < best):
                        best = ratio
                        witness = KappaWitness(
                            e, base, observed, Realization.from_dict(observation)
                        )
    return _report(best, witness, examined)


def loop_gamma(instance) -> IndependenceReport:
    """gamma by one Fraction per ratio, in the library's enumeration order:
    items, observed sets, then ordered pairs of their observations."""
    best = witness = None
    examined = 0
    for e in instance.items:
        for observed in _ascending_subsets(instance, e):
            observations = indexed_observations(instance, observed)
            for obs_a in observations:
                for obs_b in observations:
                    examined += 1
                    if obs_a == obs_b:
                        ratio = Fraction(1)
                    else:
                        ratio = gamma_pair_ratio(instance, e, obs_a, obs_b)
                        if ratio is None:
                            continue
                    if best is None or ratio < best:
                        best = ratio
                        witness = GammaWitness(
                            e,
                            observed,
                            Realization.from_dict(obs_a),
                            Realization.from_dict(obs_b),
                        )
    return _report(best, witness, examined)


def enumerate_rank2_policies(instance, constraint):
    """All decision trees that pick at most two items under the constraint.

    Only meant for tiny instances; used to cross-check the adaptive oracle.
    Yields (value, policy-description) with the value computed directly.
    """
    from stosub import Policy, STOP, pick

    policies = [Policy(root=STOP)]
    for first in instance.items:
        if not is_feasible(constraint, {first}):
            continue
        second_choices = [STOP] + [
            pick(second, {s: STOP for s in instance.states})
            for second in instance.items
            if second != first and is_feasible(constraint, {first, second})
        ]
        for combo in itertools.product(second_choices, repeat=len(instance.states)):
            policies.append(
                Policy(root=pick(first, dict(zip(instance.states, combo))))
            )
    return policies


def direct_picks(policy, realization) -> list:
    """Items the policy picks in one realization, walked by item name."""
    from stosub import Pick

    node = policy.root
    picked = []
    while isinstance(node, Pick):
        picked.append(node.item)
        node = node.child(realization.state_of(node.item))
    return picked


def direct_policy_value(instance, policy) -> Fraction:
    """Evaluate a policy straight off the support without library caches."""
    total = Fraction(0)
    for realization, prob in instance.distribution.entries:
        picked = direct_picks(policy, realization)
        total += prob * direct_value(instance, pairs_of(realization, picked))
    return total


def direct_pick_probabilities(instance, policy) -> dict:
    """Per-item probability of being picked, as exact rationals."""
    probs = {item: Fraction(0) for item in instance.items}
    for realization, prob in instance.distribution.entries:
        if prob:
            for item in direct_picks(policy, realization):
                probs[item] += prob
    return probs


def direct_virtual_value(instance, policy) -> Fraction:
    """The tree steered by one draw, scored by the exact expected value of the
    set it picks there."""
    return sum(
        (
            prob * direct_set_value(instance, direct_picks(policy, realization))
            for realization, prob in instance.distribution.entries
            if prob
        ),
        Fraction(0),
    )


def policy_from_obj(obj):
    """Decode the policy document that ``fileio.policy_to_obj`` writes."""
    from stosub import STOP, Pick, Policy

    def decode(node):
        if node == "stop":
            return STOP
        branches = node["branches"].items()
        return Pick(node["item"], tuple((s, decode(c)) for s, c in branches))

    return Policy(root=decode(obj))


def sequence_feasible(policy, constraint) -> bool:
    """Every prefix of every root-to-leaf pick sequence is a feasible set,
    by listing the sequences."""
    from stosub import Pick

    sequences = []

    def walk(node, prefix):
        if not isinstance(node, Pick) or not node.branches:
            sequences.append(prefix + ((node.item,) if isinstance(node, Pick) else ()))
            return
        for _, child in node.branches:
            walk(child, prefix + (node.item,))

    walk(policy.root, ())
    return all(
        is_feasible(constraint, seq[:n])
        for seq in sequences
        for n in range(1, len(seq) + 1)
    )


def loop_optimal_adaptive(instance, constraint):
    """(policy, value) of the best adaptive policy, by a ``Fraction`` backward
    induction over histories straight off the support and ``direct_value``.

    Histories are keyed by the observed pairs, plus the pick sequence for
    families that are not downward-closed, where the library keys every
    history by its observed pairs alone; the two must agree.  Ties follow
    the library's rules: at an equal value picking beats stopping, and the
    first item in instance order wins among picks.
    """
    from stosub import STOP, Policy, pick

    worlds = [(r, p) for r, p in instance.distribution.entries if p]
    by_sequence = not getattr(constraint, "downward_closed", True)
    memo = {}

    def solve(sequence, observed):
        key = (sequence, observed) if by_sequence else observed
        if key in memo:
            return memo[key]
        matching = [
            (r, p) for r, p in worlds if all(r.state_of(i) == s for i, s in observed)
        ]
        total = sum((p for _, p in matching), Fraction(0))
        best = (direct_value(instance, observed), STOP)
        for e in instance.items:
            if e in sequence or not is_feasible(constraint, set(sequence) | {e}):
                continue
            weights = {}
            for r, p in matching:
                weights[r.state_of(e)] = weights.get(r.state_of(e), Fraction(0)) + p
            value, branches = Fraction(0), {}
            for state, w in sorted(weights.items()):
                child_value, branches[state] = solve(
                    sequence + (e,), observed | {(e, state)}
                )
                value += w / total * child_value
            if value > best[0] or (value == best[0] and best[1] is STOP):
                best = (value, pick(e, branches))
        memo[key] = best
        return best

    value, root = solve((), frozenset())
    return Policy(root=root), float(value)


def lp_vertex_oracle(constraint, weights) -> float:
    """Best objective over explicitly enumerated polytope vertices."""
    items = list(weights)

    def value_of(chosen):
        return sum(weights[i] for i in chosen)

    if isinstance(constraint, (UniformMatroid, PartitionMatroid, ExplicitFamily)):
        best = 0.0
        for subset in _subsets(items):
            if is_feasible(constraint, subset):
                best = max(best, value_of(subset))
        return best
    if isinstance(constraint, Knapsack):
        # Vertices of the box-plus-budget polytope: 0/1 points inside the
        # budget, plus points with one fractional coordinate that make the
        # budget tight.
        best = 0.0
        for subset in _subsets(items):
            cost = sum(constraint.cost_of(i) for i in subset)
            if cost <= constraint.budget:
                best = max(best, value_of(subset))
            for extra in items:
                if extra in subset:
                    continue
                c = constraint.cost_of(extra)
                if c <= 0:
                    continue
                frac = (constraint.budget - cost) / c
                if 0 < frac < 1:
                    best = max(best, value_of(subset) + frac * weights[extra])
        return best
    raise AssertionError(f"no oracle for {constraint!r}")


def _loop_sum(instance, coords, gain, skip=None) -> float:
    """Scalar-loop sum over item masks in ascending order of p(mask) * gain(set).

    ``p`` multiplies one factor per item in item order (leaving out ``skip``),
    terms with ``p == 0`` are dropped, and the total is accumulated left to
    right from 0.0.  This pins the float semantics of the exact kernels.
    """
    items = instance.items
    total = 0.0
    for mask in range(1 << len(items)):
        if skip is not None and mask >> skip & 1:
            continue
        p = 1.0
        for j, item in enumerate(items):
            if j != skip:
                p *= coords[item] if mask >> j & 1 else 1.0 - coords[item]
        if p == 0.0:
            continue
        total += p * gain(frozenset(i for j, i in enumerate(items) if mask >> j & 1))
    return total


def loop_multilinear(instance, coords, value) -> float:
    """``value(set)`` is the float expected value, e.g. ``float(direct_set_value)``."""
    return _loop_sum(instance, coords, value)


def loop_optimistic_weight(instance, coords, item, value) -> float:
    return _loop_sum(
        instance,
        coords,
        lambda s: value(s | {item}) - value(s),
        skip=instance.items.index(item),
    )


def per_item_weight_estimate(instance, x, item, sample_count, seed, stream=()):
    """A per-item optimistic weight sampler: its own draw of ``(seed, stream)``
    at the coordinates with the item's set to 0, one uniform u = j * 2**-53
    per sample and item from the kernel's scalar SplitMix64 output (draw
    r * m + e + 1 for sample r and item e), included when u < x_e as a float
    comparison, and the paired difference of exact ``Fraction`` set values
    (memoised per mask), summarised by the definitions of ``Estimate``: the
    exact mean and the exact standard error, each rounded once."""
    from stosub import Estimate
    from stosub.multilinear import _GAMMA, _MASK, _key, _mix

    items = instance.items
    m = len(items)
    e = items.index(item)
    probs = [x.value_of(i) for i in items]
    probs[e] = 0.0
    key = _key(seed, stream)
    masks = []
    for r in range(sample_count):
        mask = 0
        for j, p in enumerate(probs):
            u = (_mix((key + (r * m + j + 1) * _GAMMA) & _MASK) >> 11) * 2.0**-53
            if u < p:
                mask |= 1 << j
        masks.append(mask)
    memo = {}

    def value(mask):
        if mask not in memo:
            chosen = [i for j, i in enumerate(items) if mask >> j & 1]
            memo[mask] = direct_set_value(instance, chosen)
        return memo[mask]

    gains = [value(k | 1 << e) - value(k) for k in masks]
    n = sample_count
    mean = sum(gains) / n
    variance = sum((g - mean) ** 2 for g in gains) / (n * (n - 1)) if n > 1 else 0
    return Estimate(float(mean), n, math.sqrt(variance))


def loop_validate_utility(utility, tol: float = 1e-12) -> UtilityReport:
    """Monotonicity and submodularity by nested Python loops over
    ``utility.evaluate``; the witness is the first failure in (mask, i, j)
    order, as ``utility.validity()`` reports it."""
    if isinstance(utility, WeightedCoverage):
        return UtilityReport(
            monotone=True,
            submodular=True,
            witness=None,
            note="weighted coverage is monotone submodular by construction",
        )
    pairs = utility.ground
    n = len(pairs)

    def value(mask: int) -> float:
        return utility.evaluate(p for i, p in enumerate(pairs) if mask >> i & 1)

    values = [value(mask) for mask in range(1 << n)]

    def monotone_witness():
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                if values[mask | 1 << i] < values[mask] - tol:
                    return (
                        "monotone",
                        tuple(p for j, p in enumerate(pairs) if mask >> j & 1),
                        pairs[i],
                        values[mask],
                        values[mask | 1 << i],
                    )
        return None

    def submodular_witness():
        # Pairwise diminishing returns characterize submodularity.
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                gain_i = values[mask | 1 << i] - values[mask]
                for j in range(i + 1, n):
                    if mask >> j & 1:
                        continue
                    with_j = mask | 1 << j
                    if values[with_j | 1 << i] - values[with_j] > gain_i + tol:
                        return (
                            "submodular",
                            tuple(p for k, p in enumerate(pairs) if mask >> k & 1),
                            pairs[i],
                            pairs[j],
                            gain_i,
                            values[with_j | 1 << i] - values[with_j],
                        )
        return None

    mono = monotone_witness()
    sub = submodular_witness()
    return UtilityReport(
        monotone=mono is None,
        submodular=sub is None,
        witness=mono if mono is not None else sub,
    )
