"""Optimistic continuous greedy: ascend the constraint polytope in 1/delta rounds.

Each round computes a weight per item (the optimistic marginal by default,
the standard one for comparison runs), solves the linear maximization over
the polytope, and moves the fractional point a delta step toward the LP
vertex.  Weights come from exact enumeration or from seeded Monte-Carlo
estimates; either way a run is a pure function of (instance, constraint,
config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .constraints import Constraint, LPSolution, is_feasible, lp_maximize
from .errors import ConfigurationError, InputError, StosubError
from .model import Instance
from .multilinear import (
    FractionalPoint,
    estimation_sample_count,
    multilinear_value,
    optimistic_weight,
    optimistic_weight_estimate,
)

WEIGHT_MODES = ("exact", "sampled")
WEIGHT_VARIANTS = ("optimistic", "standard")


@dataclass(frozen=True)
class GreedyConfig:
    """Run parameters for the ascent.

    ``sample_count`` may be the sentinel "auto", which resolves to the
    schedule count for the configured step size.  The conservative default
    step 0.05 keeps desk-scale runs exact and fast; callers wanting the
    published schedule can use :func:`faithful_config`.
    """

    delta: float = 0.05
    weight_mode: str = "exact"
    sample_count: Union[int, str] = "auto"
    seed: int = 0
    weight_variant: str = "optimistic"

    def __post_init__(self):
        if not 0 < self.delta <= 1:
            raise ConfigurationError(f"delta must lie in (0, 1], got {self.delta}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.weight_variant not in WEIGHT_VARIANTS:
            raise ConfigurationError(f"weight_variant must be one of {WEIGHT_VARIANTS}")
        if isinstance(self.sample_count, str):
            if self.sample_count != "auto":
                raise ConfigurationError(
                    "sample_count must be a positive integer or 'auto'"
                )
        elif self.sample_count < 1:
            raise ConfigurationError("sample_count must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")

    @property
    def rounds(self) -> int:
        return max(1, round(1.0 / self.delta))

    def resolved_sample_count(self, m: int) -> int:
        if self.sample_count == "auto":
            return estimation_sample_count(self.delta, m)
        return int(self.sample_count)


def faithful_config(m: int, seed: int = 0) -> GreedyConfig:
    """Sampled-mode config with the schedule's own step size 1/(9 m^2)."""
    return GreedyConfig(
        delta=1.0 / (9 * m * m), weight_mode="sampled", sample_count="auto", seed=seed
    )


@dataclass(frozen=True)
class RoundRecord:
    t: float
    step: float
    point: FractionalPoint
    weights: tuple[float, ...]
    lp: LPSolution


@dataclass(frozen=True)
class Trajectory:
    rounds: tuple[RoundRecord, ...]
    final: FractionalPoint
    config: GreedyConfig


def _round(
    instance: Instance,
    constraint: Constraint,
    y: FractionalPoint,
    t: float,
    config: GreedyConfig,
) -> tuple[RoundRecord, FractionalPoint]:
    """One round at time ``t``: its record and the point it moves ``y`` to.

    The final round's step is 1 - t, so the steps of a full sweep sum to
    exactly 1 even when 1/delta is not an integer.
    """
    round_index = int(round(t / config.delta))
    d = 1.0 - t if round_index >= config.rounds - 1 else config.delta
    if d <= 0 or t + d > 1.0 + 1e-12:
        raise InputError(f"round at t={t} would overshoot the time horizon")
    weights = []
    for j, item in enumerate(instance.items):
        if config.weight_mode == "exact":
            w = optimistic_weight(instance, y, item)
        else:
            n = config.resolved_sample_count(instance.m)
            w = optimistic_weight_estimate(
                instance, y, item, n, config.seed, stream=(round_index, j)
            ).mean
        if config.weight_variant == "standard":  # the standard_weight identity
            w *= 1.0 - y.value_of(item)
        if not math.isfinite(w):
            raise StosubError(f"non-finite weight for item {item!r}")
        weights.append(w)
    lp = lp_maximize(constraint, dict(zip(instance.items, weights)))
    moved = [
        min(1.0, v + d * lp.point.value_of(item))
        for item, v in zip(y.items, y.values)
    ]
    record = RoundRecord(t=t, step=d, point=y, weights=tuple(weights), lp=lp)
    return record, FractionalPoint(y.items, tuple(moved))


def step(
    instance: Instance,
    constraint: Constraint,
    y: FractionalPoint,
    t: float,
    config: GreedyConfig,
) -> tuple[FractionalPoint, LPSolution]:
    """One round at time ``t``, on the same step schedule :func:`run` uses."""
    record, moved = _round(instance, constraint, y, t, config)
    return moved, record.lp


def run(instance: Instance, constraint: Constraint, config: GreedyConfig) -> Trajectory:
    """Full ascent from the all-zero point; records every round."""
    y = FractionalPoint.zeros(instance.items)
    t = 0.0
    records = []
    for _ in range(config.rounds):
        record, y = _round(instance, constraint, y, t, config)
        records.append(record)
        t += record.step
    return Trajectory(rounds=tuple(records), final=y, config=config)


@dataclass(frozen=True)
class CertificateRound:
    t: float
    gain: float
    required: float
    holds: bool


@dataclass(frozen=True)
class CertificateReport:
    """Per-round ascent lower bounds; violations are expected in sampled mode."""

    rounds: tuple[CertificateRound, ...]
    violations: int
    sampled: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0


def lower_bound_certificate(
    instance: Instance,
    constraint: Constraint,
    trajectory: Trajectory,
    optimal_value: float,
    kappa,
    tol: float = 1e-9,
) -> CertificateReport:
    """Evaluate the per-round ascent inequality along a trajectory.

    Each round's multilinear gain must be at least
    ``(1 - t - d) * d * kappa * ((1 - (kappa + 2) m d / kappa) opt - value(y))``
    with ``t`` the round's start time and ``d`` its step.  The right side can
    be negative, in which case the round holds trivially.
    """
    kappa = float(kappa)
    if kappa <= 0:
        raise StosubError("certificate is undefined for kappa = 0")
    for record in trajectory.rounds:
        if record.lp.vertex_set is not None and not is_feasible(
            constraint, record.lp.vertex_set
        ):
            raise InputError("trajectory contains an infeasible LP vertex")
    m = instance.m
    points = [r.point for r in trajectory.rounds] + [trajectory.final]
    values = [multilinear_value(instance, p) for p in points]
    rounds = []
    violations = 0
    for record, value, next_value in zip(trajectory.rounds, values, values[1:]):
        d = record.step
        gain = next_value - value
        required = (
            (1.0 - record.t - d)
            * d
            * kappa
            * ((1.0 - (kappa + 2.0) * m * d / kappa) * optimal_value - value)
        )
        holds = gain >= required - tol
        if not holds:
            violations += 1
        rounds.append(
            CertificateRound(t=record.t, gain=gain, required=required, holds=holds)
        )
    return CertificateReport(
        rounds=tuple(rounds),
        violations=violations,
        sampled=trajectory.config.weight_mode == "sampled",
    )


def format_trajectory(
    instance: Instance, trajectory: Trajectory, include_value: bool = True
) -> str:
    """Tab-separated table, one row per round plus the final point."""
    header = (
        ["t"]
        + [f"y:{item}" for item in instance.items]
        + [f"w:{item}" for item in instance.items]
        + ["lp_objective"]
    )
    if include_value:
        header.append("value")
    lines = ["\t".join(header)]
    for record in trajectory.rounds:
        row = (
            [repr(record.t)]
            + [repr(v) for v in record.point.values]
            + [repr(w) for w in record.weights]
            + [repr(record.lp.objective)]
        )
        if include_value:
            row.append(repr(multilinear_value(instance, record.point)))
        lines.append("\t".join(row))
    final_row = (
        ["1.0"]
        + [repr(v) for v in trajectory.final.values]
        + ["-"] * instance.m
        + ["-"]
    )
    if include_value:
        final_row.append(repr(multilinear_value(instance, trajectory.final)))
    lines.append("\t".join(final_row))
    return "\n".join(lines) + "\n"
