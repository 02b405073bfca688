"""Experiment orchestration: scenarios, the end-to-end pipeline, and reports.

A scenario names an instance source (a file or a seeded generator spec), a
constraint, an ascent config, and an experiment kind.  The pipeline computes
the independence measures, runs the ascent and the matroid rounding, queries
the exact adaptive and non-adaptive oracles, and checks the bound flags
against oracle values.

The rounding flag is decided exactly: ``rounded_mean`` is the mean of the
exact swap-rounding distribution (:func:`rounding.exact_distribution`),
rounded to a float once.  ``rounded_se`` is always 0.0; the column stays
only so that the report layout does not change.

Reports are reproducible byte for byte from (scenario file, seeds): rows
keep declaration order, floats use shortest-round-trip repr, and wall-clock
timings deliberately stay out of the report artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from . import fileio
from .constraints import Constraint, alpha_for
from .errors import InputError, nonnegative
from .generators import common_cause_2, generate_common_cause, generate_product
from .greedy import GreedyConfig, lower_bound_certificate, run
from .independence import (
    adaptivity_gap_bound,
    gamma,
    kappa,
    ratio_bound,
)
from .model import Instance, expected_set_value_exact
from .multilinear import multilinear_value
from .policies import (
    best_nonadaptive,
    optimal_adaptive,
    virtual_nonadaptive_value,
)
from .rounding import exact_distribution

EXPERIMENT_KINDS = (
    "ratio-check",
    "adaptivity-gap",
    "independence-profile",
    "certificate",
)

EXACT_TOL = 1e-9


@dataclass(frozen=True)
class InstanceSpec:
    """Where a scenario's instance comes from; generators are seed-determined."""

    generator: str | None = None
    path: str | None = None
    m: int = 2
    states: int = 2
    worlds: int = 2
    seed: int = 0

    def resolve(self, base_dir: Path | None = None) -> Instance:
        if (self.generator is None) == (self.path is None):
            raise InputError("instance spec needs exactly one of generator or path")
        if self.path is not None:
            path = Path(self.path)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return fileio.load_instance(path)
        if self.generator == "common-cause-2":
            return common_cause_2()
        if self.generator == "common-cause":
            return generate_common_cause(self.m, self.states, self.worlds, self.seed)
        if self.generator == "product":
            return generate_product(
                self.m, states_per_item=self.states, seed=self.seed
            )
        raise InputError(f"unknown generator {self.generator!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    instance: InstanceSpec
    constraint: Constraint
    greedy: GreedyConfig = field(default_factory=GreedyConfig)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InputError(f"experiment kind must be one of {EXPERIMENT_KINDS}")


@dataclass(frozen=True)
class ReportRow:
    name: str
    kind: str
    m: int
    kappa_raw: str | None = None
    kappa: float | None = None
    gamma_raw: str | None = None
    gamma: float | None = None
    opt_adaptive: float | None = None
    best_nonadaptive: float | None = None
    fractional_value: float | None = None
    rounded_mean: float | None = None
    rounded_se: float | None = None
    bound_inner: float | None = None
    alpha: float | None = None
    virtual_value: float | None = None
    flag_inner: str | None = None
    flag_rounding: str | None = None
    flag_virtual: str | None = None
    notes: str = ""

    @property
    def all_flags_ok(self) -> bool:
        return all(
            f in (None, "pass", "vacuous")
            for f in (self.flag_inner, self.flag_rounding, self.flag_virtual)
        )


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.all_flags_ok for row in self.rows)


def oracle_values(instance: Instance, constraint: Constraint) -> tuple:
    """Optimal adaptive, best non-adaptive and virtual non-adaptive values."""
    policy, opt = optimal_adaptive(instance, constraint)
    _, best = best_nonadaptive(instance, constraint)
    return opt, best, virtual_nonadaptive_value(instance, constraint, policy)


def run_pipeline(scenario: Scenario, base_dir: Path | None = None) -> ReportRow:
    """Execute one scenario end to end; stage failures land in ``notes``."""
    instance = scenario.instance.resolve(base_dir)
    row: dict = {"name": scenario.name, "kind": scenario.kind, "m": instance.m}
    notes: list[str] = []

    kappa_report, gamma_report = kappa(instance), gamma(instance)
    kappa_clamped = float(kappa_report.clamped)
    gamma_clamped = float(gamma_report.clamped)
    row.update(
        kappa_raw=str(kappa_report.value),
        kappa=kappa_clamped,
        gamma_raw=str(gamma_report.value),
        gamma=gamma_clamped,
    )
    if scenario.kind == "independence-profile":
        return ReportRow(**row, notes=";".join(notes))

    opt_value, best_fixed, virtual = oracle_values(instance, scenario.constraint)
    row.update(
        opt_adaptive=opt_value, best_nonadaptive=best_fixed, virtual_value=virtual
    )
    threshold = gamma_clamped / (1.0 + gamma_clamped) if gamma_clamped > 0 else 0.0
    row["flag_virtual"] = (
        "pass" if virtual >= threshold * opt_value - EXACT_TOL else "fail"
    )

    if scenario.kind == "adaptivity-gap":
        if gamma_clamped > 0:
            notes.append(f"gap_bound={adaptivity_gap_bound(gamma_clamped)!r}")
        else:
            notes.append("gap bound undefined (gamma = 0)")
        return ReportRow(**row, notes=";".join(notes))

    trajectory = run(instance, scenario.constraint, scenario.greedy)
    fractional = multilinear_value(instance, trajectory.final)
    row["fractional_value"] = fractional

    if scenario.kind == "certificate":
        certificate = lower_bound_certificate(
            instance, scenario.constraint, trajectory, opt_value, kappa_clamped
        )
        row["flag_inner"] = "pass" if certificate.ok else (
            "vacuous" if certificate.sampled else "fail"
        )
        notes.append(f"certificate_rounds={len(certificate.rounds)}")
        if certificate.sampled and certificate.violations:
            notes.append(f"sampled_violations={certificate.violations}")
        return ReportRow(**row, notes=";".join(notes))

    # ratio-check: inner bound, rounding bound, and the virtual-policy bound.
    if kappa_clamped <= 0:
        row["flag_inner"] = "vacuous"
        notes.append("degenerate kappa")
        inner = None
    else:
        inner = ratio_bound(kappa_clamped, instance.m, alpha=1.0)
        row["bound_inner"] = inner
        if inner <= 0:
            row["flag_inner"] = "vacuous"
        else:
            row["flag_inner"] = (
                "pass"
                if fractional >= inner * opt_value - EXACT_TOL
                else "fail"
            )

    if scenario.constraint.rounding_groups(instance.items) is not None:
        alpha = alpha_for(scenario.constraint)
        row["alpha"] = alpha
        mean = float(sum(
            weight * expected_set_value_exact(instance, chosen)
            for chosen, weight in exact_distribution(
                instance, scenario.constraint, trajectory.final
            )
        ))
        row.update(rounded_mean=mean, rounded_se=0.0)
        if inner is None or inner <= 0:
            row["flag_rounding"] = "vacuous"
        else:
            row["flag_rounding"] = (
                "pass" if mean >= alpha * inner * opt_value - EXACT_TOL else "fail"
            )
    else:
        notes.append("no rounding scheme for this constraint kind")

    return ReportRow(**row, notes=";".join(notes))


def run_suite(scenarios: list[Scenario], base_dir: Path | None = None) -> Report:
    return Report(rows=tuple(run_pipeline(s, base_dir) for s in scenarios))


TSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _cell(value) -> str:
    if value is None or value == "":
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_tsv(report: Report) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for row in report.rows:
        lines.append("\t".join(_cell(getattr(row, col)) for col in TSV_COLUMNS))
    return "\n".join(lines) + "\n"


def report_to_dict(report: Report) -> dict:
    return {
        "rows": [
            {col: getattr(row, col) for col in TSV_COLUMNS} for row in report.rows
        ]
    }


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise InputError(f"a scenario must be an object, got {doc!r}")
    context = f"scenario {doc.get('name')!r}"

    def number(mapping: dict, key: str, default, whole: bool = True):
        return nonnegative(mapping.get(key, default), f"{context} field {key!r}", whole)

    instance_doc = doc.get("instance")
    if not isinstance(instance_doc, dict):
        raise InputError(f"{context} needs an instance spec")
    path = instance_doc.get("path")
    if path is not None and not isinstance(path, str):
        raise InputError(f"{context} field 'path' must be a string, got {path!r}")
    spec = InstanceSpec(
        generator=instance_doc.get("generator"),
        path=path,
        m=number(instance_doc, "m", 2),
        states=number(instance_doc, "states", 2),
        worlds=number(instance_doc, "worlds", 2),
        seed=number(instance_doc, "seed", 0),
    )
    greedy_doc = doc.get("greedy", {})
    if not isinstance(greedy_doc, dict):
        raise InputError(f"{context} field 'greedy' must be an object")
    sample_count = greedy_doc.get("sample_count", "auto")
    if sample_count != "auto":
        sample_count = number(greedy_doc, "sample_count", None)
    config = GreedyConfig(
        delta=number(greedy_doc, "delta", 0.05, whole=False),
        weight_mode=greedy_doc.get("weight_mode", "exact"),
        sample_count=sample_count,
        seed=number(greedy_doc, "seed", 0),
        weight_variant=greedy_doc.get("weight_variant", "optimistic"),
    )
    constraint_doc = doc.get("constraint")
    if constraint_doc is None:
        raise InputError(f"{context} needs a constraint")
    return Scenario(
        name=str(doc.get("name", "unnamed")),
        kind=str(doc.get("kind", "ratio-check")),
        instance=spec,
        constraint=fileio.constraint_from_dict(constraint_doc),
        greedy=config,
    )


def load_scenarios(path: str | Path) -> list[Scenario]:
    doc = fileio.load_document(path)
    rows = doc.get("scenarios")
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{path} must contain a non-empty 'scenarios' list")
    return [scenario_from_dict(row) for row in rows]


def write_report(report: Report, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    tsv_path = out / "report.tsv"
    json_path = out / "report.json"
    fileio.write_text(tsv_path, report_to_tsv(report), parents=True)
    fileio.write_text(json_path, fileio.dumps(report_to_dict(report)))
    return tsv_path, json_path
