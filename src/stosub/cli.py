"""Command-line front end.

Exit codes: 0 success, 1 input or usage error, 2 capacity error, 3 bound
violation under ``experiment --strict``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fileio, harness
from .constraints import Constraint, UniformMatroid
from .errors import CapacityError, InputError, StosubError
from .greedy import WEIGHT_MODES, WEIGHT_VARIANTS, GreedyConfig, format_trajectory, run
from .independence import adaptivity_gap_bound, gamma, kappa
from .model import Instance
from .multilinear import SAMPLE_CAP
from .policies import best_nonadaptive, optimal_adaptive

BUNDLED_SUITE = Path(__file__).parent / "data" / "verification_suite.json"


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value} (~{float(value):.6g})"


def _print_independence(label: str, report):
    print(f"{label} = {_fmt_fraction(report.value)}")
    print(f"ratios examined: {report.ratios_examined}")
    print("witness: " + json.dumps(report.witness.to_dict(), sort_keys=True))


def _load_constraint(instance: Instance, arg: str | None, embedded) -> Constraint:
    if arg is not None:
        try:
            doc = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise InputError(f"--constraint is not valid JSON: {exc}") from exc
        return fileio.constraint_from_dict(doc)
    if embedded is not None:
        return embedded
    return UniformMatroid(rank=instance.m)


def _add_constraint_flag(parser):
    parser.add_argument(
        "--constraint",
        help="constraint as inline JSON, e.g. '{\"kind\": \"uniform\", \"k\": 1}'; "
        "defaults to the instance file's constraint block or a free uniform matroid",
    )


def _cmd_validate(args) -> int:
    instance, _ = fileio.load_instance_and_constraint(args.instance)
    report = instance.utility.validity()
    print(f"items: {instance.m}, states: {len(instance.states)}, "
          f"support: {len(instance.distribution.entries)}")
    print(f"monotone: {report.monotone}, submodular: {report.submodular}")
    if report.note:
        print(report.note)
    if report.witness is not None:
        print(f"witness: {report.witness}")
        return 1
    return 0


def _cmd_independence(args) -> int:
    instance, _ = fileio.load_instance_and_constraint(args.instance)
    _print_independence(args.command, args.measure(instance))
    return 0


def _cmd_greedy(args) -> int:
    instance, embedded = fileio.load_instance_and_constraint(args.instance)
    constraint = _load_constraint(instance, args.constraint, embedded)
    sample_count = "auto" if args.samples is None else args.samples
    config = GreedyConfig(
        delta=args.delta,
        weight_mode=args.mode,
        sample_count=sample_count,
        seed=args.seed,
        weight_variant=args.variant,
    )
    table = format_trajectory(instance, run(instance, constraint, config))
    if args.output:
        fileio.write_text(args.output, table)
    else:
        sys.stdout.write(table)
    return 0


def _cmd_oracle(args) -> int:
    instance, embedded = fileio.load_instance_and_constraint(args.instance)
    constraint = _load_constraint(instance, args.constraint, embedded)
    if args.which == "adaptive":
        policy, value = optimal_adaptive(instance, constraint)
        print(f"optimal adaptive value: {value!r}")
        print(json.dumps(fileio.policy_to_obj(policy), indent=2, sort_keys=True))
    else:
        chosen, value = best_nonadaptive(instance, constraint)
        print(f"best non-adaptive value: {value!r}")
        print(f"set: {sorted(chosen)}")
    return 0


def _cmd_gap(args) -> int:
    instance, embedded = fileio.load_instance_and_constraint(args.instance)
    constraint = _load_constraint(instance, args.constraint, embedded)
    # The oracles check the constraint and the table's cap; print after all ran.
    opt_value, best_fixed, virtual = harness.oracle_values(instance, constraint)
    gamma_report = gamma(instance)
    _print_independence("gamma", gamma_report)
    print(f"optimal adaptive value: {opt_value!r}")
    print(f"best non-adaptive value: {best_fixed!r}")
    print(f"virtual policy value: {virtual!r}")
    if best_fixed > 0:
        print(f"empirical gap: {opt_value / best_fixed!r}")
    g = float(gamma_report.value)
    if g > 0:
        print(f"gap bound: {adaptivity_gap_bound(g)!r}")
    else:
        print("gap bound: undefined (gamma = 0)")
    return 0


def _cmd_generate(args) -> int:
    instance = harness.InstanceSpec(
        generator=args.family, m=args.m, states=args.states, worlds=args.worlds,
        seed=args.seed,
    ).resolve()
    if args.out:
        fileio.save_instance(instance, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(fileio.dumps(fileio.instance_to_dict(instance)))
    return 0


def _cmd_experiment(args) -> int:
    path = BUNDLED_SUITE if args.bundled else args.scenarios
    if path is None:
        raise InputError("experiment needs a scenario file or --bundled")
    scenarios = harness.load_scenarios(path)
    report = harness.run_suite(scenarios, base_dir=Path(path).parent)
    sys.stdout.write(harness.report_to_tsv(report))
    if args.out_dir:
        tsv_path, json_path = harness.write_report(report, args.out_dir)
        print(f"wrote {tsv_path} and {json_path}", file=sys.stderr)
    if args.strict and not report.all_ok:
        print("bound violation in strict mode", file=sys.stderr)
        return 3
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="stosub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file and its utility")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_validate)

    for name, measure in (("kappa", kappa), ("gamma", gamma)):
        p = sub.add_parser(name, help=f"degree of independence ({name} form)")
        p.add_argument("instance")
        p.set_defaults(fn=_cmd_independence, measure=measure)

    p = sub.add_parser("greedy", help="run the continuous greedy ascent")
    default = GreedyConfig()
    p.add_argument("instance")
    _add_constraint_flag(p)
    p.add_argument("--delta", type=float, default=default.delta)
    p.add_argument("--mode", choices=WEIGHT_MODES, default=default.weight_mode)
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--samples", type=int, default=None,
                   help="per-round sample count in sampled mode (default: "
                   f"schedule); samples x items is capped at {SAMPLE_CAP}")
    p.add_argument("--variant", choices=WEIGHT_VARIANTS,
                   default=default.weight_variant)
    p.add_argument("--output", help="write the trajectory table here")
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("oracle", help="exact adaptive or non-adaptive optimum")
    p.add_argument("which", choices=["adaptive", "nonadaptive"])
    p.add_argument("instance")
    _add_constraint_flag(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gap", help="adaptivity-gap diagnostics for an instance")
    p.add_argument("instance")
    _add_constraint_flag(p)
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("generate", help="write a seeded instance")
    spec = harness.InstanceSpec()
    p.add_argument("family", choices=["common-cause", "product"])
    for name in ("m", "states", "worlds", "seed"):
        p.add_argument(f"--{name}", type=int, default=getattr(spec, name))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("experiment", help="run a scenario suite and report")
    p.add_argument("scenarios", nargs="?")
    p.add_argument("--bundled", action="store_true",
                   help="run the packaged verification suite")
    p.add_argument("--out-dir", help="also write report.tsv and report.json here")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any bound flag fails")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except StosubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
