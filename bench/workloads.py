"""The three benchmark workloads: inputs, the timed work, and output checks.

Every input is a pure function of the workload seed.  The checks use oracles
written here, not the code under test: a direct per-world evaluation of the
coverage utility, local feasibility tests, and exhaustive enumeration of
fixed sets.  Each workload reports one fingerprint per operation so that the
caller can compare passes run in separate processes.

``stosub`` is imported inside the functions that need it, so the parent
process can read the workload plan without loading the program.
"""

from __future__ import annotations

import copy
import contextlib
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("suite", "dense-ascent", "exact-oracles")

# suite: copies of the bundled verification scenarios.
SUITE_COPIES = 3
BUNDLED = Path("src") / "stosub" / "data" / "verification_suite.json"
FLAG_COLUMNS = ("flag_inner", "flag_rounding", "flag_virtual")

# dense-ascent: one cold exact step, warm exact steps, then sampled steps.
DENSE_M, DENSE_STATES, DENSE_WORLDS, DENSE_BLOCK = 12, 3, 32, 3
DENSE_EXACT_STEPS, DENSE_SAMPLED_STEPS = 9, 2
DENSE_DELTA = 0.05
DENSE_CHECK_MASKS = 48

# exact-oracles: (role, generator, m, states, worlds, constraint spec).
ORACLE_CASES = (
    ("independence", "common-cause", 6, 3, 24, None),
    ("product", "product", 6, 2, 0, None),
    ("oracles", "common-cause", 5, 3, 16, ("uniform", 2)),
    ("oracles", "common-cause", 5, 2, 12, ("partition", ((0, 1), (2, 3, 4)), (1, 1))),
    ("oracles", "product", 5, 2, 0, ("uniform", 2)),
)

TOL = 1e-9


def op_count(workload: str, root: Path) -> int:
    """Operations in one pass: scenario rows, ascent steps, or instances."""
    if workload == "suite":
        bundled = json.loads((root / BUNDLED).read_text())["scenarios"]
        return SUITE_COPIES * len(bundled)
    if workload == "dense-ascent":
        return DENSE_EXACT_STEPS + DENSE_SAMPLED_STEPS
    return len(ORACLE_CASES)


# -- shared local oracles ------------------------------------------------


def direct_value(instance, chosen) -> Fraction:
    """E[f(S)] summed world by world from the coverage map, in exact rationals."""
    utility = instance.utility
    weight = dict(zip(utility.targets, utility.weights))
    cover = {pair: set(targets) for pair, targets in utility.coverage}
    total = Fraction(0)
    for realization, prob in instance.distribution.entries:
        states = dict(realization.pairs)
        covered = set()
        for item in chosen:
            covered |= cover[(item, states[item])]
        total += prob * Fraction(sum(weight[t] for t in covered))
    return total


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


# -- suite ---------------------------------------------------------------


def suite_document(seed: int, bundled: list[dict]) -> dict:
    """``SUITE_COPIES`` copies of the bundled scenarios.

    Copy ``k`` uses offset ``seed * SUITE_COPIES + k``.  Offset 0 (the first
    copy at seed 0) is the bundled file verbatim; other offsets shift the
    generator seeds and the rounding seeds and rename the scenario.
    """
    scenarios = []
    for k in range(SUITE_COPIES):
        offset = seed * SUITE_COPIES + k
        for scenario in bundled:
            scenario = copy.deepcopy(scenario)
            if offset:
                scenario["name"] = f"{scenario['name']}~{offset}"
                if "seed" in scenario["instance"]:
                    scenario["instance"]["seed"] += 1000 * offset
                scenario["rounding_base_seed"] = offset * scenario.get(
                    "rounding_seeds", 2000
                )
            scenarios.append(scenario)
    return {"scenarios": scenarios}


def suite_setup(seed: int, root: Path, workdir: Path) -> dict:
    from stosub import harness

    bundled = json.loads((root / BUNDLED).read_text())["scenarios"]
    doc = suite_document(seed, bundled)
    path = workdir / "scenarios.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    parsed = harness.load_scenarios(path)
    if len(parsed) != len(doc["scenarios"]):
        raise RuntimeError("scenario file did not parse to one row per scenario")
    return {"path": path, "out": workdir / "out", "names": [s.name for s in parsed]}


def suite_run(inputs: dict) -> dict:
    import stosub.cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(
        sink
    ), contextlib.redirect_stderr(sink):
        code = stosub.cli.main(
            ["experiment", str(inputs["path"]), "--out-dir", str(inputs["out"])]
        )
    return {"code": code}


def suite_check(inputs: dict, outputs: dict) -> tuple[list[str | None], list[str]]:
    """Each row must carry only pass or vacuous flags."""
    problems = []
    tsv = inputs["out"] / "report.tsv"
    lines = tsv.read_text().splitlines() if tsv.exists() else []
    if outputs["code"] != 0:
        problems.append(f"experiment exited {outputs['code']}")
    header = lines[0].split("\t") if lines else []
    by_name = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        by_name[row.get("name")] = (line, row)
    prints: list[str | None] = []
    for name in inputs["names"]:
        line, row = by_name.get(name, (None, None))
        if outputs["code"] != 0 or row is None:
            prints.append(None)
            continue
        bad = [f"{c}={row.get(c)}" for c in FLAG_COLUMNS
               if row.get(c) not in ("-", "pass", "vacuous")]
        if bad:
            problems.append(f"{name}: {', '.join(bad)}")
            prints.append(None)
        else:
            prints.append(line)
    return prints, problems


def suite_report_bytes(inputs: dict) -> int:
    return sum(path.stat().st_size for path in inputs["out"].glob("report.*"))


# -- dense-ascent --------------------------------------------------------


def dense_setup(seed: int, root: Path, workdir: Path) -> dict:
    from stosub import FractionalPoint, PartitionMatroid, generate_common_cause

    instance = generate_common_cause(DENSE_M, DENSE_STATES, DENSE_WORLDS, seed)
    items = instance.items
    blocks = tuple(items[i:i + DENSE_BLOCK] for i in range(0, DENSE_M, DENSE_BLOCK))
    constraint = PartitionMatroid(blocks=blocks, capacities=(1,) * len(blocks))
    rng = random.Random(f"dense-ascent/{seed}")
    steps = DENSE_EXACT_STEPS + DENSE_SAMPLED_STEPS
    # Every coordinate in (0.05, 0.3): no mask of the 2^m sum is skipped, and
    # a block of three stays below 1 - delta, so each step stays feasible.
    points = [
        FractionalPoint(items, tuple(rng.uniform(0.05, 0.3) for _ in items))
        for _ in range(steps)
    ]
    masks = [0, (1 << DENSE_M) - 1] + [
        rng.getrandbits(DENSE_M) for _ in range(DENSE_CHECK_MASKS - 2)
    ]
    return {
        "seed": seed,
        "instance": instance,
        "constraint": constraint,
        "points": points,
        "masks": masks,
    }


def dense_run(inputs: dict) -> dict:
    import stosub.greedy
    import stosub.multilinear

    exact = stosub.greedy.GreedyConfig(delta=DENSE_DELTA)
    sampled = stosub.greedy.GreedyConfig(
        delta=DENSE_DELTA, weight_mode="sampled", seed=inputs["seed"]
    )
    steps = []
    for k, y in enumerate(inputs["points"]):
        config = exact if k < DENSE_EXACT_STEPS else sampled
        steps.append(
            stosub.greedy.step(
                inputs["instance"], inputs["constraint"], y, k * DENSE_DELTA, config
            )
        )
    value = stosub.multilinear.multilinear_value(inputs["instance"], steps[-1][0])
    return {"steps": steps, "value": value}


def _step_problem(constraint, y, y_next, lp) -> str | None:
    """The move must be ``delta`` times a feasible 0/1 vertex and stay feasible."""
    if y_next.items != y.items:
        return "item order changed"
    vertex = {}
    for item, before, after in zip(y.items, y.values, y_next.values):
        share = (after - before) / DENSE_DELTA
        bit = round(share)
        if bit not in (0, 1) or abs(share - bit) > 1e-6:
            return f"{item} moved by {after - before!r}"
        vertex[item] = bit
    if lp.vertex_set is not None and set(lp.vertex_set) != {
        i for i, b in vertex.items() if b
    }:
        return "LP vertex set disagrees with the move"
    coords = dict(zip(y_next.items, y_next.values))
    for block, cap in zip(constraint.blocks, constraint.capacities):
        if sum(vertex[i] for i in block) > cap:
            return f"vertex exceeds the cap of block {block}"
        if sum(coords[i] for i in block) > cap + TOL:
            return f"point exceeds the cap of block {block}"
    if any(not 0.0 <= v <= 1.0 for v in y_next.values):
        return "coordinate outside [0, 1]"
    return None


def dense_check(inputs: dict, outputs: dict) -> tuple[list[str | None], list[str]]:
    """Per-step feasibility, plus the value table against a direct evaluation."""
    from stosub import expected_set_value

    instance = inputs["instance"]
    problems = []
    for mask in inputs["masks"]:
        chosen = [item for i, item in enumerate(instance.items) if mask >> i & 1]
        table = expected_set_value(instance, chosen)
        direct = float(direct_value(instance, chosen))
        if not _close(table, direct):
            problems.append(f"E[f] of mask {mask:#x}: table {table!r} vs {direct!r}")
    table_ok = not problems
    full = float(direct_value(instance, instance.items))
    prints: list[str | None] = []
    steps = outputs["steps"]
    for k, (y, (y_next, lp)) in enumerate(zip(inputs["points"], steps)):
        problem = _step_problem(inputs["constraint"], y, y_next, lp)
        fingerprint = repr(y_next.values)
        if k == len(steps) - 1:
            value = outputs["value"]
            if not 0.0 <= value <= full + TOL:
                problem = problem or f"multilinear value {value!r} outside [0, {full!r}]"
            fingerprint += f" {value!r}"
        if problem:
            problems.append(f"step {k}: {problem}")
        prints.append(fingerprint if problem is None and table_ok else None)
    return prints, problems


# -- exact-oracles -------------------------------------------------------


def _oracle_constraint(spec, items):
    from stosub import PartitionMatroid, UniformMatroid

    if spec[0] == "uniform":
        return UniformMatroid(rank=spec[1])
    blocks = tuple(tuple(items[i] for i in block) for block in spec[1])
    return PartitionMatroid(blocks=blocks, capacities=spec[2])


def _locally_feasible(spec, mask: int) -> bool:
    if spec[0] == "uniform":
        return bin(mask).count("1") <= spec[1]
    return all(
        sum(mask >> i & 1 for i in block) <= cap
        for block, cap in zip(spec[1], spec[2])
    )


def oracle_setup(seed: int, root: Path, workdir: Path) -> dict:
    from stosub import generate_common_cause, generate_product

    cases = []
    for j, (role, family, m, states, worlds, spec) in enumerate(ORACLE_CASES):
        gen_seed = seed * len(ORACLE_CASES) + j
        if family == "product":
            instance = generate_product(m, states_per_item=states, seed=gen_seed)
        else:
            instance = generate_common_cause(m, states, worlds, gen_seed)
        constraint = _oracle_constraint(spec, instance.items) if spec else None
        cases.append((role, instance, spec, constraint))
    return {"cases": cases}


def oracle_run(inputs: dict) -> dict:
    import stosub.independence
    import stosub.policies

    results = []
    for role, instance, spec, constraint in inputs["cases"]:
        out = {}
        if role != "oracles":
            out["kappa"] = stosub.independence.kappa(instance)
        out["gamma"] = stosub.independence.gamma(instance)
        if role == "oracles":
            policy, opt = stosub.policies.optimal_adaptive(instance, constraint)
            out["opt"] = opt
            out["best_set"], out["best"] = stosub.policies.best_nonadaptive(
                instance, constraint
            )
            out["virtual"] = stosub.policies.virtual_nonadaptive_value(
                instance, constraint, policy
            )
        results.append(out)
    return {"results": results}


def _oracle_problem(role, instance, spec, out) -> str | None:
    gamma = out["gamma"]
    if role == "product":
        if out["kappa"].value != 1 or gamma.value != 1:
            return f"product prior gave kappa={out['kappa'].value}, gamma={gamma.value}"
        return None
    if not 0 <= gamma.clamped <= 1 or gamma.clamped != min(gamma.value, 1):
        return f"gamma clamp {gamma.clamped} of {gamma.value}"
    if role == "independence":
        kappa = out["kappa"]
        if not 0 <= kappa.clamped <= 1 or kappa.clamped != min(kappa.value, 1):
            return f"kappa clamp {kappa.clamped} of {kappa.value}"
        return None
    opt, best, virtual = out["opt"], out["best"], out["virtual"]
    m = instance.m
    exhaustive = max(
        direct_value(instance, [instance.items[i] for i in range(m) if mask >> i & 1])
        for mask in range(1 << m)
        if _locally_feasible(spec, mask)
    )
    if not _close(best, float(exhaustive)):
        return f"best non-adaptive {best!r}, enumeration gives {float(exhaustive)!r}"
    if opt < best - TOL:
        return f"adaptive optimum {opt!r} below best fixed set {best!r}"
    g = float(gamma.clamped)
    if virtual < g / (1 + g) * opt - TOL or virtual > best + TOL:
        return f"virtual value {virtual!r} outside [{g / (1 + g) * opt!r}, {best!r}]"
    return None


def oracle_check(inputs: dict, outputs: dict) -> tuple[list[str | None], list[str]]:
    """Product priors give exactly 1; opt >= best >= virtual >= gamma/(1+gamma) opt."""
    prints: list[str | None] = []
    problems = []
    for j, ((role, instance, spec, _), out) in enumerate(
        zip(inputs["cases"], outputs["results"])
    ):
        problem = _oracle_problem(role, instance, spec, out)
        if problem:
            problems.append(f"case {j} ({role}): {problem}")
            prints.append(None)
            continue
        fields = [str(out["gamma"].value), str(out["gamma"].ratios_examined)]
        if "kappa" in out:
            fields += [str(out["kappa"].value), str(out["kappa"].ratios_examined)]
        if "opt" in out:
            fields += [repr(out["opt"]), repr(out["best"]), repr(out["virtual"]),
                       ",".join(sorted(out["best_set"]))]
        prints.append(" ".join(fields))
    return prints, problems


PLANS = {
    "suite": (suite_setup, suite_run, suite_check),
    "dense-ascent": (dense_setup, dense_run, dense_check),
    "exact-oracles": (oracle_setup, oracle_run, oracle_check),
}
