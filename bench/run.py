"""Benchmark entry point: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Each pass runs in a fresh single-threaded interpreter (``child.py``), because
the value tables are cached per instance inside a process and a repeat in one
process would time a warm table that CLI users never get.  Passes repeat with
the same seed-determined inputs until the next one would overrun
``--seconds``, so every pass after the first also checks that a separate
process reproduces the first pass's outputs exactly.

With ``--trace 0`` the last line reports the end-to-end metrics (medians over
passes).  With ``--trace 1`` passes alternate untraced and traced; the last
line reports the per-layer metrics of the traced passes (medians), and the
span sidecar of the last traced pass is left in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from spans import metric_units  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
MIN_PASSES = 2
CHILD_TIMEOUT_S = 50
HARD_LIMIT_S = 170
SINGLE_THREAD = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def run_pass(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    """Launch one child; a crash or timeout counts every operation as failed."""
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--trace", str(int(traced)),
    ]
    if traced:
        command += ["--sidecar", str(OUT / f"trace-{workload}-s{seed}.json")]
    env = dict(os.environ, TMPDIR=str(workdir.parent))
    env.update({name: "1" for name in SINGLE_THREAD})
    launch = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\npass killed after {CHILD_TIMEOUT_S} s"
    duration = time.monotonic() - launch
    try:
        result = json.loads(out.splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        ops = workloads.op_count(workload, ROOT)
        problem = f"exit code {proc.returncode}: {err.strip()[-2000:]}"
        return {"ok": False, "duration": duration, "traced": traced,
                "prints": [None] * ops, "problems": [problem]}
    result.update(ok=True, duration=duration, traced=traced,
                  setup_s=result["first_call"] - launch)
    return result


def count_failures(passes: list[dict]) -> tuple[int, int]:
    """An operation fails when its check fails or its output differs from pass 0."""
    reference = passes[0]["prints"]
    attempted = failed = 0
    for p in passes:
        for mine, first in zip(p["prints"], reference):
            attempted += 1
            failed += mine is None or mine != first
    return attempted, failed


def describe(values: list[float]) -> str:
    return (f"median of {len(values)} passes; "
            f"min {min(values):.6g}, max {max(values):.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stosub" / "__init__.py").is_file():
        print(f"no stosub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    rundir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    cycle = (False, True) if args.trace else (False,)

    def more() -> bool:
        elapsed = time.monotonic() - started
        if elapsed > HARD_LIMIT_S - CHILD_TIMEOUT_S:
            return False
        if len(passes) < MIN_PASSES:
            return True
        spent = statistics.median(p["duration"] for p in passes) * len(cycle)
        return elapsed + spent <= args.seconds

    try:
        while more():
            for traced in cycle:
                if time.monotonic() - started > HARD_LIMIT_S - CHILD_TIMEOUT_S:
                    break
                workdir = rundir / f"pass{len(passes)}"
                passes.append(run_pass(args.workload, args.seed, workdir, traced))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted, failed = count_failures(passes)
    for index, p in enumerate(passes):
        for problem in p["problems"]:
            print(f"pass {index}: {problem}", file=sys.stderr)
    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["traced"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "git": git_revision(),
        "python": good[0]["python"] if good else sys.version.split()[0],
        "numpy": good[0]["numpy"] if good else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# " + json.dumps(meta, sort_keys=True))
    print(f"# operations: {attempted} attempted, {failed} failed "
          f"(error rate {failed / attempted:.6g})")

    expected = metric_units() if args.trace else END_TO_END
    metrics = {}
    if not args.trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            values = [p[name] for p in plain]
            if values:
                metrics[name] = {"value": statistics.median(values),
                                 "unit": END_TO_END[name]}
                print(f"{name} = {metrics[name]['value']:.6g} {END_TO_END[name]} "
                      f"({describe(values)})")
        metrics["success_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        print(f"success_rate = {metrics['success_rate']['value']:.6g} ratio")
    else:
        traced = [p["layers"] for p in good if p["traced"]]
        for name, unit in expected.items():
            values = [layers[name] for layers in traced]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        if traced and plain:
            overhead = (metrics["trace.wall_s"]["value"]
                        - statistics.median(p["wall_s"] for p in plain))
            metrics["trace.overhead_s"]["value"] = overhead
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")

    summary = {
        "correct": failed == 0 and metrics.keys() == expected.keys(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
