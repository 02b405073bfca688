"""One benchmark pass in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout.  Set-up (interpreter
start, ``import stosub``, input generation, scenario parsing) ends at the
monotonic stamp ``first_call``; ``wall_s`` runs from the first call into
``stosub`` to the last result.  Output checks run after the timed work and,
in a traced pass, after the wrappers are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sidecar", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import stosub
    import stosub.cli  # noqa: F401  (the CLI, harness and fileio layers)

    if Path(stosub.__file__).resolve().parent != ROOT / "src" / "stosub":
        print(f"imported stosub from {stosub.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import workloads
    from spans import Recorder

    setup, run, check = workloads.PLANS[args.workload]
    recorder = Recorder() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    with recorder.installed() if recorder else contextlib.nullcontext():
        inputs = setup(args.seed, ROOT, args.workdir)
        first_call = time.monotonic()
        start = time.perf_counter()
        outputs = run(inputs)
        end = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prints, problems = check(inputs, outputs)

    result = {
        "first_call": first_call,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "prints": prints,
        "problems": problems,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if recorder:
        layers = recorder.summary(start, end)
        if args.workload == "suite":
            layers["fileio.report_bytes"] = workloads.suite_report_bytes(inputs)
        result["layers"] = layers
        if args.sidecar:
            recorder.write_sidecar(args.sidecar, start, end)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing a large value table takes longer
    # than the checks, and nothing is left to flush or close.
    os._exit(code)
