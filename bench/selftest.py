"""Tests of the benchmark itself: ``python3 -m pytest -q bench/selftest.py``.

They run the benchmark's own processes, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def _material(inputs: dict) -> dict:
    """Inputs with written files replaced by their bytes and scratch paths dropped."""
    out = {}
    for key, value in inputs.items():
        if isinstance(value, Path):
            if value.is_file():
                out[key] = value.read_bytes()
        else:
            out[key] = value
    return out


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    for name, (setup, _, _) in workloads.PLANS.items():
        made = {}
        for label, seed in (("a", 3), ("b", 3), ("c", 4)):
            workdir = tmp_path / f"{name}-{label}"
            workdir.mkdir()
            made[label] = _material(setup(seed, ROOT, workdir))
        assert made["a"] == made["b"], name
        assert made["a"] != made["c"], name


def test_suite_seed_zero_starts_with_the_bundled_file_verbatim():
    bundled = json.loads((ROOT / workloads.BUNDLED).read_text())["scenarios"]
    doc = workloads.suite_document(0, bundled)
    assert doc["scenarios"][: len(bundled)] == bundled
    assert len(doc["scenarios"]) == workloads.SUITE_COPIES * len(bundled)
    names = [s["name"] for s in doc["scenarios"]]
    assert len(set(names)) == len(names)


def _child(workdir: Path, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", "suite",
         "--seed", "0", "--workdir", str(workdir), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_suite_writes_the_same_report_bytes(tmp_path):
    plain = _child(tmp_path / "plain", 0)
    traced = _child(tmp_path / "traced", 1)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["layers"]["rounding.pipage_round.calls"] > 0
    for report in ("report.tsv", "report.json"):
        assert (tmp_path / "plain" / "out" / report).read_bytes() == (
            tmp_path / "traced" / "out" / report
        ).read_bytes()


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_printed_metric_is_declared():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "exact-oracles", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_declared_per_layer_metrics_match_the_recorder():
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert declared == spans.metric_units()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "suite", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_and_wall_counts_uncovered_time():
    recorder = spans.Recorder()
    recorder.spans = [
        ["greedy.step", 1.0, 5.0, -1],
        ["multilinear.optimistic_weight", 1.5, 3.5, 0],
        ["constraints.lp_maximize", 3.5, 4.0, 0],
        ["multilinear.multilinear_value", 6.0, 7.0, -1],
    ]
    out = recorder.summary(0.5, 8.0)
    assert out["greedy.step.total_s"] == 4.0
    assert out["greedy.step.self_s"] == 1.5
    assert out["multilinear.optimistic_weight.self_s"] == 2.0
    assert out["trace.uncovered_s"] == 7.5 - 5.0
    assert out["trace.spans"] == 4
