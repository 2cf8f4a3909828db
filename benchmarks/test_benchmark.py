"""Smoke tests of the benchmark: each workload at a tiny size.

Run with ``python -m pytest benchmarks`` from the repository root.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must reach (calls > 0) or bypass (calls == 0).
REACHED = {
    "sweep": ["harness.run_scenario", "trajectory.quintic_eval", "trajectory.sine_ref",
              "trajectory.differentiate_teach", "gpi.control_step", "plant.step"],
    "cli_run": ["cli.main", "harness.load_scenario", "harness.export_csv",
                "plotting.render_svg", "gpi.control_step", "plant.step"],
    "sysid": ["plant.step", "sysid.simulate_record", "sysid.estimate_tf"],
}
BYPASSED = {
    "sweep": ["harness.export_csv", "plotting.render_svg", "harness.load_scenario",
              "sysid.estimate_tf"],
    "cli_run": ["sysid.estimate_tf", "trajectory.sine_ref"],
    "sysid": ["trajectory.quintic_eval", "trajectory.sine_ref", "trajectory.clamp_to_limits",
              "trajectory.differentiate_teach", "gpi.control_step", "harness.run_scenario"],
}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert f"summary {workload}: {result['attempted']} operations, 0 failed, failed_frac 0" in lines
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for layer in REACHED[workload]:
            assert values[f"{layer}.calls"] > 0, layer
        for layer in BYPASSED[workload]:
            assert values[f"{layer}.calls"] == 0, layer
    else:
        assert all(v > 0 for v in values.values()), values


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
