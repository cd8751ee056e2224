"""Tests of the benchmark itself, on shrunken workloads.

They check that every per-layer metric still records calls on the workload
it is mapped to (a refactor that moves a function would otherwise leave a
wrapper counting zero), that tracing does not change any output, and that
the workload seed controls the inputs.
"""

import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing

run.load_package()
import workloads  # noqa: E402  (needs the package path set by load_package)

ALL = ("rocking-mc", "nees-sweep", "online-stream")
# span name -> workloads whose traced repetition must record it
MAPPED = {
    "filter.propagate": ALL,
    "filter.integrate_mean": ALL,
    "filter.update": ("rocking-mc", "online-stream"),
    "filter.jump_propagate": ("rocking-mc", "online-stream"),
    # online-stream drives propagate/jump/update itself, not run_variant
    "filter.run_variant": ("rocking-mc", "nees-sweep"),
    **{"liegroup." + name: ALL
       for name in ("sek3_exp", "so3_exp", "so3_log", "adjoint", "compose")},
    "state.symmetrize": ALL,
    "sim.generate": ("nees-sweep",),
    "drs.drs_pose_at": ("nees-sweep",),
    "kinematics.inverse": ("nees-sweep",),
    "kinematics.fk": ("nees-sweep",),
    "sim.save_jsonl": ("rocking-mc",),
    "sim.load_jsonl": ("rocking-mc",),
    "harness.save_trajectory": ("rocking-mc",),
    **{"harness." + name: ("rocking-mc",)
       for name in ("monte_carlo", "trajectory_errors", "interpolate_truth",
                    "make_report", "cli_eval")},
    "observability.tilt_sweep": ("rocking-mc",),
}
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "MC_RUNS", 2)
    monkeypatch.setattr(workloads, "OBS_STEP_DEG", 2.5)
    monkeypatch.setattr(workloads, "NEES_RUNS", 2)
    monkeypatch.setattr(workloads, "STREAM_DRAWS", 1)


def test_layer_names_match_benchmark_json():
    spec = run.load_spec()
    assert [m["name"] for m in spec["per_layer"]] == tracing.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(MAPPED) == set(tracing.LAYER_FIELDS)


@pytest.mark.parametrize("name", ALL)
def test_traced_run_counts_mapped_layers_and_changes_no_output(
        name, small, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    setups, reps, traced, tracer, failures = run.measure(workload, 1e-3, True)
    assert failures == []
    assert traced.digest == reps[0].digest
    e2e = run.end_to_end(setups, reps, len(reps) + 1, 0)
    assert list(e2e) == [m["name"] for m in run.load_spec()["end_to_end"]]
    assert all(value > 0 for value, _ in e2e.values())
    metrics = tracer.layer_metrics(traced.wall_s, reps[0].wall_s)
    assert list(metrics) == tracing.layer_metric_names()
    for span, mapped in MAPPED.items():
        if name not in mapped:
            continue
        fields = tracing.LAYER_FIELDS[span]
        counted = "calls" if "calls" in fields else "bytes"
        assert metrics[f"{span}.{counted}"] > 0, span
    if name != "nees-sweep":
        assert metrics["filter.update.substeps"] >= metrics["filter.update.calls"]
    assert np.isfinite(metrics[tracing.OVERHEAD_METRIC])


def _inputs(workload):
    workload.prepare()
    if isinstance(workload, workloads.RockingMC):
        return [workload.dataset.read_bytes()]
    if isinstance(workload, workloads.NeesSweep):
        return [workloads.S.generate(workload._config(0)).imu_acc.tobytes()]
    ds = workload.ds
    return [ds.imu_omega.tobytes(), ds.enc_q.tobytes()] + [
        s.X.cols.tobytes() for s in workload.starts]


@pytest.mark.parametrize("name", ALL)
def test_workload_seed_sets_the_inputs(name, small, tmp_path):
    make = workloads.WORKLOADS[name]
    a = _inputs(make(1, tmp_path / "a"))
    assert a == _inputs(make(1, tmp_path / "b"))
    b = _inputs(make(2, tmp_path / "c"))
    assert all(x != y for x, y in zip(a, b))


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nees-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not pathlib.Path(tmp_path / "perfbench" / "out").exists()
