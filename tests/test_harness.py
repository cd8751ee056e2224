"""Evaluation utilities and CLI behavior."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import drs_inekf
import drs_inekf.harness as harness
from drs_inekf.drs import PitchProfile
from drs_inekf.filter import FilterVariant, run_variant
from drs_inekf.harness import (DEFAULT_THRESHOLDS, ERROR_VARS,
                               convergence_time, error_angles,
                               initial_state_for_run, interpolate_truth,
                               load_trajectory_arrays,
                               main, make_report, monte_carlo,
                               parse_scenario_config, save_trajectory,
                               trajectory_errors)
from drs_inekf.kinematics import VirtualLeg
from drs_inekf.liegroup import GroupElement, so3_exp
from drs_inekf.sim import ScenarioConfig, generate, load_jsonl, save_jsonl
from drs_inekf.state import (BiasState, FilterState, NoiseConfig,
                             run_covariance)

ZERO_NOISE = NoiseConfig(sd_gyro=0.0, sd_accel=0.0, sd_bias_gyro=0.0,
                         sd_bias_accel=0.0, sd_contact_vel=0.0,
                         sd_encoder=0.0, sd_drs_orient=0.0)


def test_error_angles_pure_rotations():
    R_true = np.eye(3)
    roll, pitch, yaw = error_angles(so3_exp([0.1, 0.0, 0.0]), R_true)
    assert math.isclose(roll, 0.1, abs_tol=1e-9)
    assert abs(pitch) < 1e-9 and abs(yaw) < 1e-9
    roll, pitch, yaw = error_angles(so3_exp([0.0, 0.2, 0.0]), R_true)
    assert math.isclose(pitch, 0.2, abs_tol=1e-9)
    roll, pitch, yaw = error_angles(so3_exp([0.0, 0.0, -0.3]), R_true)
    assert math.isclose(yaw, -0.3, abs_tol=1e-9)


def test_error_angles_zero_for_equal_rotations():
    rng = np.random.default_rng(0)
    for _ in range(20):
        R = so3_exp(rng.uniform(-2.0, 2.0, 3))
        assert np.allclose(error_angles(R, R), 0.0, atol=1e-12)


def test_convergence_time_semantics():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert convergence_time(t, np.array([0.5, 0.2, 0.05, 0.05, 0.05]), 0.1) == 2.0
    assert convergence_time(t, np.array([0.05] * 5), 0.1) == 0.0
    assert convergence_time(t, np.array([0.05, 0.05, 0.5, 0.05, 0.05]), 0.1) == 3.0
    assert convergence_time(t, np.array([0.05, 0.05, 0.05, 0.05, 0.5]), 0.1) is None


def test_interpolate_truth_endpoints_and_midpoint():
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0,
                                 noise=ZERO_NOISE, seed=0))
    R, v, p, pc = interpolate_truth(ds, 0.0)
    assert np.allclose(R, ds.truth_rot[0], atol=1e-12)
    assert np.allclose(p, ds.truth_p[0], atol=1e-12)
    R, v, p, pc = interpolate_truth(ds, ds.truth_t[10])
    assert np.allclose(v, ds.truth_v[10], atol=1e-12)
    tm = 0.5 * (ds.truth_t[3] + ds.truth_t[4])
    _, v, _, _ = interpolate_truth(ds, tm)
    assert np.allclose(v, 0.5 * (ds.truth_v[3] + ds.truth_v[4]), atol=1e-9)


def test_zero_error_run_reports_zero_rms():
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0,
                                 noise=ZERO_NOISE, seed=0))
    st = FilterState(ds.initial_group_element(), BiasState(),
                     run_covariance(), 0.0)
    traj = run_variant(st, ds, FilterVariant.DRS, VirtualLeg(), ZERO_NOISE)
    times, errs = trajectory_errors(ds, traj)
    assert np.abs(errs).max() < 1e-5
    report = make_report(times, errs[None, :, :])
    assert all(report.rms_full[name] < 1e-5 for name in ERROR_VARS)
    assert all(report.convergence[name] == times[0] for name in ERROR_VARS)


def test_make_report_structure():
    times = np.linspace(0.1, 6.0, 60)
    errs = np.zeros((3, 60, 6))
    errs[1, :5, 0] = 0.5  # one run starts outside the velocity threshold
    rep = make_report(times, errs)
    assert rep.n_runs == 3
    assert rep.convergence["v_x"] == pytest.approx(times[5])
    assert rep.rms_post["v_x"] == 0.0
    d = rep.to_dict()
    assert d["n_runs"] == 3


def test_monte_carlo_runs_are_distinct():
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=1))
    trajs = monte_carlo(ds, FilterVariant.DRS, NoiseConfig(), 3, seed=2)
    assert len(trajs) == 3
    v0 = [tr[0].X.v for tr in trajs]
    assert not np.allclose(v0[0], v0[1])
    # same seed reproduces
    again = monte_carlo(ds, FilterVariant.DRS, NoiseConfig(), 3, seed=2)
    assert np.allclose(trajs[0][-1].X.v, again[0][-1].X.v, atol=1e-12)


def test_trajectory_save_load_roundtrip(tmp_path):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=1))
    st = FilterState(ds.initial_group_element(), BiasState(),
                     run_covariance(), 0.0)
    traj = run_variant(st, ds, FilterVariant.DRS, VirtualLeg(), NoiseConfig())
    path = tmp_path / "traj.jsonl"
    save_trajectory(traj, path)
    ts, rots, vs = load_trajectory_arrays(path)
    assert ts.size == len(traj)
    assert np.allclose(rots[-1], traj[-1].X.rot, atol=1e-9)
    assert np.allclose(vs[-1], traj[-1].X.v, atol=1e-12)


def test_parse_scenario_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "profile = TM1\n"
        "filter_profile = TM3\n"
        "robot_motion = RM2\n"
        "duration = 4.0\n"
        "meas_rate = 20\n"
        "orient_rate = 5\n"
        "seed = 9\n"
        "sd_gyro = 0.02\n"
        "sd_encoder_deg = 0.5\n")
    cfg = parse_scenario_config(path)
    assert cfg.profile.kind == "TM1"
    assert cfg.filter_profile.kind == "TM3"
    assert cfg.robot_motion == "RM2"
    assert cfg.duration == 4.0
    assert cfg.orient_rate == 5.0
    assert cfg.seed == 9
    assert cfg.noise.sd_gyro == 0.02
    assert math.isclose(cfg.noise.sd_encoder, math.radians(0.5))


def test_parse_scenario_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("profile = TM1\nwarp_speed = 9\n")
    with pytest.raises(ValueError):
        parse_scenario_config(path)


def test_cli_simulate_and_run(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.5\nmeas_rate = 10\nseed = 2\n")
    data = tmp_path / "scenario.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    outdir = tmp_path / "runs"
    assert main(["run", "--dataset", str(data), "--variant", "drs",
                 "--runs", "2", "--seed", "1", "--out", str(outdir)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["n_runs"] == 2
    assert (outdir / "run_00.jsonl").exists()
    assert (outdir / "run_01.jsonl").exists()
    assert (outdir / "envelope.csv").read_text().startswith("t,")
    capsys.readouterr()


def test_cli_eval(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\nmeas_rate = 10\nseed = 2\n")
    data = tmp_path / "scenario.jsonl"
    main(["simulate", "--config", str(cfg), "--out", str(data)])
    outdir = tmp_path / "runs"
    main(["run", "--dataset", str(data), "--runs", "1", "--out", str(outdir)])
    out = tmp_path / "eval.json"
    code = main(["eval", "--truth", str(data),
                 "--estimate", str(outdir / "run_00.jsonl"),
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert "rms_full_window" in rep
    capsys.readouterr()


def test_cli_obs(tmp_path, capsys):
    out = tmp_path / "obs.json"
    assert main(["obs", "--max-tilt-deg", "3", "--step-deg", "1",
                 "--out", str(out)]) == 0
    table = json.loads(out.read_text())["tilt_sweep"]
    assert table[0]["rank"] == 8
    assert all(row["rank"] == 9 for row in table[1:])
    capsys.readouterr()


def test_cli_input_errors(tmp_path, capsys, monkeypatch):
    # a bad input exits 1 and a non-finite filter state exits 2, each with
    # "error: ..." and never a traceback; usage errors count as bad input
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\nmeas_rate = 10\nseed = 2\n")
    data = str(tmp_path / "scenario.jsonl")
    assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("profile = TM9\n")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    # a dataset with no encoder records: nothing to score
    no_encoder = tmp_path / "no_encoder.jsonl"
    no_encoder.write_text("".join(
        line for line in open(data) if '"type": "encoder"' not in line))
    out = str(tmp_path / "runs")
    cases = [
        ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", out],
        ["simulate", "--config", str(bad), "--out", out],
        ["simulate", "--config", str(cfg),
         "--out", str(tmp_path / "missing" / "x.jsonl")],
        ["run", "--dataset", str(tmp_path / "nope.jsonl"), "--out", out],
        ["run", "--dataset", data, "--runs", "0", "--out", out],
        ["run", "--dataset", data, "--runs", "-1", "--out", out],
        ["run", "--dataset", data, "--out", str(a_file)],
        ["run", "--dataset", data, "--variant", "abc", "--out", out],
        ["run", "--dataset", str(no_encoder), "--out", out],
        ["run"],
        ["bogus"],
        ["obs", "--blocks", "1"],
        ["obs", "--step-deg", "0"],
        ["obs", "--max-tilt-deg", "-5"],
        ["obs", "--dt", "0"],
        ["obs", "--dt", "-1"],
    ]
    for argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse exits on a usage error
            code = exc.code
        assert code == 1, argv
        assert "error: " in capsys.readouterr().err, argv

    ds = load_jsonl(data)
    good = initial_state_for_run(ds, np.random.default_rng(0))
    nan3 = np.full((3, 3), np.nan)
    indefinite = good.P.copy()
    indefinite[0, 0] = -1e-3
    non_finite = "error: run 0 produced a non-finite state\n"
    bad_states = [
        (FilterState(GroupElement(nan3, good.X.cols), good.theta, good.P, 0.1),
         non_finite),
        (FilterState(good.X, BiasState(np.full(3, np.nan)), good.P, 0.1),
         non_finite),
        (FilterState(good.X, good.theta, np.full((18, 18), np.inf), 0.1),
         non_finite),
        (FilterState(good.X, good.theta, indefinite, 0.1),
         "error: run 0 produced a covariance that is not positive "
         "semidefinite\n"),
    ]
    for bad_state, message in bad_states:
        monkeypatch.setattr(harness, "monte_carlo",
                            lambda *args: [[good, bad_state]])
        assert main(["run", "--dataset", data, "--out", out]) == 2
        assert capsys.readouterr().err == message


def test_cli_simulate_opens_out_before_generating(tmp_path, capsys,
                                                  monkeypatch):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 20.0\n")
    calls = []
    monkeypatch.setattr(harness, "generate", lambda config: calls.append(1))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "missing" / "x.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not calls


@pytest.mark.parametrize("stream, message", [
    ("imu_t", "IMU stream timestamps out of order"),
    ("switch_t", "two contact switch events fall on one IMU step")],
    ids=["imu_t", "switch_t"])
def test_cli_run_maps_filter_input_errors_to_exit_1(tmp_path, capsys,
                                                    stream, message):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0, seed=2))
    times = getattr(ds, stream)
    times[1] = times[0]
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    assert main(["run", "--dataset", str(data),
                 "--out", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_run_maps_diverging_filter_to_exit_2(tmp_path, capsys):
    # finite but absurd accelerations overflow the covariance, and the
    # conditioning check in the update then fails inside LAPACK
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    ds.imu_acc[:] = 1e200
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    with np.errstate(all="ignore"):
        assert main(["run", "--dataset", str(data),
                     "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, kind, cut, message", [
    ("run", "contact_vel", 9,
     "dataset has 391 contact_vel records for 400 IMU records"),
    ("run", None, None, "dataset has no IMU records"),
    ("eval", None, None, "dataset has no IMU records"),
    ("run", "truth", 100, "truth records do not span the IMU window"),
    ("run", "imu", "omega", "imu record has no 'omega'"),
    ("run", "meta", "dt", "meta record has no 'dt'"),
    ("run", "encoder", "q", "encoder record has no 'q'"),
    ("eval", "truth", "quat", "truth record has no 'quat'")],
    ids=["run-short-contact-vel", "run-meta-only", "eval-meta-only",
         "run-short-truth", "run-imu-without-omega", "run-meta-without-dt",
         "run-encoder-without-q", "eval-truth-without-quat"])
def test_cli_rejects_incomplete_dataset(tmp_path, capsys, command, kind,
                                        cut, message):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0, seed=2))
    full = tmp_path / "full.jsonl"
    save_jsonl(ds, full)
    lines = full.read_text().splitlines(keepends=True)
    kinds = [json.loads(line)["type"] for line in lines]
    if kind is None:            # the meta record alone
        drop = {i for i, k in enumerate(kinds) if k != "meta"}
    elif isinstance(cut, int):  # the last cut records of one kind dropped
        drop = set([i for i, k in enumerate(kinds) if k == kind][-cut:])
    else:                       # the first record of one kind without key cut
        drop = set()
        first = kinds.index(kind)
        rec = json.loads(lines[first])
        del rec[cut]
        lines[first] = json.dumps(rec) + "\n"
    data = tmp_path / "scenario.jsonl"
    data.write_text("".join(line for i, line in enumerate(lines)
                            if i not in drop))
    if command == "run":
        argv = ["run", "--dataset", str(data), "--out", str(tmp_path / "runs")]
    else:
        est = tmp_path / "est.jsonl"
        est.write_text(json.dumps({"t": 0.5, "quat": [1, 0, 0, 0],
                                   "v": [0, 0, 0]}) + "\n")
        argv = ["eval", "--truth", str(data), "--estimate", str(est)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_package_import_leaves_scipy_unloaded():
    src = pathlib.Path(drs_inekf.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, drs_inekf; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_eval_rejects_dataset_as_estimate(tmp_path, capsys):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    assert main(["eval", "--truth", str(data), "--estimate", str(data)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line, message", [
    ('{"t": 0.5, "quat": [1, 0, 0, 0], "v": [NaN, 0, 0]}',
     "trajectory record has a non-finite 'v'"),
    ('{"t": 0.5, "quat": [1, 0, 0, 0], "v": [0, 0]}',
     "trajectory record has a malformed 'v'"),
    ('{"t": "half", "quat": [1, 0, 0, 0], "v": [0, 0, 0]}',
     "trajectory record has a malformed 't'"),
    ('{"t": "0.5", "quat": [1, 0, 0, 0], "v": [0, 0, 0]}',
     "trajectory record has a malformed 't'"),
    ('{"t": 0.5, "quat": [1, 0, 0, 0], "v": [true, 0, 0]}',
     "trajectory record has a malformed 'v'"),
    ("[1, 2]", "a line is not a trajectory record")],
    ids=["nan-v", "short-v", "string-t", "quoted-t", "boolean-v",
         "not-an-object"])
def test_cli_eval_rejects_malformed_estimate(tmp_path, capsys, line, message):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    estimate = tmp_path / "estimate.jsonl"
    estimate.write_text(line + "\n")
    assert main(["eval", "--truth", str(data), "--estimate", str(estimate)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message)


def test_cli_eval_rejects_disjoint_time_ranges(tmp_path, capsys):
    # every epoch must lie in the 1 s truth window, not only one of them:
    # clamped truth would score the late epochs against the last sample
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\nmeas_rate = 10\nseed = 2\n")
    data = tmp_path / "scenario.jsonl"
    main(["simulate", "--config", str(cfg), "--out", str(data)])
    est = tmp_path / "est.jsonl"
    outside = "error: estimate epochs lie outside the truth window\n"
    for times, message in (((99.0,), outside), ((0.5, 5.0, 50.0), outside),
                           ((-0.1, 0.5), outside),
                           ((0.5, math.nan),
                            "error: trajectory record has a non-finite 't'\n")):
        with open(est, "w") as fh:
            for t in times:
                fh.write(json.dumps({"t": t, "quat": [1, 0, 0, 0],
                                     "v": [0, 0, 0], "p": [0, 0, 0],
                                     "p_c": [0, 0, 0], "b_omega": [0, 0, 0],
                                     "b_acc": [0, 0, 0],
                                     "p_diag": [0.0] * 18}) + "\n")
        capsys.readouterr()
        assert main(["eval", "--truth", str(data), "--estimate", str(est)]) == 1
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["run", "eval"])
def test_cli_rejects_quaternion_without_finite_norm(tmp_path, capsys, command):
    # run: a truth record with a zero quaternion; eval: a zero estimate
    # quaternion, which used to score as NaN RMS with exit 0
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    if command == "run":
        lines = data.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        assert rec["type"] == "truth"
        rec["quat"] = [0, 0, 0, 0]
        lines[1] = json.dumps(rec) + "\n"
        data.write_text("".join(lines))
        argv = ["run", "--dataset", str(data), "--out", str(tmp_path / "runs")]
    else:
        est = tmp_path / "est.jsonl"
        est.write_text(json.dumps({"t": 0.5, "quat": [0, 0, 0, 0],
                                   "v": [0, 0, 0]}) + "\n")
        argv = ["eval", "--truth", str(data), "--estimate", str(est)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: quaternion ")


def test_thresholds_cover_all_error_vars():
    assert set(DEFAULT_THRESHOLDS) == set(ERROR_VARS)
