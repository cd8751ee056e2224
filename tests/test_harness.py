"""Evaluation utilities and CLI behavior."""

import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from drs_inekf.liegroup import GroupElement, rot_to_quat, so3_exp
from drs_inekf.sim import (ScenarioConfig, generate, load_jsonl, save_jsonl,
                           write_jsonl)
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
    trajs = list(monte_carlo(ds, FilterVariant.DRS, NoiseConfig(), 3, seed=2))
    assert len(trajs) == 3
    v0 = [tr[0].X.v for tr in trajs]
    assert not np.allclose(v0[0], v0[1])
    # same seed reproduces
    again = list(monte_carlo(ds, FilterVariant.DRS, NoiseConfig(), 3, seed=2))
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


@pytest.mark.parametrize("command", ["eval", "run"])
def test_cli_exits_2_when_an_rms_error_overflows(tmp_path, capsys, monkeypatch,
                                                 command):
    # a finite velocity error of 1e300 squares to inf: one error line naming
    # the variable and exit 2, not a numpy warning and "v_x": Infinity
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM1", phase_s=2.8),
                                 robot_motion="RM1", duration=8.0,
                                 meas_rate=100.0, orient_rate=15.0, seed=1))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    traj = next(monte_carlo(ds, FilterVariant.DRS, NoiseConfig(), 1, 0))
    st = traj[100]
    traj[100] = FilterState(GroupElement.from_parts(st.X.rot, [1e300, 0.0, 0.0],
                                                    st.X.p, st.X.pc),
                            st.theta, st.P, st.t)
    if command == "eval":
        save_trajectory(traj, tmp_path / "run_00.jsonl")
        argv = ["eval", "--truth", str(data), "--estimate",
                str(tmp_path / "run_00.jsonl"), "--out", str(tmp_path / "eval.json")]
    else:
        monkeypatch.setattr(harness, "monte_carlo", lambda *args: [traj])
        argv = ["run", "--dataset", str(data), "--out", str(tmp_path / "runs")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not caught
    assert capsys.readouterr() == ("", "error: the RMS error of v_x is not finite\n")
    assert sorted(p.name for p in tmp_path.rglob("*.*")) == ["run_00.jsonl",
                                                           "scenario.jsonl"]


def test_cli_obs(tmp_path, capsys):
    out = tmp_path / "obs.json"
    assert main(["obs", "--max-tilt-deg", "3", "--step-deg", "1",
                 "--out", str(out)]) == 0
    table = json.loads(out.read_text())["tilt_sweep"]
    assert table[0]["rank"] == 8
    assert all(row["rank"] == 9 for row in table[1:])
    assert all(list(row) == [
        "rank", "roll_pitch_observable", "yaw_observable",
        "velocity_observable", "position_observable", "contact_observable",
        "tilt_rad"] for row in table)
    capsys.readouterr()


def test_cli_simulate_summary_of_a_huge_contact_velocity(tmp_path, capsys):
    # |v_c| near the float limit: its norm must not overflow on the way
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\nsd_contact_vel = 1e300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "scenario.jsonl")])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = capsys.readouterr().out
    assert math.isfinite(float(re.search(r"max \|v_c\| (\S+) m/s", out)[1]))


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
        ["obs", "--dt", "0.01"],
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


@pytest.mark.parametrize("stream, shift, message", [
    ("imu_t", None, "IMU stream timestamps out of order"),
    ("switch_t", None, "two contact switch events fall on one IMU step"),
    ("drs_t", 0.02,
     "surface orientation record at t=0.12 falls on no encoder step"),
    ("drs_t", 0.002,
     "surface orientation record at t=0.102 falls on no encoder step"),
    ("meas_t", 0.002, "encoder record at t=0.102 falls on no IMU step")],
    ids=["imu_t", "switch_t", "drs_t-shifted", "drs_t-off-grid",
         "meas_t-off-grid"])
def test_cli_run_maps_filter_input_errors_to_exit_1(tmp_path, capsys,
                                                    stream, shift, message):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0, seed=2))
    times = getattr(ds, stream)
    if shift is None:           # the second event at the time of the first
        times[1] = times[0]
    else:                       # every event of the stream shifted in time
        times += shift
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--dataset", str(data),
                     "--out", str(tmp_path / "runs")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, index, value, message", [
    ("enc_q", (30, 0), 1e300,
     r"at t=0\.3100 s: a rotation of \S+ rad overflows \|phi\|\^2"),
    ("imu_acc", (1, 0), 1e300,
     r"at t=0\.0100 s: a rotation of \S+ rad overflows \|phi\|\^2"),
    ("imu_omega", (300, 0), 1e300,
     r"at t=1\.5000 s: a rotation of 5e\+297 rad overflows \|phi\|\^2"),
    ("enc_q", (1, 0), -1e308,
     r"at t=0\.0200 s: the correction's rotation overflows"),
    ("switch_q", (0, 0), 1e8,
     r"at t=1\.1500 s: Eigenvalues did not converge")],
    ids=["enc_q", "imu_acc", "imu_omega", "enc_q-substeps", "switch_q-eigh"])
def test_cli_run_maps_an_overflowing_step_to_exit_2(tmp_path, capsys, field,
                                                    index, value, message):
    # one extreme but finite record of Case A overflows a filter step: a
    # numerical failure at the step's time, not "math domain error" and
    # exit 1 (the rotation series) or an OverflowError traceback (the
    # sub-step count of the update); a LinAlgError from the update's eigh
    # names the time too
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM1", phase_s=2.8),
                                 robot_motion="RM1", duration=8.0,
                                 meas_rate=100.0, orient_rate=15.0, seed=1))
    getattr(ds, field)[index] = value
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--dataset", str(data),
                     "--out", str(tmp_path / "runs")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize("command, callee", [
    ("simulate", "generate"), ("run", "load_jsonl"), ("eval", "load_jsonl"),
    ("obs", "tilt_sweep")])
@pytest.mark.parametrize("failure, code", [
    (ValueError, 1), (OSError, 1), (FloatingPointError, 2),
    (np.linalg.LinAlgError, 2)])
def test_main_maps_each_failure_to_one_exit_code(tmp_path, capsys, monkeypatch,
                                                 command, callee, failure, code):
    # main is the one map: a bad input or file exits 1 and a numerical
    # failure 2 (LinAlgError too, though it is a ValueError), whichever
    # subcommand raises it, with one error line
    def fail(*args):
        raise failure("planted failure")

    monkeypatch.setattr(harness, callee, fail)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\n")
    path = str(tmp_path / "x.jsonl")
    argv = {"simulate": ["simulate", "--config", str(cfg), "--out", path],
            "run": ["run", "--dataset", path, "--out", str(tmp_path / "runs")],
            "eval": ["eval", "--truth", path, "--estimate", path],
            "obs": ["obs"]}[command]
    assert main(argv) == code
    assert capsys.readouterr() == ("", "error: planted failure\n")
    assert not list(tmp_path.glob("*.jsonl"))


def test_cli_obs_rejects_more_than_a_million_tilts(tmp_path, capsys,
                                                   monkeypatch):
    # checked before np.arange allocates the tilts, so a huge count is never
    # allocated: 10**6 tilts reach the sweep, one more does not
    swept = []
    monkeypatch.setattr(harness, "tilt_sweep",
                        lambda tilts: swept.append(tilts.size) or [])
    assert main(["obs", "--max-tilt-deg", "999999", "--step-deg", "1"]) == 0
    assert swept == [10**6]
    capsys.readouterr()
    monkeypatch.setattr(harness, "tilt_sweep", None)    # not reached
    for max_tilt, step in (("1000000", "1"), ("1e5", "1e-3"), ("0", "5e-324")):
        assert main(["obs", "--max-tilt-deg", max_tilt,
                     "--step-deg", step]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --max-tilt-deg ") and \
            err.endswith(" is more than 1,000,000 tilts\n")


@pytest.mark.parametrize("command, kind, cut, message", [
    ("run", "contact_vel", 9,
     "dataset has 391 contact_vel records for 400 IMU records"),
    ("run", None, None, "dataset has no IMU records"),
    ("eval", None, None, "dataset has no IMU records"),
    ("run", "truth", 100, "truth records do not span the IMU window"),
    ("run", "imu", "omega", "imu record has no 'omega'"),
    ("run", "meta", "dt", "meta record has no 'dt'"),
    ("run", "encoder", "q", "encoder record has no 'q'"),
    ("eval", "truth", "quat", "truth record has no 'quat'"),
    ("eval", "truth", (100, 101), "truth stream timestamps out of order"),
    ("run", "contact_vel", (50, 120), "contact_vel record at t=0.6 does not "
     "match its IMU record at t=0.25")],
    ids=["run-short-contact-vel", "run-meta-only", "eval-meta-only",
         "run-short-truth", "run-imu-without-omega", "run-meta-without-dt",
         "run-encoder-without-q", "eval-truth-without-quat",
         "eval-swapped-truth", "run-swapped-contact-vel"])
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
    elif isinstance(cut, tuple):  # two records of one kind swapped
        drop = set()
        i, j = ([i for i, k in enumerate(kinds) if k == kind][c] for c in cut)
        lines[i], lines[j] = lines[j], lines[i]
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


@pytest.mark.parametrize("bias", ["x", None, [True], [1, 2]],
                         ids=["string", "null", "bool", "short"])
def test_cli_run_rejects_a_malformed_meta_bias(tmp_path, capsys, bias):
    meta, *rest = _small_dataset_lines()
    data = tmp_path / "scenario.jsonl"
    data.write_text(json.dumps(dict(json.loads(meta), bias=bias)) + "\n"
                    + "".join(rest))
    assert main(["run", "--dataset", str(data),
                 "--out", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err == \
        "error: meta record has a malformed 'bias'\n"


# a replaced field value: JSON values of a wrong type or shape, record kinds
# and an integer beyond the float range
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from(["meta", "truth", "imu", "contact_vel", "encoder",
                     "drs_pose", "contact_switch"]))
_FUZZ_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.integers(0, 200)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("replace"), st.integers(0, 10**6), st.integers(0, 10),
              _FUZZ_VALUES))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["run", "eval"]),
       edits=st.lists(_FUZZ_EDITS, min_size=1, max_size=3))
def test_cli_fuzzed_dataset_exits_0_or_1(tmp_path_factory, command, edits):
    # truncated lines, swapped lines and replaced field values of a small
    # dataset: the CLI accepts the file or reports it, never a traceback
    tmp = tmp_path_factory.mktemp("fuzz")
    lines = list(_small_dataset_lines())
    for edit in edits:
        i = edit[1] % len(lines)
        if edit[0] == "truncate":
            lines[i] = lines[i][:edit[2]] + "\n"
        elif edit[0] == "swap":
            j = edit[2] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i].endswith("}\n"):     # not a line truncated before
            rec = json.loads(lines[i])
            key = sorted(rec)[edit[2] % len(rec)]
            rec[key] = edit[3]
            lines[i] = json.dumps(rec) + "\n"
    data = tmp / "scenario.jsonl"
    data.write_text("".join(lines))
    if command == "run":
        argv = ["run", "--dataset", str(data), "--out", str(tmp / "runs")]
    else:
        est = tmp / "est.jsonl"
        est.write_text(json.dumps({"t": 0.5, "quat": [1, 0, 0, 0],
                                   "v": [0, 0, 0]}) + "\n")
        argv = ["eval", "--truth", str(data), "--estimate", str(est)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert (code == 0) == ("error: " not in err.getvalue())


@functools.cache
def _small_dataset_lines():
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    out = io.StringIO()
    write_jsonl(ds, out)
    return tuple(out.getvalue().splitlines(keepends=True))


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


def test_cli_eval_rejects_epochs_out_of_order(tmp_path, capsys):
    # the report reads the epochs in file order: a reversed run file used to
    # report the first epoch's time as the duration and convergence times
    # of the reversed series, and repeated epochs also exited 0
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nrobot_motion = RM2\nduration = 2.0\n"
                   "meas_rate = 10\nseed = 1\n")
    data = tmp_path / "scenario.jsonl"
    main(["simulate", "--config", str(cfg), "--out", str(data)])
    main(["run", "--dataset", str(data), "--out", str(tmp_path / "runs")])
    lines = (tmp_path / "runs" / "run_00.jsonl").read_text().splitlines(True)
    est = tmp_path / "est.jsonl"
    for epochs, message in (
            (lines[::-1], "estimate epoch 2 (t=1.9 s) is not after the one before it"),
            (lines[:1] * 20, "estimate epoch 2 (t=0.1 s) is not after the one before it"),
            (lines[:5] + [lines[6], lines[5]] + lines[7:],
             "estimate epoch 7 (t=0.6 s) is not after the one before it")):
        est.write_text("".join(epochs))
        capsys.readouterr()
        assert main(["eval", "--truth", str(data), "--estimate", str(est)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    est.write_text("".join(lines))
    assert main(["eval", "--truth", str(data), "--estimate", str(est)]) == 0
    assert json.loads(capsys.readouterr().out)["duration_s"] == 2.0


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


@pytest.mark.parametrize("setting", [
    "duration = nan", "imu_rate = nan", "meas_rate = nan", "duration = inf",
    "seed = -1", "step_period = 0", "step_period = -0.8", "base_height = nan",
    "sd_gyro = nan", "draw_biases = ture"])
def test_cli_simulate_rejects_bad_numbers_before_generating(
        tmp_path, capsys, monkeypatch, setting):
    # each used to end in a traceback, hang in generate (the two step
    # periods) or write a dataset holding NaN (base_height, sd_gyro) or
    # zero biases (the misspelt draw_biases)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"profile = TM2\nduration = 1.0\nmeas_rate = 10\n{setting}\n")
    calls = []
    monkeypatch.setattr(harness, "generate", lambda config: calls.append(1))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not calls


def test_cli_simulate_maps_generate_value_error_to_exit_1(tmp_path, capsys,
                                                          monkeypatch):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("profile = TM2\nduration = 1.0\n")

    def fail(config):
        raise ValueError("no dataset")

    monkeypatch.setattr(harness, "generate", fail)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.jsonl")]) == 1
    assert capsys.readouterr().err == "error: no dataset\n"


@pytest.mark.parametrize("setting, message", [
    ("meas_rate = 200", "contact switch 1 (t = 0.8 s) finds no free IMU step"),
    ("step_period = 0.001", "step_period 0.001 s rounds to zero IMU steps"),
    ("step_period = 0.002", "step_period 0.002 s rounds to zero IMU steps"),
    ("step_period = 0.004", "finds no free IMU step"),
    ("duration = 0.002", "duration 0.002 s rounds to zero IMU steps"),
    ("meas_rate = 0.5", "no measurement step falls within the duration")],
    ids=["every-step-measured", "period-0.001", "period-below-half-step",
         "period-0.004", "no-imu-step", "no-measurement"])
def test_cli_simulate_rejects_configs_without_a_schedule(tmp_path, capsys,
                                                         setting, message):
    # the switch configs used to end in an IndexError traceback (or, below
    # half a step, write a switch at t = 0), the others in an invalid dataset;
    # a failed simulate leaves an existing --out file as it was
    # and leaves no file at a fresh --out path
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"profile = TM2\nduration = 1.0\nmeas_rate = 10\n{setting}\n")
    out = tmp_path / "x.jsonl"
    out.write_text("kept\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert out.read_text() == "kept\n"
    fresh = tmp_path / "fresh.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(fresh)]) == 1
    assert capsys.readouterr().err == err
    assert not fresh.exists()


def test_cli_simulate_replaces_a_longer_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    out = tmp_path / "x.jsonl"
    out.write_text("x" * 10**6)
    cfg.write_text("profile = TM2\nduration = 0.5\nmeas_rate = 10\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    fresh = io.StringIO()
    write_jsonl(generate(parse_scenario_config(cfg)), fresh)
    assert out.read_text() == fresh.getvalue()
    capsys.readouterr()


@pytest.mark.parametrize("table", [
    "", "0.0,1.0\n", "0.0\n1.0\n", "0,0,0\n1,1,1\n", "0,0\n1,nan\n",
    "0,0\ninf,1\n", "0,0\n1,1\n1,2\n", "0,0\n2,1\n1,2\n", "0,0\nx,1\n"],
    ids=["empty", "one-row", "one-column", "three-columns", "nan", "inf",
         "repeated-time", "decreasing-time", "not-a-number"])
def test_cli_simulate_rejects_bad_profile_tables(tmp_path, capsys, table):
    # one column and one row ended in a traceback; NaN, inf and times out of
    # order gave a dataset whose surface angle jumps
    csv_path = tmp_path / "profile.csv"
    csv_path.write_text(table)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"profile = {csv_path}\nduration = 1.0\nmeas_rate = 10\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("edit", ["comma", "space", "blank", "trailing-blank",
                                  "split-and-joined"])
def test_cli_rejects_lines_that_do_not_hold_one_record(tmp_path, capsys,
                                                       command, edit):
    # the reader parses each line on its own: two records on one line, a
    # blank line in the middle, a trailing blank line, and a record split
    # over two lines at a dropped comma beside a line of two records, whose
    # value counts offset each other, are errors
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=1.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    est = tmp_path / "est.jsonl"
    est.write_text("".join(json.dumps({"t": t, "quat": [1, 0, 0, 0],
                                       "v": [0, 0, 0]}) + "\n"
                           for t in (0.2, 0.4, 0.6, 0.8)))
    assert main(["eval", "--truth", str(data), "--estimate", str(est)]) == 0
    target = data if command == "run" else est
    lines = target.read_text().splitlines(keepends=True)
    if edit == "comma":
        lines[2:4] = [lines[2].rstrip("\n") + ", " + lines[3]]
    elif edit == "space":
        lines[2:4] = [lines[2].rstrip("\n") + " " + lines[3]]
    elif edit == "blank":
        lines.insert(2, "\n")
    elif edit == "trailing-blank":
        lines.append("\n")
    else:
        cut = lines[1].index(', "')
        lines[1:4] = [lines[1][:cut] + "\n", lines[1][cut + 2:],
                      lines[2].rstrip("\n") + ", " + lines[3]]
    target.write_text("".join(lines))
    capsys.readouterr()
    if command == "run":
        argv = ["run", "--dataset", str(data), "--out", str(tmp_path / "runs")]
    else:
        argv = ["eval", "--truth", str(data), "--estimate", str(est)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if edit == "split-and-joined":
        assert f"{target}: line 2 does not hold one JSON value" in err


def _reference_save_trajectory(trajectory, path):
    """The per-state writer that save_trajectory replaced."""
    quats = rot_to_quat(np.array([st.X.rot for st in trajectory]).reshape(-1, 3, 3))
    with open(path, "w") as fh:
        for st, quat in zip(trajectory, quats.tolist()):
            fh.write(json.dumps({
                "t": st.t, "quat": quat,
                "v": list(st.X.v), "p": list(st.X.p), "p_c": list(st.X.pc),
                "b_omega": list(st.theta.b_omega), "b_acc": list(st.theta.b_acc),
                "p_diag": list(np.diag(st.P)),
            }) + "\n")


_SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1e-5,
                   0.1, 1.0 / 3.0, 123456789.0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 3 * harness._CHUNK),
       specials=st.lists(st.sampled_from(_SPECIAL_FLOATS), max_size=40))
def test_save_trajectory_writes_the_reference_bytes(tmp_path_factory, seed,
                                                    n_states, specials):
    # stacked tolist() against list(ndarray) per state: json writes float
    # repr either way; -0.0, subnormals and huge values included
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal(n_states * 34) * 10.0 ** rng.integers(-8, 8, n_states * 34)
    flat[rng.integers(0, flat.size, len(specials))] = specials
    states = []
    for k, row in enumerate(flat.reshape(n_states, 34)):
        P = np.diag(row[16:34]) + rng.standard_normal((18, 18))
        t = row[0] if k % 3 else k * 0.005      # numpy and Python floats
        states.append(FilterState(
            GroupElement(so3_exp(rng.uniform(-3.0, 3.0, 3)), row[1:10].reshape(3, 3)),
            BiasState(row[10:13], row[13:16]), P, t))
    tmp = tmp_path_factory.mktemp("traj")
    save_trajectory(states, tmp / "new.jsonl")
    _reference_save_trajectory(states, tmp / "ref.jsonl")
    assert (tmp / "new.jsonl").read_bytes() == (tmp / "ref.jsonl").read_bytes()


def _eigvalsh_rule(P):
    """The per-state PSD rule that the stacked Cholesky check replaced."""
    return not any(lam[0] < -harness.PSD_TOL * lam[-1]
                   for lam in map(np.linalg.eigvalsh, P))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ratios=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                                 st.floats(-12.0, -6.0)),
                       min_size=1, max_size=8))
def test_stacked_psd_check_equals_per_state_eigvalsh_rule(seed, ratios):
    # lambda_min / lambda_max in +-[1e-12, 1e-6], on both sides of -PSD_TOL
    rng = np.random.default_rng(seed)
    stack = []
    for sign, exponent in ratios:
        Q = np.linalg.qr(rng.standard_normal((18, 18)))[0]
        lam = rng.uniform(10.0 ** exponent, 1.0, 18)
        lam[0], lam[-1] = sign * 10.0 ** exponent, 1.0
        P = (Q * lam) @ Q.T * 10.0 ** rng.uniform(-4.0, 4.0)
        stack.append(0.5 * (P + P.T))
    good = FilterState(GroupElement.identity(), BiasState(), run_covariance(), 0.0)
    states = [FilterState(good.X, good.theta, P, 0.0) for P in stack]
    assert (harness._run_fault(states) is None) == _eigvalsh_rule(stack)


@pytest.mark.parametrize("bad_at, non_finite_at, message", [
    (harness._CHUNK + 30, None,
     "a covariance that is not positive semidefinite"),
    (10, 2 * harness._CHUNK + 5, "a non-finite state")],
    ids=["indefinite-mid-chunk", "non-finite-after-indefinite"])
def test_cli_run_checks_every_state_of_every_chunk(tmp_path, capsys, monkeypatch,
                                                   bad_at, non_finite_at, message):
    # run 0 is saved; run 1 fails with the message of its first fault kind,
    # a non-finite state before an indefinite covariance, in any chunk
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    good = initial_state_for_run(ds, np.random.default_rng(0))
    states = [FilterState(good.X, good.theta, good.P, k * ds.dt)
              for k in range(3 * harness._CHUNK)]
    failing = list(states)
    indefinite = good.P.copy()
    indefinite[5, 5] = -1e-3
    failing[bad_at] = FilterState(good.X, good.theta, indefinite, 0.1)
    if non_finite_at is not None:
        failing[non_finite_at] = FilterState(good.X, BiasState(np.full(3, np.nan)),
                                             good.P, 0.2)
    monkeypatch.setattr(harness, "monte_carlo", lambda *args: [states, failing])
    out = tmp_path / "runs"
    assert main(["run", "--dataset", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: run 1 produced {message}\n"
    assert sorted(p.name for p in out.iterdir()) == ["run_00.jsonl"]
    _reference_save_trajectory(states, tmp_path / "ref.jsonl")
    assert (out / "run_00.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


class _Trajectory(list):
    """A trajectory that a weak reference can follow."""


def _reference_run(dataset_path, variant, n_runs, seed, outdir):
    """`run` as it was before it streamed: every run first, then the run
    files, report.json and envelope.csv.  Returns what `run` prints."""
    dataset = load_jsonl(dataset_path)
    trajectories = list(monte_carlo(dataset, FilterVariant(variant),
                                    NoiseConfig(), n_runs, seed))
    outdir.mkdir()
    rows = []
    for i, traj in enumerate(trajectories):
        save_trajectory(traj, outdir / f"run_{i:02d}.jsonl")
        times, errs = trajectory_errors(dataset, traj)
        rows.append(errs)
    report = json.dumps(make_report(times, np.array(rows)).to_dict(), indent=2)
    (outdir / "report.json").write_text(report)
    lo, hi = np.min(rows, axis=0), np.max(rows, axis=0)
    with open(outdir / "envelope.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{name}_{end}" for name in ERROR_VARS
                                 for end in ("min", "max")])
        for t, lo_t, hi_t in zip(times, lo, hi):
            writer.writerow([f"{t:.6f}"] + [f"{x:.9g}" for pair in
                                            zip(lo_t, hi_t) for x in pair])
    return report + "\n"


def _files(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("variant", ["drs", "srs"])
@pytest.mark.parametrize("fail_at", [None, 1], ids=["all-runs", "linalg-in-run-1"])
def test_cli_run_checks_writes_and_scores_each_run_as_it_finishes(
        tmp_path, capsys, monkeypatch, variant, fail_at):
    # when run i starts, run i-1's states are gone and its file is written;
    # the outputs are the bytes of a run that keeps every trajectory, and a
    # LinAlgError in run 1 exits 2 with run 0 written and no report
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 duration=2.0, meas_rate=10.0, seed=2))
    data = tmp_path / "scenario.jsonl"
    save_jsonl(ds, data)
    printed = _reference_run(data, variant, 3, 1, tmp_path / "ref")
    out = tmp_path / "runs"
    alive, started = [], []

    def spy(*args):
        gc.collect()
        started.append(([ref() is not None for ref in alive],
                        sorted(p.name for p in out.iterdir())))
        if len(started) - 1 == fail_at:
            raise np.linalg.LinAlgError("planted")
        traj = _Trajectory(run_variant(*args))
        alive.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(harness, "run_variant", spy)
    capsys.readouterr()
    code = main(["run", "--dataset", str(data), "--variant", variant,
                 "--runs", "3", "--seed", "1", "--out", str(out)])
    written = [f"run_{i:02d}.jsonl" for i in range(3)]
    assert started == [([False] * i, written[:i]) for i in range(len(started))]
    reference = _files(tmp_path / "ref")
    captured = capsys.readouterr()
    if fail_at is None:
        assert code == 0
        assert captured.out == printed and captured.err == ""
        assert _files(out) == reference
    else:
        assert code == 2
        assert captured.err == "error: planted\n"
        assert _files(out) == {"run_00.jsonl": reference["run_00.jsonl"]}


class _Hang(Exception):
    """An example that ran past its time limit."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _Hang(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_NUMBER_TEXT = st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0.0",
                                "-1", "1e300", "-1e300", "1e400", "5e-324",
                                "x", ""])


def _number(lo, hi):
    """Config text of a float in [lo, hi] three times in four, else of a
    special value."""
    return st.one_of(_NUMBER_TEXT, *[st.floats(lo, hi).map(repr)] * 3)


# no example allocates more than 2 s x 400 Hz of samples: a drawn duration
# or rate is in range or special, and NaN, inf, zero and negatives are
# rejected before generating, a step count from 1e300 before allocating
_CONFIG_VALUES = {
    "duration": _number(0.0, 2.0),
    "imu_rate": _number(1.0, 400.0),
    "meas_rate": _number(0.1, 400.0),
    "orient_rate": _number(0.0, 400.0),
    "step_period": _number(0.0, 2.0),
    "stride_width": _number(-1.0, 1.0),
    "base_height": _number(-2.0, 2.0),
    "seed": st.one_of(_NUMBER_TEXT, st.integers(0, 2**70).map(str)),
    "draw_biases": st.sampled_from(["1", "true", "no", "x"]),
    "robot_motion": st.sampled_from(["RM1", "RM2", "RM3"]),
    **{key: st.sampled_from(["TM1", "TM2", "TM3", "constant", "TM9",
                             "missing.csv"])
       for key in ("profile", "filter_profile")},
    **{key: _number(0.0, 10.0)
       for key in ("sd_gyro", "sd_accel", "sd_bias_gyro", "sd_bias_accel",
                   "sd_contact_vel", "sd_encoder_deg", "sd_drs_orient_deg")},
}
_CONFIG_LINE = st.one_of(
    *(st.tuples(st.just(key), values).map(" = ".join)
      for key, values in _CONFIG_VALUES.items()),
    st.sampled_from(["# comment", "", "warp_speed = 1", "duration", "= 1"]))


@settings(max_examples=150, deadline=None)
@given(duration=_CONFIG_VALUES["duration"],
       lines=st.lists(_CONFIG_LINE, max_size=6))
def test_cli_simulate_exits_0_with_a_dataset_or_1_with_one_error_line(
        tmp_path_factory, duration, lines):
    # drawn config files: exit 0 and a dataset that load_jsonl reads, or
    # exit 1, one "error: " line and no file; never a traceback or a hang
    tmp = tmp_path_factory.mktemp("config")
    cfg = tmp / "scenario.cfg"
    cfg.write_text("".join(f"{line}\n" for line in [f"duration = {duration}",
                                                    *lines]))
    out = tmp / "scenario.jsonl"
    err = io.StringIO()
    with _time_limit(30.0), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    if code == 0:       # numpy may warn on stderr
        assert "error: " not in err.getvalue()
        assert "Traceback" not in err.getvalue()
        load_jsonl(out)
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists()
