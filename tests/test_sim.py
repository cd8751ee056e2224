"""Scenario generator: determinism, exactness, schedules, serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from drs_inekf.drs import PitchProfile, drs_pose_at
from drs_inekf.liegroup import so3_exp, so3_log
from drs_inekf.sim import (ScenarioConfig, generate, imu_from_trajectory,
                           initial_error_draw, load_jsonl, save_jsonl)
from drs_inekf.state import NoiseConfig
from drs_inekf.filter import GRAVITY, integrate_mean
from drs_inekf.liegroup import GroupElement
from drs_inekf.state import BiasState

ZERO_NOISE = NoiseConfig(sd_gyro=0.0, sd_accel=0.0, sd_bias_gyro=0.0,
                         sd_bias_accel=0.0, sd_contact_vel=0.0,
                         sd_encoder=0.0, sd_drs_orient=0.0)


def small_config(**kw):
    base = dict(profile=PitchProfile(kind="TM2"), duration=2.0,
                meas_rate=10.0, seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(duration=0.0)
    with pytest.raises(ValueError):
        small_config(meas_rate=0.0)
    with pytest.raises(ValueError):
        small_config(meas_rate=400.0)  # above the IMU rate
    with pytest.raises(ValueError):
        small_config(orient_rate=20.0)  # above the measurement rate
    with pytest.raises(ValueError):
        small_config(robot_motion="RM7")


def test_generation_is_deterministic():
    a = generate(small_config())
    b = generate(small_config())
    assert np.array_equal(a.imu_omega, b.imu_omega)
    assert np.array_equal(a.imu_acc, b.imu_acc)
    assert np.array_equal(a.enc_q, b.enc_q)
    assert np.array_equal(a.truth_p, b.truth_p)
    c = generate(small_config(seed=4))
    assert not np.array_equal(a.imu_omega, c.imu_omega)


def test_stream_shapes_and_schedules():
    ds = generate(small_config(robot_motion="RM1", duration=3.0))
    n = ds.imu_t.size
    assert ds.truth_t.size == n + 1
    assert ds.imu_omega.shape == (n, 3)
    assert ds.contact_v.shape == (n, 3)
    assert ds.enc_q.shape == (ds.meas_t.size, 6)
    assert ds.drs_rot.shape == (ds.drs_t.size, 3, 3)
    # default orientation schedule coincides with the measurement schedule
    assert np.array_equal(ds.drs_t, ds.meas_t)
    # measurements on the IMU grid, strictly increasing
    assert np.all(np.diff(ds.meas_t) > 0)
    steps = np.round(ds.meas_t / ds.dt)
    assert np.allclose(steps * ds.dt, ds.meas_t, atol=1e-9)
    # contact switches never land on a measurement step
    assert not set(np.round(ds.switch_t / ds.dt).astype(int)) & \
        set(steps.astype(int))


def test_orientation_stream_is_subset_of_measurements():
    ds = generate(small_config(duration=4.0, meas_rate=20.0, orient_rate=5.0))
    assert 0 < ds.drs_t.size < ds.meas_t.size
    assert set(ds.drs_t).issubset(set(ds.meas_t))
    # roughly the requested rate
    assert abs(ds.drs_t.size - 4.0 * 5.0) <= 1


def test_zero_noise_dataset_is_exactly_consistent():
    # replaying the inputs through the shared process model reproduces the
    # stored truth to machine precision
    ds = generate(small_config(robot_motion="RM1", noise=ZERO_NOISE))
    X = ds.initial_group_element()
    worst = 0.0
    switch_steps = set(np.round(ds.switch_t / ds.dt).astype(int))
    for k in range(ds.imu_t.size):
        X = integrate_mean(X, BiasState(), ds.imu_omega[k], ds.imu_acc[k],
                           ds.contact_v[k], ds.dt)
        step = k + 1
        if step in switch_steps:
            X = GroupElement.from_parts(X.rot, X.v, X.p, ds.truth_pc[step])
        worst = max(worst, np.abs(X.rot - ds.truth_rot[step]).max(),
                    np.abs(X.v - ds.truth_v[step]).max(),
                    np.abs(X.p - ds.truth_p[step]).max(),
                    np.abs(X.pc - ds.truth_pc[step]).max())
    assert worst < 1e-9


@pytest.mark.parametrize("config", [
    # Case A: stepping on the phase-advanced trapezoid, with contact switches
    ScenarioConfig(profile=PitchProfile(kind="TM1", phase_s=2.8),
                   robot_motion="RM1", duration=8.0, meas_rate=100.0,
                   orient_rate=15.0, seed=1, noise=ZERO_NOISE),
    # the criterion-8 scenario: standing on the sinusoid for 10 s
    ScenarioConfig(profile=PitchProfile(kind="TM2"), robot_motion="RM2",
                   duration=10.0, meas_rate=15.0, seed=5000, noise=ZERO_NOISE),
], ids=["case-a", "tm2-rm2"])
def test_closed_form_truth_matches_step_by_step_replay(config):
    # the truth R, v and p are closed forms; replaying the noise-free IMU
    # increments one step at a time through the filter's own integrate_mean
    # must reproduce them
    ds = generate(config)
    X = ds.initial_group_element()
    replay = [(X.rot, X.v, X.p)]
    for k in range(ds.imu_t.size):
        X = integrate_mean(X, BiasState(), ds.imu_omega[k], ds.imu_acc[k],
                           ds.contact_v[k], ds.dt)
        replay.append((X.rot, X.v, X.p))
    for got, want in zip((ds.truth_rot, ds.truth_v, ds.truth_p), zip(*replay)):
        assert np.abs(got - np.array(want)).max() < 1e-12


def test_zero_noise_measurements_match_truth():
    ds = generate(small_config(noise=ZERO_NOISE))
    from drs_inekf.kinematics import VirtualLeg
    leg = VirtualLeg()
    prof = PitchProfile(kind="TM2")
    for j, t in enumerate(ds.meas_t):
        i = int(round(t / ds.dt))
        R, p, pc = ds.truth_rot[i], ds.truth_p[i], ds.truth_pc[i]
        assert np.allclose(leg.h_p(ds.enc_q[j]), R.T @ (pc - p), atol=1e-9)
        assert np.allclose(ds.drs_rot[j], drs_pose_at(prof, t), atol=1e-9)


def test_contact_point_fixed_in_surface_frame_between_switches():
    ds = generate(small_config(profile=PitchProfile(kind="TM1"),
                               robot_motion="RM2", duration=3.0,
                               noise=ZERO_NOISE))
    prof = PitchProfile(kind="TM1")
    pc0_local = drs_pose_at(prof, 0.0).T @ ds.truth_pc[0]
    for i in (100, 300, 500):
        t = ds.truth_t[i]
        local = drs_pose_at(prof, t).T @ ds.truth_pc[i]
        assert np.allclose(local, pc0_local, atol=1e-6)


def test_noise_is_one_stream_drawn_step_by_step():
    # each stream's noise (the noisy dataset minus the zero-noise one) is the
    # seed's normal stream in step order: the biases first, then per IMU step
    # gyro, accel and contact velocity, the encoders of a switch, of a
    # measurement, and the surface orientation of an orientation step
    cfg = small_config(robot_motion="RM1", orient_rate=5.0, draw_biases=True)
    noise = cfg.noise
    ds, ds0 = generate(cfg), generate(replace(cfg, noise=ZERO_NOISE))
    n = ds.imu_t.size

    def steps(times):
        return set(np.round(times / ds.dt).astype(int))

    switch, meas, orient = steps(ds.switch_t), steps(ds.meas_t), steps(ds.drs_t)
    assert switch and orient and orient < meas
    rng = np.random.default_rng(cfg.seed)
    bias = rng.standard_normal(6)
    expected = {name: [] for name in ("gyro", "accel", "contact", "switch",
                                      "encoder", "orient")}
    for step in range(1, n + 1):
        for name in ("gyro", "accel", "contact"):
            expected[name].append(rng.standard_normal(3))
        if step in switch:
            expected["switch"].append(rng.standard_normal(12))
        if step in meas:
            expected["encoder"].append(rng.standard_normal(6))
            if step in orient:
                expected["orient"].append(rng.standard_normal(3))
    contact = np.einsum("kji,kj->ki", ds.truth_rot[:n], ds.contact_v - ds0.contact_v)
    orient_err = [so3_log(R @ R0.T) for R, R0 in zip(ds.drs_rot, ds0.drs_rot)]
    got = {
        "gyro": (ds.imu_omega - ds0.imu_omega - ds.bias[:3]) / noise.sd_gyro,
        "accel": (ds.imu_acc - ds0.imu_acc - ds.bias[3:]) / noise.sd_accel,
        "contact": contact / noise.sd_contact_vel,
        "switch": (ds.switch_q - ds0.switch_q) / noise.sd_encoder,
        "encoder": (ds.enc_q - ds0.enc_q) / noise.sd_encoder,
        "orient": np.array(orient_err) / noise.sd_drs_orient,
    }
    assert np.abs(ds.bias[:3] / noise.sd_bias_gyro - bias[:3]).max() < 1e-9
    assert np.abs(ds.bias[3:] / noise.sd_bias_accel - bias[3:]).max() < 1e-9
    for name, draws in expected.items():
        assert got[name].shape == np.shape(draws), name
        assert np.abs(got[name] - np.array(draws)).max() < 1e-9, name


def test_mismatched_reported_profile():
    cfg = small_config(profile=PitchProfile(kind="TM1"),
                       filter_profile=PitchProfile(kind="TM3"),
                       noise=ZERO_NOISE)
    ds = generate(cfg)
    tm3 = PitchProfile(kind="TM3")
    for j, t in enumerate(ds.drs_t):
        assert np.allclose(ds.drs_rot[j], drs_pose_at(tm3, t), atol=1e-9)
    assert ds.meta["filter_profile"] == "TM3"
    assert ds.meta["profile"] == "TM1"


def test_imu_from_trajectory_inverts_integration():
    rng = np.random.default_rng(0)
    dt = 0.01
    n = 50
    times = np.arange(n + 1) * dt
    rots = [so3_exp(rng.uniform(-0.1, 0.1, 3))]
    vels = [rng.standard_normal(3)]
    for _ in range(n):
        rots.append(rots[-1] @ so3_exp(rng.uniform(-0.05, 0.05, 3)))
        vels.append(vels[-1] + rng.uniform(-0.1, 0.1, 3))
    omega, acc = imu_from_trajectory(times, rots, np.array(vels))
    X = GroupElement.from_parts(rots[0], vels[0], np.zeros(3), np.zeros(3))
    for k in range(n):
        X = integrate_mean(X, BiasState(), omega[k], acc[k], np.zeros(3), dt)
        assert np.abs(X.rot - rots[k + 1]).max() < 1e-12
        assert np.abs(X.v - vels[k + 1]).max() < 1e-12


def test_initial_error_draw_bounds():
    rng = np.random.default_rng(1)
    dvs = np.empty((10000, 3))
    dphis = np.empty((10000, 3))
    for i in range(10000):
        dvs[i], dphis[i] = initial_error_draw(rng)
    assert np.all(np.abs(dvs) <= 1.5)
    assert np.all(np.abs(dphis) <= 1.0)
    # draws actually fill the range
    assert dvs.max() > 1.3 and dvs.min() < -1.3
    assert dphis.max() > 0.9 and dphis.min() < -0.9


def test_drawn_biases_recorded():
    ds = generate(small_config(draw_biases=True))
    assert np.any(ds.bias != 0.0)
    ds0 = generate(small_config())
    assert np.all(ds0.bias == 0.0)


def test_jsonl_roundtrip(tmp_path):
    ds = generate(small_config(robot_motion="RM1", duration=2.0,
                               orient_rate=5.0))
    path = tmp_path / "scenario.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert np.allclose(back.truth_rot, ds.truth_rot, atol=1e-12)
    assert np.allclose(back.truth_v, ds.truth_v, atol=1e-12)
    assert np.allclose(back.imu_omega, ds.imu_omega, atol=1e-12)
    assert np.allclose(back.contact_v, ds.contact_v, atol=1e-12)
    assert np.allclose(back.enc_q, ds.enc_q, atol=1e-12)
    assert np.allclose(back.meas_t, ds.meas_t, atol=1e-12)
    assert np.allclose(back.drs_t, ds.drs_t, atol=1e-12)
    assert np.allclose(back.drs_rot, ds.drs_rot, atol=1e-12)
    assert np.allclose(back.switch_q, ds.switch_q, atol=1e-12)
    assert back.meta["robot_motion"] == "RM1"


def test_load_rejects_missing_meta(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "imu", "t": 0.0, "omega": [0,0,0], "acc": [0,0,0]}\n')
    with pytest.raises(ValueError):
        load_jsonl(path)


def test_load_rejects_non_finite_fields(tmp_path):
    ds = generate(small_config(duration=1.0))
    full = tmp_path / "full.jsonl"
    save_jsonl(ds, full)
    lines = full.read_text().splitlines()
    for kind, key in (("truth", "v"), ("imu", "omega"), ("meta", "dt")):
        i = next(i for i, line in enumerate(lines) if f'"type": "{kind}"' in line)
        rec = json.loads(lines[i])
        rec[key] = None if kind == "meta" else [None, 0.0, 0.0]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:i] + [json.dumps(rec)] + lines[i + 1:]) + "\n")
        with pytest.raises(ValueError, match=f"{kind} record has a non-finite '{key}'"):
            load_jsonl(path)


def test_load_rejects_strings_and_booleans_as_numbers(tmp_path):
    # numpy would read "0.0" as 0.0 and true as 1.0
    ds = generate(small_config(duration=1.0))
    full = tmp_path / "full.jsonl"
    save_jsonl(ds, full)
    lines = full.read_text().splitlines()
    for kind, key, value in (("truth", "t", "0.0"), ("imu", "omega", [True, 0, 0]),
                             ("encoder", "q", [0, "0", 0, 0, 0, 0]),
                             ("meta", "dt", False)):
        i = next(i for i, line in enumerate(lines) if f'"type": "{kind}"' in line)
        rec = json.loads(lines[i])
        rec[key] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:i] + [json.dumps(rec)] + lines[i + 1:]) + "\n")
        with pytest.raises(ValueError, match=f"{kind} record has a malformed '{key}'"):
            load_jsonl(path)


def test_load_rejects_unknown_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    meta = '{"type": "meta", "dt": 0.005}\n'
    for record in ('{"type": "mystery"}', '{"t": 0.0}', '[1, 2]'):
        path.write_text(meta + record + "\n")
        with pytest.raises(ValueError, match="unknown record type"):
            load_jsonl(path)
