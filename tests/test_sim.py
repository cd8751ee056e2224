"""Scenario generator: determinism, exactness, schedules, serialization."""

import io
import json
import math
import re
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drs_inekf.drs import PitchProfile, drs_pose_at
from drs_inekf.liegroup import rot_to_quat, so3_exp, so3_log
from drs_inekf.sim import (MAX_IMU_STEPS, RECORDS, ScenarioConfig,
                           ScenarioDataset, _event_steps, generate,
                           imu_from_trajectory, initial_error_draw, load_jsonl,
                           save_jsonl, write_jsonl)
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
    # non-finite numbers, a step period that is not positive and a negative
    # seed; the step periods used to hang the switch placement of generate
    for kw in ({"duration": math.nan}, {"duration": math.inf},
               {"imu_rate": math.nan}, {"meas_rate": math.nan},
               {"orient_rate": math.inf}, {"base_height": math.nan},
               {"stride_width": -math.inf},
               {"step_period": 0.0}, {"step_period": -0.8},
               {"step_period": math.nan}, {"seed": -1}):
        with pytest.raises(ValueError):
            small_config(**kw)


def test_config_bounds_the_imu_step_count():
    # checked before generate allocates a sample: at most MAX_IMU_STEPS, and a
    # step count that overflows is above the bound too
    assert small_config(duration=MAX_IMU_STEPS / 200.0).imu_rate == 200.0
    for duration, imu_rate in ((5000.01, 200.0), (1e300, 1e300)):
        with pytest.raises(ValueError, match="more than 1,000,000 IMU steps"):
            small_config(duration=duration, imu_rate=imu_rate)


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


def test_validate_returns_the_event_schedule():
    # per IMU step, the switch, encoder and orientation record that falls at
    # its end, or -1; the rotations of a generated dataset own their memory
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM1"), duration=3.0,
                                 meas_rate=100.0, orient_rate=15.0, seed=4))
    schedule = ds.validate()
    assert schedule.shape == (ds.imu_t.size, 3)
    for col, times in enumerate((ds.switch_t, ds.meas_t, ds.drs_t)):
        assert times.size > 0
        want = np.full(ds.imu_t.size, -1)
        for j, t in enumerate(times):
            want[np.argmin(np.abs(ds.imu_t + ds.dt - t))] = j
        assert np.array_equal(schedule[:, col], want)
    assert ds.truth_rot.base is None


def _grid_dataset(n, switch_steps, orient_steps, dt=0.005):
    """A dataset of n IMU steps of zeros, an encoder record on every step and
    the given switch and orientation steps, built without generate; the
    arrays that validate does not read are broadcast views."""
    t = np.arange(n + 1) * dt
    zeros = np.zeros((n, 3))
    switch_steps, orient_steps = (np.asarray(s, dtype=int)
                                  for s in (switch_steps, orient_steps))
    return ScenarioDataset(
        dt=dt, truth_t=t, truth_rot=np.broadcast_to(np.eye(3), (n + 1, 3, 3)),
        truth_v=zeros, truth_p=zeros, truth_pc=zeros, bias=np.zeros(6),
        imu_t=t[:-1], imu_omega=zeros, imu_acc=zeros, contact_v=zeros,
        meas_t=t[1:], enc_q=np.broadcast_to(0.0, (n, 6)),
        drs_t=t[orient_steps + 1],
        drs_rot=np.broadcast_to(np.eye(3), (orient_steps.size, 3, 3)),
        switch_t=t[switch_steps + 1],
        switch_q=np.broadcast_to(0.0, (switch_steps.size, 12)), meta={})


_STEPS = st.lists(st.integers(0, 49), max_size=30)


@settings(max_examples=200, deadline=None)
@given(steps=st.one_of(_STEPS, _STEPS.map(sorted), _STEPS.map(set).map(list),
                       _STEPS.map(set).map(sorted)),
       stream=st.sampled_from(["contact switch", "surface orientation"]))
def test_validate_finds_a_repeated_step_as_np_unique_does(steps, stream):
    # the switch and orientation streams are not order-checked, so their
    # steps come sorted or not, with repeats or without
    steps = np.array(steps, dtype=int)
    ds = _grid_dataset(50, *((steps, []) if stream == "contact switch"
                             else ([], steps)))
    if np.unique(steps).size < steps.size:
        with pytest.raises(ValueError, match=f"^two {stream} events fall on "
                           "one IMU step$"):
            ds.validate()
    else:
        schedule = ds.validate()
        col = 0 if stream == "contact switch" else 2
        assert np.array_equal(schedule[steps, col], np.arange(steps.size))


def test_validate_of_a_million_steps_takes_well_under_a_second():
    # numpy 2.4's np.unique hashes, and took 0.70 s per 10**6 sorted steps;
    # here each of the three streams has 10**6 or 5 * 10**5 events
    n = MAX_IMU_STEPS
    ds = _grid_dataset(n, np.arange(0, n, 2), np.arange(n))
    start = time.perf_counter()
    schedule = ds.validate()
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(schedule[:, 1], np.arange(n))
    assert np.array_equal(schedule[::2, 0], np.arange(n // 2))


@pytest.mark.parametrize("imu_rate, dt", [(5.0, "0.2"),
                                          (10.0, "0.10000000000000003")])
def test_generate_rejects_imu_steps_above_max_dt(imu_rate, dt):
    # at 10 Hz the grid's steps round above MAX_DT = 0.1 s; 12.5 Hz is the
    # nearest valid rate above it
    with pytest.raises(ValueError, match=re.escape(
            f"dt must be in (0, 0.1], got {dt}")):
        generate(small_config(imu_rate=imu_rate, meas_rate=imu_rate / 2))
    generate(small_config(imu_rate=12.5, meas_rate=6.25))


def test_orientation_stream_is_subset_of_measurements():
    ds = generate(small_config(duration=4.0, meas_rate=20.0, orient_rate=5.0))
    assert 0 < ds.drs_t.size < ds.meas_t.size
    assert set(ds.drs_t).issubset(set(ds.meas_t))
    # roughly the requested rate
    assert abs(ds.drs_t.size - 4.0 * 5.0) <= 1


def _reference_event_steps(config, n, dt):
    """The event schedule of generate as it was placed by loops, verbatim."""
    # measurement schedule, snapped to the IMU grid
    meas = np.unique(np.round(np.arange(1, int(config.duration * config.meas_rate) + 1)
                              / config.meas_rate / dt).astype(int))
    meas = meas[(meas > 0) & (meas <= n)]
    if not meas.size:
        raise ValueError("no measurement step falls within the duration")
    # surface-orientation schedule: nearest measurement step to each nominal time
    orient_rate = config.meas_rate if config.orient_rate is None else config.orient_rate
    orient = set()
    if orient_rate > 0.0:
        for j in range(1, int(config.duration * orient_rate) + 1):
            target = int(round(j / orient_rate / dt))
            orient.add(int(meas[np.argmin(np.abs(meas - target))]))
    orient = np.array(sorted(orient), dtype=int)
    # contact switches on the grid, each shifted past the one before and off
    # any measurement step, and so still on the grid
    meas_set, switch = set(meas.tolist()), []
    if config.robot_motion == "RM1":
        i = 1
        while (s := int(round(i * config.step_period / dt))) < n:
            if s == 0:
                raise ValueError(f"step_period {config.step_period:g} s rounds "
                                 "to zero IMU steps")
            if switch:
                s = max(s, switch[-1] + 1)
            while s in meas_set:
                s += 1
            if s > n:
                raise ValueError(f"contact switch {i} (t = {i * config.step_period:.6g}"
                                 " s) finds no free IMU step: every later step "
                                 "holds a measurement or another switch")
            switch.append(s)
            i += 1
    switch = np.array(switch, dtype=int)
    return meas, orient, switch


@settings(max_examples=400, deadline=None)
@given(robot_motion=st.sampled_from(["RM1", "RM2"]),
       imu_rate=st.one_of(st.sampled_from([50.0, 100.0, 200.0, 333.0]),
                          st.floats(1.0, 1000.0)),
       steps=st.floats(0.2, 400.0),
       meas_frac=st.one_of(st.just(1.0), st.sampled_from([0.5, 0.6, 0.625, 0.75]),
                           st.floats(0.01, 1.0)),
       orient=st.one_of(st.none(), st.just(0.0), st.sampled_from([0.25, 0.4, 0.5]),
                        st.floats(0.0, 1.0)),
       period_steps=st.one_of(st.floats(0.05, 0.6), st.floats(0.6, 3.0),
                              st.sampled_from([1.0, 1.5, 2.0, 2.5, 2.8]),
                              st.floats(3.0, 100.0)))
# the stress schedule, measurements on every step (no free step for a
# switch), a period that rounds to zero steps and one that cascades
@example(robot_motion="RM1", imu_rate=200.0, steps=400.0, meas_frac=0.625,
         orient=0.4, period_steps=2.8)
@example(robot_motion="RM1", imu_rate=200.0, steps=100.0, meas_frac=1.0,
         orient=None, period_steps=10.0)
@example(robot_motion="RM1", imu_rate=200.0, steps=100.0, meas_frac=0.5,
         orient=0.0, period_steps=0.4)
@example(robot_motion="RM1", imu_rate=200.0, steps=200.0, meas_frac=0.5,
         orient=0.8, period_steps=1.4)
def test_event_steps_match_the_loops(robot_motion, imu_rate, steps, meas_frac,
                                     orient, period_steps):
    # the stacked schedule gives the loops' steps, or raises their error
    meas_rate = imu_rate * meas_frac
    config = ScenarioConfig(
        robot_motion=robot_motion, duration=steps / imu_rate, imu_rate=imu_rate,
        meas_rate=meas_rate,
        orient_rate=None if orient is None else orient * meas_rate,
        step_period=period_steps / imu_rate)
    dt = 1.0 / imu_rate
    n = int(round(config.duration * imu_rate))
    if n == 0:
        return

    def outcome(schedule):
        try:
            return schedule(config, n, dt)
        except ValueError as exc:
            return str(exc)

    got, want = outcome(_event_steps), outcome(_reference_event_steps)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype.kind == "i" and np.array_equal(g, w)


def test_stress_schedule_moves_pushes_and_ties():
    # 125 Hz measurements on 200 Hz steps leave every third or fourth step
    # free, and 50 Hz orientation samples fall on midpoints: some switches
    # move off a measurement, some past the switch before, and some
    # orientation samples tie (the schedule-stress scenario of
    # tools/same_outputs.py)
    config = ScenarioConfig(robot_motion="RM1", duration=2.0, imu_rate=200.0,
                            meas_rate=125.0, orient_rate=50.0, step_period=0.014)
    dt = 1.0 / config.imu_rate
    n = int(round(config.duration * config.imu_rate))
    meas, orient, switch = _event_steps(config, n, dt)
    nominal = np.round(np.arange(1, switch.size + 1) * config.step_period / dt)
    earliest = np.maximum(nominal, np.append(0, switch[:-1] + 1))
    assert np.isin(earliest, meas).any()             # moved off a measurement
    assert (nominal <= np.append(0, switch[:-1])).any()  # pushed past the last
    target = np.round(np.arange(1, 101) / config.orient_rate / dt)
    at = np.searchsorted(meas, target)
    assert (~np.isin(target, meas) & (target - meas[at - 1] == meas[at] - target)).any()


def test_event_steps_at_the_step_cap_take_linear_time():
    # the loops took 10.8 s for 10**5 steps of RM2 with measurements and
    # orientation samples at the IMU rate, one argmin over every measurement
    # step per orientation sample; the cap is 10**6 steps
    dt = 1.0 / 200.0
    for robot_motion, rate in (("RM2", 200.0), ("RM1", 100.0)):
        config = ScenarioConfig(robot_motion=robot_motion, imu_rate=200.0,
                                duration=MAX_IMU_STEPS * dt, meas_rate=rate,
                                orient_rate=rate)
        start = time.perf_counter()
        meas, orient, switch = _event_steps(config, MAX_IMU_STEPS, dt)
        assert time.perf_counter() - start < 5.0
        stride = int(200.0 / rate)
        assert np.array_equal(meas, np.arange(stride, MAX_IMU_STEPS + 1, stride))
        assert np.array_equal(orient, meas)
        # RM1: every 160th step is a switch's, and a measurement's, so the
        # switch moves to the step after it
        want = np.arange(160, MAX_IMU_STEPS, 160) + 1 if robot_motion == "RM1" else []
        assert np.array_equal(switch, want)


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
    # the record table covers every field but dt, bias and meta, which the
    # meta record holds; every field reads back exactly, except the rotations,
    # which travel as quaternions
    names = {f.name for f in fields(ScenarioDataset)}
    table = {time for time, _ in RECORDS.values()} | {
        attr for _, entries in RECORDS.values() for _, attr, _ in entries}
    assert table | {"dt", "bias", "meta"} == names
    assert not table & {"dt", "bias", "meta"}
    ds = generate(small_config(robot_motion="RM1", duration=2.0,
                               orient_rate=5.0, draw_biases=True))
    assert ds.switch_t.size and ds.drs_t.size and np.any(ds.bias != 0.0)
    path = tmp_path / "scenario.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.dt == ds.dt
    assert back.meta == ds.meta and back.meta["robot_motion"] == "RM1"
    for name in sorted(names - {"dt", "meta"}):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.shape == want.shape, name
        if name.endswith("_rot"):
            assert np.abs(got - want).max() <= 1e-15, name
        else:
            assert np.array_equal(got, want), name


def _reference_write_jsonl(dataset, fh):
    """The per-record writer that the record table replaced."""
    fh.write(json.dumps({"type": "meta", "dt": dataset.dt,
                         "bias": list(dataset.bias), **dataset.meta}) + "\n")
    truth_quat = rot_to_quat(dataset.truth_rot).tolist()
    for i, t in enumerate(dataset.truth_t):
        fh.write(json.dumps({
            "type": "truth", "t": t,
            "quat": truth_quat[i],
            "v": list(dataset.truth_v[i]), "p": list(dataset.truth_p[i]),
            "p_c": list(dataset.truth_pc[i])}) + "\n")
    for i, t in enumerate(dataset.imu_t):
        fh.write(json.dumps({
            "type": "imu", "t": t,
            "omega": list(dataset.imu_omega[i]),
            "acc": list(dataset.imu_acc[i])}) + "\n")
        fh.write(json.dumps({
            "type": "contact_vel", "t": t,
            "v_c": list(dataset.contact_v[i])}) + "\n")
    for i, t in enumerate(dataset.meas_t):
        fh.write(json.dumps({
            "type": "encoder", "t": t,
            "q": list(dataset.enc_q[i])}) + "\n")
    for t, quat in zip(dataset.drs_t, rot_to_quat(dataset.drs_rot).tolist()):
        fh.write(json.dumps({"type": "drs_pose", "t": t, "quat": quat}) + "\n")
    for i, t in enumerate(dataset.switch_t):
        fh.write(json.dumps({
            "type": "contact_switch", "t": t,
            "q_prev": list(dataset.switch_q[i][:6]),
            "q_new": list(dataset.switch_q[i][6:])}) + "\n")


@settings(max_examples=80, deadline=None)
@given(robot_motion=st.sampled_from(["RM1", "RM2"]),
       steps=st.integers(2, 160),
       period_steps=st.integers(3, 60),
       orient=st.one_of(st.none(), st.just(0.0), st.floats(0.05, 1.0)),
       draw_biases=st.booleans(),
       seed=st.integers(0, 2**16))
def test_write_jsonl_writes_the_reference_bytes(robot_motion, steps, period_steps,
                                                orient, draw_biases, seed):
    # a few IMU steps up to 0.8 s, with and without contact switches and
    # surface-orientation records, so every record kind may be empty but imu
    meas_rate = 100.0
    ds = generate(ScenarioConfig(
        profile=PitchProfile(kind="TM1"), robot_motion=robot_motion,
        duration=steps / 200.0, meas_rate=meas_rate,
        orient_rate=None if orient is None else orient * meas_rate,
        step_period=period_steps / 200.0, draw_biases=draw_biases, seed=seed))
    new, ref = io.StringIO(), io.StringIO()
    write_jsonl(ds, new)
    _reference_write_jsonl(ds, ref)
    assert new.getvalue() == ref.getvalue()


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


@settings(max_examples=150, deadline=None)
@given(robot_motion=st.sampled_from(["RM1", "RM2"]),
       imu_rate=st.sampled_from([50.0, 100.0, 200.0, 333.0]),
       steps=st.floats(0.2, 400.0),
       meas_frac=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       period_steps=st.one_of(st.floats(0.05, 3.0), st.floats(3.0, 100.0)),
       orient=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**16))
def test_generate_gives_a_valid_dataset_or_value_error(
        tmp_path_factory, robot_motion, imu_rate, steps, meas_frac,
        period_steps, orient, seed):
    # the write side of the dataset contract: at most about 400 IMU steps,
    # measurements up to every step, step periods near one IMU step and an
    # absent or default surface-orientation stream
    meas_rate = imu_rate * meas_frac
    try:
        ds = generate(ScenarioConfig(
            profile=PitchProfile(kind="TM2"), robot_motion=robot_motion,
            duration=steps / imu_rate, imu_rate=imu_rate, meas_rate=meas_rate,
            orient_rate=None if orient is None else orient * meas_rate,
            step_period=period_steps / imu_rate, seed=seed))
    except ValueError:
        return
    ds.validate()
    path = tmp_path_factory.mktemp("contract") / "scenario.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    for name in ("truth_t", "truth_v", "truth_p", "truth_pc", "imu_t",
                 "imu_omega", "imu_acc", "contact_v", "meas_t", "enc_q",
                 "drs_t", "switch_t", "switch_q"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name
    # rotations travel as quaternions
    for name in ("truth_rot", "drs_rot"):
        assert np.abs(getattr(back, name) - getattr(ds, name)).max(
            initial=0.0) < 1e-12, name
