"""Synthetic scenario generator for treadmill locomotion.

Ground truth is produced by integrating the filter's own deterministic
process model with inputs synthesized as exact per-interval increments of a
closed-form reference trajectory.  Sensor samples therefore represent
interval-averaged readings, and with zero noise the dataset is exactly
explainable by the filter's models.

The contact point is fixed in the surface frame during each stance; stepping
(RM1) switches the support foot between two lateral footholds at a fixed
period, with switch times kept off the measurement grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .drs import PitchProfile, drs_pose_at
from .filter import GRAVITY, integrate_mean
from .kinematics import VirtualLeg
from .liegroup import (GroupElement, quat_to_rot, rot_to_quat, so3_exp,
                       so3_left_jacobian_inv, so3_log)
from .state import BiasState, NoiseConfig

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ScenarioConfig:
    profile: PitchProfile = field(default_factory=lambda: PitchProfile(kind="TM1"))
    filter_profile: PitchProfile | None = None   # reported surface motion; None = truth
    robot_motion: str = "RM1"                    # RM1 stepping | RM2 standing
    duration: float = 20.0
    imu_rate: float = 200.0
    meas_rate: float = 15.0
    orient_rate: float | None = None             # surface-orientation stream rate;
                                                 # None = meas_rate, 0 = stream absent
    step_period: float = 0.8
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    contact_offset: tuple = (0.3, 0.0, 0.0)      # nominal foothold, surface frame (m)
    stride_width: float = 0.1                    # lateral foothold offset (m)
    base_height: float = 0.9                     # nominal base height above foothold (m)
    sway_pos_amp: tuple | None = None            # m; None = default for robot_motion
    sway_rot_amp: tuple | None = None            # rad
    draw_biases: bool = False                    # constant biases drawn from walk SDs

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.imu_rate <= 0.0 or self.meas_rate <= 0.0:
            raise ValueError("rates must be positive")
        if self.meas_rate > self.imu_rate:
            raise ValueError("measurement rate must not exceed the IMU rate")
        if self.orient_rate is not None and not (0.0 <= self.orient_rate <= self.meas_rate):
            raise ValueError("orientation rate must be in [0, meas_rate]")
        if self.robot_motion not in ("RM1", "RM2"):
            raise ValueError(f"unknown robot motion: {self.robot_motion}")


@dataclass
class ScenarioDataset:
    dt: float
    truth_t: np.ndarray        # (n+1,)
    truth_rot: np.ndarray      # (n+1, 3, 3)
    truth_v: np.ndarray        # (n+1, 3)
    truth_p: np.ndarray
    truth_pc: np.ndarray
    bias: np.ndarray           # (6,) constant true biases
    imu_t: np.ndarray          # (n,)
    imu_omega: np.ndarray
    imu_acc: np.ndarray
    contact_v: np.ndarray      # (n, 3), aligned with imu_t
    meas_t: np.ndarray         # (m,)
    enc_q: np.ndarray          # (m, 6)
    drs_t: np.ndarray          # (mo,) subset of meas_t
    drs_rot: np.ndarray        # (mo, 3, 3)
    switch_t: np.ndarray       # (k,)
    switch_q: np.ndarray       # (k, 12) stacked prev/new leg joints
    meta: dict

    def initial_group_element(self):
        return GroupElement.from_parts(self.truth_rot[0], self.truth_v[0],
                                       self.truth_p[0], self.truth_pc[0])


class _BaseReference:
    """Closed-form world-frame base trajectory: bounded sway about a fixed pose."""

    def __init__(self, config):
        if config.sway_pos_amp is not None:
            pos_amp = np.asarray(config.sway_pos_amp, dtype=float)
        elif config.robot_motion == "RM1":
            pos_amp = np.array([0.03, 0.05, 0.02])
        else:
            pos_amp = np.array([0.015, 0.02, 0.01])
        if config.sway_rot_amp is not None:
            rot_amp = np.asarray(config.sway_rot_amp, dtype=float)
        elif config.robot_motion == "RM1":
            rot_amp = np.array([0.02, 0.03, 0.04])
        else:
            rot_amp = np.array([0.01, 0.015, 0.02])
        if config.robot_motion == "RM1":
            f_step = 1.0 / config.step_period
            self.pos_freq = _TWO_PI * np.array([f_step, 0.5 * f_step, 2.0 * f_step])
            self.rot_freq = _TWO_PI * np.array([0.5 * f_step, f_step, 0.5 * f_step])
        else:
            self.pos_freq = _TWO_PI * np.array([0.3, 0.25, 0.5])
            self.rot_freq = _TWO_PI * np.array([0.2, 0.3, 0.25])
        self.pos_amp = pos_amp
        self.rot_amp = rot_amp
        self.pos_phase = np.array([0.0, 1.1, 2.3])
        self.rot_phase = np.array([0.7, 1.9, 0.4])
        offset = np.asarray(config.contact_offset, dtype=float)
        self.p0 = offset + np.array([0.0, 0.0, config.base_height])

    def position(self, t):
        return self.p0 + self.pos_amp * np.sin(self.pos_freq * t + self.pos_phase)

    def velocity(self, t):
        return self.pos_amp * self.pos_freq * np.cos(self.pos_freq * t + self.pos_phase)

    def rotation(self, t):
        rho = self.rot_amp * np.sin(self.rot_freq * t + self.rot_phase)
        return so3_exp(rho)


def _imu_increment(R0, R1, v0, v1, dt):
    """Body rate and specific force that, held constant over dt, carry the
    IMU motion model from (R0, v0) to (R1, v1)."""
    w = so3_log(R0.T @ R1) / dt
    return w, so3_left_jacobian_inv(w * dt) @ (R0.T @ (v1 - v0 - GRAVITY * dt)) / dt


def imu_from_trajectory(times, rotations, velocities):
    """Exact-increment IMU synthesis from a sampled pose trajectory.

    Returns per-interval body angular velocity and specific force such that
    integrating the IMU motion model with constant inputs over each interval
    reproduces the trajectory at the sample times.
    """
    times = np.asarray(times, dtype=float)
    n = times.size - 1
    omega = np.empty((n, 3))
    acc = np.empty((n, 3))
    for k in range(n):
        omega[k], acc[k] = _imu_increment(rotations[k], rotations[k + 1],
                                          velocities[k], velocities[k + 1],
                                          times[k + 1] - times[k])
    return omega, acc


def initial_error_draw(rng):
    """Velocity and orientation offsets for one filter run.

    Each velocity component is uniform in [-1.5, 1.5] m/s; each orientation
    exponential coordinate is uniform in [-1, 1] rad.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dv = rng.uniform(-1.5, 1.5, size=3)
    dphi = rng.uniform(-1.0, 1.0, size=3)
    return dv, dphi


def _leg_ik(leg, R, p, pc_world, R_foot):
    return leg.inverse(R.T @ (pc_world - p), R.T @ R_foot)


def generate(config):
    """Produce a ScenarioDataset for the given configuration."""
    rng = np.random.default_rng(config.seed)
    noise = config.noise
    leg = VirtualLeg()
    dt = 1.0 / config.imu_rate
    n = int(round(config.duration * config.imu_rate))
    times = np.arange(n + 1) * dt

    true_profile = config.profile
    filt_profile = config.filter_profile or config.profile

    # measurement schedule, snapped to the IMU grid
    meas_steps = sorted({int(round(j / config.meas_rate / dt))
                         for j in range(1, int(config.duration * config.meas_rate) + 1)})
    meas_steps = [s for s in meas_steps if 0 < s <= n]
    meas_set = set(meas_steps)
    # surface-orientation schedule: nearest measurement step to each nominal time
    orient_rate = config.meas_rate if config.orient_rate is None else config.orient_rate
    orient_set = set()
    if orient_rate > 0.0 and meas_steps:
        meas_arr = np.array(meas_steps)
        for j in range(1, int(config.duration * orient_rate) + 1):
            target = int(round(j / orient_rate / dt))
            orient_set.add(int(meas_arr[np.argmin(np.abs(meas_arr - target))]))
    # contact switches on the grid, shifted off any measurement step
    switch_steps = []
    if config.robot_motion == "RM1":
        i = 1
        while True:
            s = int(round(i * config.step_period / dt))
            if s >= n:
                break
            while s in meas_set or s in switch_steps:
                s += 1
            switch_steps.append(s)
            i += 1
    switch_set = set(switch_steps)

    offset = np.asarray(config.contact_offset, dtype=float)
    lateral = np.array([0.0, config.stride_width, 0.0])
    footholds = [offset + lateral, offset - lateral]
    stance = 0

    base = _BaseReference(config)
    bias = np.zeros(6)
    if config.draw_biases:
        bias[:3] = noise.sd_bias_gyro * rng.standard_normal(3)
        bias[3:] = noise.sd_bias_accel * rng.standard_normal(3)
    zero_bias = BiasState()

    def drs_rot_true(t):
        return drs_pose_at(true_profile, t).R_drs

    def drs_rot_filt(t):
        return drs_pose_at(filt_profile, t).R_drs

    pc_drs = footholds[stance]
    R = base.rotation(0.0)
    v = base.velocity(0.0)
    p = base.position(0.0)
    pc = drs_rot_true(0.0) @ pc_drs

    truth_rot = np.empty((n + 1, 3, 3))
    truth_v = np.empty((n + 1, 3))
    truth_p = np.empty((n + 1, 3))
    truth_pc = np.empty((n + 1, 3))
    imu_omega = np.empty((n, 3))
    imu_acc = np.empty((n, 3))
    contact_v = np.empty((n, 3))
    enc_q = []
    drs_rot_meas = []
    drs_t = []
    meas_t = []
    switch_t = []
    switch_q = []

    truth_rot[0], truth_v[0], truth_p[0], truth_pc[0] = R, v, p, pc

    for k in range(n):
        t0, t1 = times[k], times[k + 1]
        # exact-increment inputs from the reference trajectory
        w_k, a_k = _imu_increment(R, base.rotation(t1), v, base.velocity(t1), dt)
        vc_true = (drs_rot_true(t1) - drs_rot_true(t0)) @ pc_drs / dt
        vc_filt = (drs_rot_filt(t1) - drs_rot_filt(t0)) @ pc_drs / dt

        imu_omega[k] = w_k + bias[:3] + noise.sd_gyro * rng.standard_normal(3)
        imu_acc[k] = a_k + bias[3:] + noise.sd_accel * rng.standard_normal(3)
        contact_v[k] = vc_filt + R @ (noise.sd_contact_vel * rng.standard_normal(3))

        X = integrate_mean(GroupElement.from_parts(R, v, p, pc), zero_bias,
                           w_k, a_k, vc_true, dt)
        R, v, p, pc = X.rot, X.v, X.p, X.pc

        step = k + 1
        if step in switch_set:
            R_foot = drs_rot_true(t1)
            q_prev = _leg_ik(leg, R, p, pc, R_foot)
            stance = 1 - stance
            pc_drs = footholds[stance]
            pc = drs_rot_true(t1) @ pc_drs
            q_new = _leg_ik(leg, R, p, pc, R_foot)
            q_stacked = np.concatenate([q_prev, q_new])
            q_stacked += noise.sd_encoder * rng.standard_normal(12)
            switch_t.append(t1)
            switch_q.append(q_stacked)
        if step in meas_set:
            R_foot = drs_rot_true(t1)
            q = _leg_ik(leg, R, p, pc, R_foot)
            enc_q.append(q + noise.sd_encoder * rng.standard_normal(6))
            if step in orient_set:
                drs_rot_meas.append(
                    so3_exp(noise.sd_drs_orient * rng.standard_normal(3))
                    @ drs_rot_filt(t1))
                drs_t.append(t1)
            meas_t.append(t1)

        truth_rot[step], truth_v[step], truth_p[step], truth_pc[step] = R, v, p, pc

    meta = {
        "profile": true_profile.kind,
        "filter_profile": filt_profile.kind,
        "robot_motion": config.robot_motion,
        "duration": config.duration,
        "imu_rate": config.imu_rate,
        "meas_rate": config.meas_rate,
        "orient_rate": orient_rate,
        "step_period": config.step_period,
        "stride_width": config.stride_width,
        "contact_offset": list(offset),
        "base_height": config.base_height,
        "seed": config.seed,
    }
    return ScenarioDataset(
        dt=dt,
        truth_t=times,
        truth_rot=truth_rot, truth_v=truth_v, truth_p=truth_p,
        truth_pc=truth_pc, bias=bias,
        imu_t=times[:n], imu_omega=imu_omega, imu_acc=imu_acc,
        contact_v=contact_v,
        meas_t=np.array(meas_t), enc_q=np.array(enc_q).reshape(-1, 6),
        drs_t=np.array(drs_t),
        drs_rot=np.array(drs_rot_meas).reshape(-1, 3, 3),
        switch_t=np.array(switch_t),
        switch_q=np.array(switch_q).reshape(-1, 12),
        meta=meta,
    )


def save_jsonl(dataset, path):
    """Serialize a dataset to JSON Lines with a leading meta record."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "meta", "dt": dataset.dt,
                             "bias": list(dataset.bias), **dataset.meta}) + "\n")
        for i, t in enumerate(dataset.truth_t):
            fh.write(json.dumps({
                "type": "truth", "t": t,
                "quat": list(rot_to_quat(dataset.truth_rot[i])),
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
        for i, t in enumerate(dataset.drs_t):
            fh.write(json.dumps({
                "type": "drs_pose", "t": t,
                "quat": list(rot_to_quat(dataset.drs_rot[i]))}) + "\n")
        for i, t in enumerate(dataset.switch_t):
            fh.write(json.dumps({
                "type": "contact_switch", "t": t,
                "q_prev": list(dataset.switch_q[i][:6]),
                "q_new": list(dataset.switch_q[i][6:])}) + "\n")


def load_jsonl(path):
    """Reconstruct a ScenarioDataset from a JSON Lines file."""
    meta = None
    records = {kind: [] for kind in ("truth", "imu", "contact_vel", "encoder",
                                     "drs_pose", "contact_switch")}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("type")
            if kind == "meta":
                meta = rec
            elif kind in records:
                records[kind].append(rec)
            else:
                raise ValueError(f"unknown record type: {kind}")
    truth, imu, cvel, enc, drs_q, switches = records.values()
    if meta is None:
        raise ValueError("dataset has no meta record")
    bias = np.array(meta.pop("bias", [0.0] * 6))
    dt = meta.pop("dt")
    if not imu:
        raise ValueError("dataset has no IMU records")
    if len(cvel) != len(imu):
        raise ValueError(f"dataset has {len(cvel)} contact_vel records for "
                         f"{len(imu)} IMU records")
    # the filter is scored up to the end of the last IMU step
    tol = 0.25 * dt
    if not truth or truth[0]["t"] > imu[0]["t"] + tol \
            or truth[-1]["t"] < imu[-1]["t"] + dt - tol:
        raise ValueError("truth records do not span the IMU window")
    return ScenarioDataset(
        dt=dt,
        truth_t=np.array([r["t"] for r in truth]),
        truth_rot=np.array([quat_to_rot(r["quat"]) for r in truth]).reshape(-1, 3, 3),
        truth_v=np.array([r["v"] for r in truth]).reshape(-1, 3),
        truth_p=np.array([r["p"] for r in truth]).reshape(-1, 3),
        truth_pc=np.array([r["p_c"] for r in truth]).reshape(-1, 3),
        bias=bias,
        imu_t=np.array([r["t"] for r in imu]),
        imu_omega=np.array([r["omega"] for r in imu]).reshape(-1, 3),
        imu_acc=np.array([r["acc"] for r in imu]).reshape(-1, 3),
        contact_v=np.array([r["v_c"] for r in cvel]).reshape(-1, 3),
        meas_t=np.array([r["t"] for r in enc]),
        enc_q=np.array([r["q"] for r in enc]).reshape(-1, 6),
        drs_t=np.array([r["t"] for r in drs_q]),
        drs_rot=np.array([quat_to_rot(r["quat"]) for r in drs_q]).reshape(-1, 3, 3),
        switch_t=np.array([r["t"] for r in switches]),
        switch_q=np.array([r["q_prev"] + r["q_new"] for r in switches]).reshape(-1, 12),
        meta=meta,
    )
