"""Synthetic scenario generator for treadmill locomotion.

The IMU inputs are the exact per-interval increments of a closed-form
reference trajectory: the filter's own deterministic process model, run
with them as constant inputs, steps from each reference sample to the next.
So the truth R and v are the reference samples themselves, and the truth p
is the model's position increments summed in closed form.  Sensor samples
represent interval-averaged readings, and with zero noise the dataset is
exactly explainable by the filter's models.

The contact point is fixed in the surface frame during each stance; stepping
(RM1) switches the support foot between two lateral footholds at a fixed
period, with switch times kept off the measurement grid.

Everything is evaluated on the whole time grid, with stacked SO(3)
operations; only the leg inverse kinematics of switch and measurement steps
runs per sample.  All noise comes from one draw, sliced in the order a
step-by-step draw would take it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .drs import PitchProfile, drs_pose_at
from .filter import GRAVITY
# not called here: the perfbench tracer wraps drs_inekf.sim.integrate_mean
from .filter import integrate_mean  # noqa: F401
from .kinematics import VirtualLeg
from .liegroup import (GroupElement, quat_to_rot, rot_to_quat, so3_exp,
                       so3_left_jacobian_inv, so3_log, so3_series)
from .state import NoiseConfig

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
        if config.robot_motion == "RM1":
            f_step = 1.0 / config.step_period
            self.pos_amp = np.array([0.03, 0.05, 0.02])       # m
            self.rot_amp = np.array([0.02, 0.03, 0.04])       # rad
            self.pos_freq = _TWO_PI * np.array([f_step, 0.5 * f_step, 2.0 * f_step])
            self.rot_freq = _TWO_PI * np.array([0.5 * f_step, f_step, 0.5 * f_step])
        else:
            self.pos_amp = np.array([0.015, 0.02, 0.01])
            self.rot_amp = np.array([0.01, 0.015, 0.02])
            self.pos_freq = _TWO_PI * np.array([0.3, 0.25, 0.5])
            self.rot_freq = _TWO_PI * np.array([0.2, 0.3, 0.25])
        self.pos_phase = np.array([0.0, 1.1, 2.3])
        self.rot_phase = np.array([0.7, 1.9, 0.4])
        offset = np.asarray(config.contact_offset, dtype=float)
        self.p0 = offset + np.array([0.0, 0.0, config.base_height])

    def position(self, t):
        return self.p0 + self.pos_amp * np.sin(self.pos_freq * t + self.pos_phase)

    def velocity(self, t):
        return self.pos_amp * self.pos_freq * np.cos(self.pos_freq * t + self.pos_phase)

    def rotations(self, t):
        """(n, 3, 3) rotations at a column of n times."""
        return so3_exp(self.rot_amp * np.sin(self.rot_freq * t + self.rot_phase))


def imu_from_trajectory(times, rotations, velocities):
    """Exact-increment IMU synthesis from a sampled pose trajectory.

    Returns per-interval body angular velocity and specific force such that
    integrating the IMU motion model with constant inputs over each interval
    reproduces the trajectory at the sample times.
    """
    dts = np.diff(np.asarray(times, dtype=float))[:, None]
    rotations = np.asarray(rotations, dtype=float)
    R0t = rotations[:-1].transpose(0, 2, 1)
    phi = so3_log(R0t @ rotations[1:])
    dv = np.diff(velocities, axis=0) - GRAVITY * dts
    return phi / dts, _rotate(so3_left_jacobian_inv(phi), _rotate(R0t, dv)) / dts


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


def _rotate(R, x):
    """Row-wise R[k] @ x[k]."""
    return np.einsum("kij,kj->ki", R, x)


def generate(config):
    """Produce a ScenarioDataset for the given configuration.

    The surface, the base reference, the footholds, the truth and the
    noise are evaluated on the whole time grid.
    """
    rng = np.random.default_rng(config.seed)
    noise = config.noise
    leg = VirtualLeg()
    dt = 1.0 / config.imu_rate
    n = int(round(config.duration * config.imu_rate))
    times = np.arange(n + 1) * dt

    # measurement schedule, snapped to the IMU grid
    meas = np.unique(np.round(np.arange(1, int(config.duration * config.meas_rate) + 1)
                              / config.meas_rate / dt).astype(int))
    meas = meas[(meas > 0) & (meas <= n)]
    # surface-orientation schedule: nearest measurement step to each nominal time
    orient_rate = config.meas_rate if config.orient_rate is None else config.orient_rate
    orient = set()
    if orient_rate > 0.0 and meas.size:
        for j in range(1, int(config.duration * orient_rate) + 1):
            target = int(round(j / orient_rate / dt))
            orient.add(int(meas[np.argmin(np.abs(meas - target))]))
    orient = np.array(sorted(orient), dtype=int)
    # contact switches on the grid, shifted off any measurement step
    meas_set, switch = set(meas.tolist()), []
    if config.robot_motion == "RM1":
        i = 1
        while (s := int(round(i * config.step_period / dt))) < n:
            while s in meas_set or s in switch:
                s += 1
            switch.append(s)
            i += 1
    switch = np.array(switch, dtype=int)

    # all noise in one draw, sliced in the order of a step-by-step draw: the
    # biases, then per step gyro, accel and contact velocity (9), the encoders
    # of a switch (12), of a measurement (6) and the surface orientation (3)
    widths = np.zeros((n, 4), dtype=int)
    widths[:, 0] = 9
    widths[switch - 1, 1] = 12
    widths[meas - 1, 2] = 6
    widths[orient - 1, 3] = 3
    n_bias = 6 if config.draw_biases else 0
    z = rng.standard_normal(n_bias + widths.sum())
    first = (n_bias + np.cumsum(widths) - widths.ravel()).reshape(n, 4)

    def draw(at_steps, block, width):
        return z[first[at_steps - 1, block, None] + np.arange(width)]

    bias = (np.repeat([noise.sd_bias_gyro, noise.sd_bias_accel], 3) * z[:6]
            if config.draw_biases else np.zeros(6))

    true_profile = config.profile
    filt_profile = config.filter_profile or config.profile
    R_true = drs_pose_at(true_profile, times)
    R_filt = drs_pose_at(filt_profile, times)
    # the support foot alternates at each switch; a switch step already
    # stands on the new foothold, which is fixed in the surface frame
    offset = np.asarray(config.contact_offset, dtype=float)
    lateral = np.array([0.0, config.stride_width, 0.0])
    footholds = np.array([offset + lateral, offset - lateral])
    pc_drs = footholds[np.searchsorted(switch, np.arange(n + 1), side="right") % 2]
    truth_pc = _rotate(R_true, pc_drs)
    vc_filt = _rotate(R_filt[1:] - R_filt[:-1], pc_drs[:n]) / dt

    base = _BaseReference(config)
    truth_rot = base.rotations(times[:, None])
    truth_v = base.velocity(times[:, None])
    w, a = imu_from_trajectory(times, truth_rot, truth_v)
    # the model's position increment over a step, v dt + (R Gamma_2 a + g/2) dt^2,
    # with the rotation vector phi = w dt that integrate_mean forms
    gamma2 = so3_series(w * dt)[:, 2]
    dp = truth_v[:n] * dt + (_rotate(truth_rot[:n], _rotate(gamma2, a))
                             + 0.5 * GRAVITY) * (dt * dt)
    truth_p = base.position(0.0) + np.concatenate([np.zeros((1, 3)),
                                                   np.cumsum(dp, axis=0)])

    step_noise = draw(np.arange(1, n + 1), 0, 9)
    imu_omega = w + bias[:3] + noise.sd_gyro * step_noise[:, :3]
    imu_acc = a + bias[3:] + noise.sd_accel * step_noise[:, 3:6]
    contact_v = vc_filt + _rotate(truth_rot[:n], noise.sd_contact_vel * step_noise[:, 6:])

    def leg_ik(step, pc_world):
        R, p = truth_rot[step], truth_p[step]
        return leg.inverse(R.T @ (pc_world - p), R.T @ R_true[step])

    switch_q = np.array([np.concatenate([leg_ik(s, R_true[s] @ pc_drs[s - 1]),
                                         leg_ik(s, truth_pc[s])])
                         for s in switch]).reshape(-1, 12)
    switch_q += noise.sd_encoder * draw(switch, 1, 12)
    enc_q = np.array([leg_ik(s, truth_pc[s]) for s in meas]).reshape(-1, 6)
    enc_q += noise.sd_encoder * draw(meas, 2, 6)
    drs_rot = so3_exp(noise.sd_drs_orient * draw(orient, 3, 3)) @ R_filt[orient]

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
        meas_t=times[meas], enc_q=enc_q,
        drs_t=times[orient], drs_rot=drs_rot,
        switch_t=times[switch], switch_q=switch_q,
        meta=meta,
    )


def save_jsonl(dataset, path):
    """Serialize a dataset to JSON Lines with a leading meta record."""
    with open(path, "w") as fh:
        write_jsonl(dataset, fh)


def write_jsonl(dataset, fh):
    """Write a dataset as JSON Lines to an open text file."""
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


# the JSON values a numeric field may hold; null reads as NaN and is
# rejected as non-finite, and a bool (an int subclass) is not a number here
_JSON_NUMBER = (int, float, type(None))


def read_column(records, kind, key, shape=()):
    """Field ``key`` of every record as a float array of shape (n,) + shape.

    A missing, malformed or non-finite field raises ValueError naming the
    record kind and the key.  A field holds a JSON number, or a list of
    numbers when ``shape`` is given; strings and booleans are malformed,
    although numpy would convert them.
    """
    try:
        values = [r[key] for r in records]
    except KeyError:
        raise ValueError(f"{kind} record has no '{key}'") from None
    if shape:
        numbers = all(type(v) is list and all(type(e) in _JSON_NUMBER for e in v)
                      for v in values)
    else:
        numbers = all(type(v) in _JSON_NUMBER for v in values)
    malformed = ValueError(f"{kind} record has a malformed '{key}'")
    if not numbers:
        raise malformed
    try:
        values = np.array(values, dtype=float).reshape((len(records),) + shape)
    except (ValueError, OverflowError):     # ragged, or an int beyond float
        raise malformed from None
    if not np.all(np.isfinite(values)):     # JSON null reads as NaN
        raise ValueError(f"{kind} record has a non-finite '{key}'")
    return values


def load_jsonl(path):
    """Reconstruct a ScenarioDataset from a JSON Lines file."""
    records = {kind: [] for kind in ("meta", "truth", "imu", "contact_vel",
                                     "encoder", "drs_pose", "contact_switch")}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("type", None) if isinstance(rec, dict) else None
            if kind not in records:
                raise ValueError(f"unknown record type: {kind}")
            records[kind].append(rec)
    if not records["meta"]:
        raise ValueError("dataset has no meta record")

    def column(kind, key, shape=()):
        return read_column(records[kind], kind, key, shape)

    dt = float(column("meta", "dt")[-1])
    meta = records["meta"][-1]
    del meta["dt"]
    bias = np.array(meta.pop("bias", [0.0] * 6))
    truth_t, imu_t = column("truth", "t"), column("imu", "t")
    if not imu_t.size:
        raise ValueError("dataset has no IMU records")
    if len(records["contact_vel"]) != imu_t.size:
        raise ValueError(f"dataset has {len(records['contact_vel'])} contact_vel "
                         f"records for {imu_t.size} IMU records")
    # the filter is scored up to the end of the last IMU step
    tol = 0.25 * dt
    if not truth_t.size or truth_t[0] > imu_t[0] + tol \
            or truth_t[-1] < imu_t[-1] + dt - tol:
        raise ValueError("truth records do not span the IMU window")
    return ScenarioDataset(
        dt=dt,
        truth_t=truth_t,
        truth_rot=quat_to_rot(column("truth", "quat", (4,))),
        truth_v=column("truth", "v", (3,)),
        truth_p=column("truth", "p", (3,)),
        truth_pc=column("truth", "p_c", (3,)),
        bias=bias,
        imu_t=imu_t,
        imu_omega=column("imu", "omega", (3,)),
        imu_acc=column("imu", "acc", (3,)),
        contact_v=column("contact_vel", "v_c", (3,)),
        meas_t=column("encoder", "t"),
        enc_q=column("encoder", "q", (6,)),
        drs_t=column("drs_pose", "t"),
        drs_rot=quat_to_rot(column("drs_pose", "quat", (4,))),
        switch_t=column("contact_switch", "t"),
        switch_q=np.hstack([column("contact_switch", "q_prev", (6,)),
                            column("contact_switch", "q_new", (6,))]),
        meta=meta,
    )
