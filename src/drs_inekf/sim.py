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

Everything, the leg inverse kinematics of switch and measurement steps
included, is evaluated on the whole time grid with stacked SO(3) operations.
All noise comes from one draw, sliced in the order a step-by-step draw would
take it.

``ScenarioDataset.validate`` is the one definition of a dataset the filter
and the error evaluation read correctly; ``load_jsonl`` and ``run_variant``
call it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain, repeat

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
_CONTACT_OFFSET = np.array([0.3, 0.0, 0.0])     # nominal foothold, surface frame (m)
MAX_IMU_STEPS = 10**6       # generate peaks near 1 KB per IMU step


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
    stride_width: float = 0.1                    # lateral foothold offset (m)
    base_height: float = 0.9                     # nominal base height above foothold (m)
    draw_biases: bool = False                    # constant biases drawn from walk SDs

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("duration", "imu_rate", "meas_rate", "step_period"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.duration * self.imu_rate > MAX_IMU_STEPS:
            raise ValueError(f"duration {self.duration:g} s at {self.imu_rate:g} Hz "
                             f"is more than {MAX_IMU_STEPS:,} IMU steps")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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

    @property
    def time_tol(self):
        """How far an event may lie from the end of its IMU step."""
        return 0.25 * self.dt

    def event_steps(self, times):
        """Per event time, the IMU step whose end time lies within
        ``time_tol`` of it, or -1 for an event that falls on no step."""
        tol = self.time_tol
        t_end = np.append(self.imu_t[1:], self.imu_t[-1:] + self.dt)
        step = np.searchsorted(t_end, times - tol, side="right")
        hit = np.append(t_end, np.inf)[step] < times + tol
        return np.where(hit, step, -1)

    def validate(self):
        """Raise ValueError unless the filter and the error evaluation read the
        streams correctly; return the event schedule: per IMU step, the switch,
        encoder and surface-orientation record at its end, or -1."""
        if not self.imu_t.size:
            raise ValueError("dataset has no IMU records")
        if len(self.contact_v) != self.imu_t.size:
            raise ValueError(f"dataset has {len(self.contact_v)} contact_vel "
                             f"records for {self.imu_t.size} IMU records")
        # the filter is scored up to the end of the last IMU step
        tol = self.time_tol
        if not self.truth_t.size or self.truth_t[0] > self.imu_t[0] + tol \
                or self.truth_t[-1] < self.imu_t[-1] + self.dt - tol:
            raise ValueError("truth records do not span the IMU window")
        if not self.meas_t.size:
            raise ValueError("the dataset has no encoder records to score")
        for name, times in (("IMU", self.imu_t), ("measurement", self.meas_t),
                            ("truth", self.truth_t)):
            if np.any(np.diff(times) <= 0.0):
                raise ValueError(f"{name} stream timestamps out of order")
        schedule = np.full((self.imu_t.size, 3), -1)
        for col, (name, times, home) in enumerate((
                ("contact switch", self.switch_t, "IMU"),
                ("encoder", self.meas_t, "IMU"),
                ("surface orientation", self.drs_t, "encoder"))):
            step = self.event_steps(times)
            # orientation needs the encoder record of its step; step < 0 is
            # tested for all, since a step of -1 would read the last row
            off = (step < 0) | ((home == "encoder") & (schedule[step, 1] < 0))
            if off.any():
                raise ValueError(f"{name} record at t={times[off.argmax()]:.6g}"
                                 f" falls on no {home} step")
            if np.unique(step).size < step.size:
                raise ValueError(f"two {name} events fall on one IMU step")
            schedule[step, col] = np.arange(times.size)
        return schedule


def _base_reference(config, t):
    """Closed-form world-frame base trajectory, a bounded sway about a fixed
    pose: the (n, 3, 3) rotations and (n, 3) velocities at a column of n
    times, and the position at t = 0."""
    if config.robot_motion == "RM1":
        f_step = 1.0 / config.step_period
        pos_amp = np.array([0.03, 0.05, 0.02])       # m
        rot_amp = np.array([0.02, 0.03, 0.04])       # rad
        pos_freq = _TWO_PI * np.array([f_step, 0.5 * f_step, 2.0 * f_step])
        rot_freq = _TWO_PI * np.array([0.5 * f_step, f_step, 0.5 * f_step])
    else:
        pos_amp = np.array([0.015, 0.02, 0.01])
        rot_amp = np.array([0.01, 0.015, 0.02])
        pos_freq = _TWO_PI * np.array([0.3, 0.25, 0.5])
        rot_freq = _TWO_PI * np.array([0.2, 0.3, 0.25])
    pos_phase = np.array([0.0, 1.1, 2.3])
    rot_phase = np.array([0.7, 1.9, 0.4])
    p0 = _CONTACT_OFFSET + np.array([0.0, 0.0, config.base_height])
    return (so3_exp(rot_amp * np.sin(rot_freq * t + rot_phase)),
            pos_amp * pos_freq * np.cos(pos_freq * t + pos_phase),
            p0 + pos_amp * np.sin(pos_phase))


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
    dv = rng.uniform(-1.5, 1.5, size=3)
    dphi = rng.uniform(-1.0, 1.0, size=3)
    return dv, dphi


def _rotate(R, x):
    """Row-wise R[k] @ x[k]."""
    return np.einsum("kij,kj->ki", R, x)


def _event_steps(config, n, dt):
    """Sorted measurement, surface-orientation and contact-switch steps in
    1..n (README, numerical notes)."""
    # nondecreasing from 1, so a positive difference marks each new step
    meas = np.round(np.arange(1, int(config.duration * config.meas_rate) + 1)
                    / config.meas_rate / dt).astype(int)
    meas = meas[(np.diff(meas, prepend=0) > 0) & (meas <= n)]
    if not meas.size:
        raise ValueError("no measurement step falls within the duration")
    orient_rate = config.meas_rate if config.orient_rate is None else config.orient_rate
    # the nearest step, and on a tie the earlier; none at a rate of 0
    orient = meas[np.searchsorted((meas[:-1] + meas[1:]) / 2.0, np.round(
        np.arange(1, int(config.duration * orient_rate) + 1) / orient_rate / dt))]
    orient = orient[np.diff(orient, prepend=0) > 0]
    if config.robot_motion != "RM1":
        return meas, orient, np.zeros(0, dtype=int)
    # floats cannot wrap; a first step of 1 or more puts the 2n-th at n or more
    nominal = np.round(np.arange(1, 2 * n + 1) * config.step_period / dt)
    if nominal[0] == 0:
        raise ValueError(f"step_period {config.step_period:g} s rounds "
                         "to zero IMU steps")
    free = np.setdiff1d(np.arange(1, n + 1), meas, assume_unique=True)
    # k_i = max(k_i, k_(i-1) + 1) over indices into free: k - i is a running max
    i = np.arange(np.count_nonzero(nominal < n))
    k = np.maximum.accumulate(np.searchsorted(free, nominal[i]) - i) + i
    if (j := np.searchsorted(k, free.size) + 1) <= k.size:   # k increases
        raise ValueError(f"contact switch {j} (t = {j * config.step_period:.6g}"
                         " s) finds no free IMU step: every later step "
                         "holds a measurement or another switch")
    return meas, orient, free[k]


def generate(config):
    """Produce a ScenarioDataset for the given configuration.

    The surface, the base reference, the footholds, the truth and the
    noise are evaluated on the whole time grid.  A config that leaves no IMU
    step, no measurement step, or no free step for a contact switch raises
    ValueError before anything is evaluated, and so does a dataset that comes
    out non-finite.
    """
    rng = np.random.default_rng(config.seed)
    noise = config.noise
    leg = VirtualLeg()
    dt = 1.0 / config.imu_rate
    n = int(round(config.duration * config.imu_rate))
    if n == 0:
        raise ValueError(f"duration {config.duration:g} s rounds to zero IMU steps")
    times = np.arange(n + 1) * dt
    meas, orient, switch = _event_steps(config, n, dt)

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
    lateral = np.array([0.0, config.stride_width, 0.0])
    footholds = np.array([_CONTACT_OFFSET + lateral, _CONTACT_OFFSET - lateral])
    pc_drs = footholds[np.searchsorted(switch, np.arange(n + 1), side="right") % 2]
    truth_pc = _rotate(R_true, pc_drs)
    vc_filt = _rotate(R_filt[1:] - R_filt[:-1], pc_drs[:n]) / dt

    truth_rot, truth_v, p0 = _base_reference(config, times[:, None])
    w, a = imu_from_trajectory(times, truth_rot, truth_v)
    # the model's position increment over a step, v dt + (R Gamma_2 a + g/2) dt^2,
    # with the rotation vector phi = w dt that integrate_mean forms
    gamma2 = so3_series(w * dt)[:, 2]
    dp = truth_v[:n] * dt + (_rotate(truth_rot[:n], _rotate(gamma2, a))
                             + 0.5 * GRAVITY) * (dt * dt)
    truth_p = p0 + np.concatenate([np.zeros((1, 3)), np.cumsum(dp, axis=0)])

    step_noise = draw(np.arange(1, n + 1), 0, 9)
    imu_omega = w + bias[:3] + noise.sd_gyro * step_noise[:, :3]
    imu_acc = a + bias[3:] + noise.sd_accel * step_noise[:, 3:6]
    contact_v = vc_filt + _rotate(truth_rot[:n], noise.sd_contact_vel * step_noise[:, 6:])

    def leg_ik(steps, pc_world):
        Rt = truth_rot[steps].transpose(0, 2, 1)
        return leg.inverse(_rotate(Rt, pc_world - truth_p[steps]),
                           Rt @ R_true[steps])

    # a switch step's joints: the previous foot, then the new foot
    switch_q = np.concatenate([
        leg_ik(switch, _rotate(R_true[switch], pc_drs[switch - 1])),
        leg_ik(switch, truth_pc[switch])], axis=1)
    switch_q += noise.sd_encoder * draw(switch, 1, 12)
    enc_q = leg_ik(meas, truth_pc[meas]) + noise.sd_encoder * draw(meas, 2, 6)
    drs_rot = so3_exp(noise.sd_drs_orient * draw(orient, 3, 3)) @ R_filt[orient]

    meta = {
        "profile": true_profile.kind,
        "filter_profile": filt_profile.kind,
        "robot_motion": config.robot_motion,
        "duration": config.duration,
        "imu_rate": config.imu_rate,
        "meas_rate": config.meas_rate,
        "orient_rate": (config.meas_rate if config.orient_rate is None
                        else config.orient_rate),
        "step_period": config.step_period,
        "stride_width": config.stride_width,
        "contact_offset": _CONTACT_OFFSET.tolist(),
        "base_height": config.base_height,
        "seed": config.seed,
    }
    dataset = ScenarioDataset(
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
    # extreme but finite settings (a noise SD of 1e300) can overflow
    for f in fields(dataset):
        value = getattr(dataset, f.name)
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ValueError(f"the config gives a non-finite {f.name}")
    return dataset


# The dataset file after its meta record: per record kind, in file order, the
# ScenarioDataset attribute of its "t" and its fields as (JSON key, attribute,
# width).  A *_rot attribute is written as quaternions, an attribute of two
# fields is split by width, and each IMU record precedes its step's contact_vel.
RECORDS = {
    "truth": ("truth_t", (("quat", "truth_rot", 4), ("v", "truth_v", 3),
                          ("p", "truth_p", 3), ("p_c", "truth_pc", 3))),
    "imu": ("imu_t", (("omega", "imu_omega", 3), ("acc", "imu_acc", 3))),
    "contact_vel": ("imu_t", (("v_c", "contact_v", 3),)),
    "encoder": ("meas_t", (("q", "enc_q", 6),)),
    "drs_pose": ("drs_t", (("quat", "drs_rot", 4),)),
    "contact_switch": ("switch_t", (("q_prev", "switch_q", 6), ("q_new", "switch_q", 6))),
}


def json_lines(keys, columns):
    """One JSON line per row of the columns, under ``keys`` in order.  Each
    array column is converted once with ``tolist()``: json writes any float,
    a numpy one included, as its ``repr``."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return (json.dumps(dict(zip(keys, row))) + "\n" for row in zip(*columns))


def save_jsonl(dataset, path):
    """Serialize a dataset to JSON Lines with a leading meta record."""
    with open(path, "w") as fh:
        write_jsonl(dataset, fh)


def write_jsonl(dataset, fh):
    """Write a dataset as JSON Lines to an open text file."""
    fh.write(json.dumps({"type": "meta", "dt": dataset.dt,
                         "bias": dataset.bias.tolist(), **dataset.meta}) + "\n")
    lines = {}
    for kind, (time, entries) in RECORDS.items():
        columns = [repeat(kind), getattr(dataset, time)]
        for i, (_, attr, width) in enumerate(entries):
            value = getattr(dataset, attr)
            start = sum(w for _, a, w in entries[:i] if a == attr)
            columns.append(rot_to_quat(value) if attr.endswith("_rot")
                           else value[:, start:start + width])
        lines[kind] = json_lines(("type", "t", *(key for key, _, _ in entries)),
                                 columns)
    lines["imu"] = chain.from_iterable(zip(lines["imu"], lines.pop("contact_vel")))
    fh.writelines(chain.from_iterable(lines.values()))


# the JSON values a numeric field may hold; null reads as NaN and is
# rejected as non-finite, and a bool (an int subclass) is not a number here
_JSON_NUMBER = {int, float, type(None)}


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path):
    """The JSON value of each line, accepted exactly when ``json.loads`` of
    the line alone accepts it; a ValueError names the first bad line.

    ``raw_decode`` parses a line that starts with its value; a line that it
    rejects, or that holds more than a newline after the value, goes to
    ``json.loads``, which decides it."""
    values = []
    with open(path) as fh:
        for line in fh:
            try:
                value, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end is None or line[end:] != "\n":
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: line {len(values) + 1} does not hold one "
                        f"JSON value: {exc.msg} at column {exc.colno}") from None
            values.append(value)
    return values


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
    lists = not shape or set(map(type, values)) <= {list}
    numbers = chain.from_iterable(values) if shape else values
    malformed = ValueError(f"{kind} record has a malformed '{key}'")
    if not (lists and set(map(type, numbers)) <= _JSON_NUMBER):
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
    records = {kind: [] for kind in ("meta", *RECORDS)}
    for rec in read_jsonl(path):
        kind = rec.pop("type", None) if isinstance(rec, dict) else None
        if not isinstance(kind, str) or kind not in records:
            raise ValueError(f"unknown record type: {kind}")
        records[kind].append(rec)
    if not records["meta"]:
        raise ValueError("dataset has no meta record")

    def column(kind, key, shape=()):
        return read_column(records[kind], kind, key, shape)

    dt = float(column("meta", "dt")[-1])
    meta = {"bias": [0.0] * 6, **records["meta"][-1]}    # no bias: zeros
    bias = read_column([meta], "meta", "bias", (6,))[0]
    del meta["dt"], meta["bias"]
    arrays = dict(dt=dt, bias=bias, meta=meta)
    for kind, (time, entries) in RECORDS.items():
        if time not in arrays:      # contact_vel times are checked below
            arrays[time] = column(kind, "t")
        for key, attr, width in entries:
            value = column(kind, key, (width,))
            if attr.endswith("_rot"):
                value = quat_to_rot(value)
            arrays[attr] = np.hstack([arrays[attr], value]) if attr in arrays else value
    dataset = ScenarioDataset(**arrays)
    dataset.validate()
    # the n-th contact_vel record is the n-th IMU record's, within a quarter step
    vc_t = column("contact_vel", "t")
    off = np.abs(vc_t - dataset.imu_t) >= dataset.time_tol
    if off.any():
        raise ValueError(f"contact_vel record at t={vc_t[off][0]:.6g} does not "
                         f"match its IMU record at t={dataset.imu_t[off][0]:.6g}")
    return dataset
