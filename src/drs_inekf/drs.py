"""Dynamic-rigid-surface environment: treadmill pitch profiles and rates.

The surface rotates about the world y-axis through a pivot at the world
origin.  Profiles:
  TM1  trapezoid: hold -8 deg, ramp to +8 deg, mirrored hold/ramp, repeated
  TM2  2.5 deg * sin(pi t)
  TM3  TM1 shape + 5.1 deg + 1.7 deg * sin(pi t)
The TM1 hold/ramp durations are reconstructed (2.8 s holds, 0.5 s ramps);
the published waveform is not available, so they are parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liegroup import so3_exp


@dataclass(frozen=True)
class DrsState:
    R_drs: np.ndarray
    omega_drs: np.ndarray
    t: float


@dataclass(frozen=True)
class PitchProfile:
    kind: str = "constant"            # TM1 | TM2 | TM3 | constant | custom
    hold_deg: float = 8.0             # TM1 plateau magnitude
    hold_s: float = 2.8
    ramp_s: float = 0.5
    amp_deg: float = 2.5              # TM2 amplitude
    freq: float = math.pi             # TM2/TM3 sinusoid angular frequency
    offset_deg: float = 5.1           # TM3 constant offset
    wobble_deg: float = 1.7           # TM3 sinusoid amplitude
    constant_deg: float = 0.0
    phase_s: float = 0.0              # TM1/TM3 trapezoid phase offset
    table_t: tuple = field(default=())     # custom: times (s)
    table_deg: tuple = field(default=())   # custom: angles (deg)

    def angle_and_rate(self, t):
        """Pitch angle (rad) and rate (rad/s) at time t."""
        if self.kind == "constant":
            return math.radians(self.constant_deg), 0.0
        if self.kind == "TM2":
            amp = math.radians(self.amp_deg)
            return amp * math.sin(self.freq * t), amp * self.freq * math.cos(self.freq * t)
        if self.kind == "TM1":
            return self._trapezoid(t)
        if self.kind == "TM3":
            theta, rate = self._trapezoid(t)
            wob = math.radians(self.wobble_deg)
            theta += math.radians(self.offset_deg) + wob * math.sin(self.freq * t)
            rate += wob * self.freq * math.cos(self.freq * t)
            return theta, rate
        if self.kind == "custom":
            return self._from_table(t)
        raise ValueError(f"unknown pitch profile kind: {self.kind}")

    def _trapezoid(self, t):
        hold = math.radians(self.hold_deg)
        period = 2.0 * (self.hold_s + self.ramp_s)
        tau = (t + self.phase_s) % period
        rate = 2.0 * hold / self.ramp_s
        if tau < self.hold_s:
            return -hold, 0.0
        tau -= self.hold_s
        if tau < self.ramp_s:
            return -hold + rate * tau, rate
        tau -= self.ramp_s
        if tau < self.hold_s:
            return hold, 0.0
        tau -= self.hold_s
        return hold - rate * tau, -rate

    def _from_table(self, t):
        ts = np.asarray(self.table_t, dtype=float)
        angles = np.radians(np.asarray(self.table_deg, dtype=float))
        if ts.size < 2:
            raise ValueError("custom profile needs at least two table rows")
        theta = float(np.interp(t, ts, angles))
        i = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2))
        rate = (angles[i + 1] - angles[i]) / (ts[i + 1] - ts[i])
        return theta, float(rate)


def profile_from_csv(path):
    """Two-column CSV (t_seconds, theta_degrees), linearly interpolated."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return PitchProfile(kind="custom", table_t=tuple(rows[:, 0]), table_deg=tuple(rows[:, 1]))


def make_profile(name):
    name = name.strip()
    if name in ("TM1", "TM2", "TM3", "constant"):
        return PitchProfile(kind=name)
    raise ValueError(f"unknown profile name: {name}")


def drs_pose_at(profile, t):
    """Surface orientation and angular velocity at time t.

    The surface frame origin is the rotation pivot, so it does not move.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    theta, rate = profile.angle_and_rate(t)
    R = so3_exp(np.array([0.0, theta, 0.0]))
    return DrsState(R_drs=R, omega_drs=np.array([0.0, rate, 0.0]), t=float(t))


def contact_point_velocity(drs, p_c_in_drs):
    """World-frame velocity of a point fixed in the rotating surface frame."""
    return np.cross(drs.omega_drs, drs.R_drs @ np.asarray(p_c_in_drs, dtype=float))
