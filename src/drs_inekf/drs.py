"""Dynamic-rigid-surface environment: treadmill pitch profiles and poses.

The surface rotates about the world y-axis through a pivot at the world
origin.  Profiles:
  TM1  trapezoid: hold -8 deg, ramp to +8 deg, mirrored hold/ramp, repeated
  TM2  2.5 deg * sin(pi t)
  TM3  TM1 shape + 5.1 deg + 1.7 deg * sin(pi t)
The TM1 hold/ramp durations are reconstructed (2.8 s holds, 0.5 s ramps);
the published waveform is not available, so they are parameters.

Angles and poses are evaluated for a scalar time or a whole time array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# not called here: the perfbench tracer wraps drs_inekf.drs.so3_exp
from .liegroup import so3_exp  # noqa: F401


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

    def angle(self, t):
        """Pitch angle (rad) at time t, a scalar or an array."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, math.radians(self.constant_deg))
        if self.kind == "TM2":
            return math.radians(self.amp_deg) * np.sin(self.freq * t)
        if self.kind == "TM1":
            return self._trapezoid(t)
        if self.kind == "TM3":
            wob = math.radians(self.wobble_deg)
            return self._trapezoid(t) + (math.radians(self.offset_deg)
                                         + wob * np.sin(self.freq * t))
        if self.kind == "custom":
            if len(self.table_t) < 2:
                raise ValueError("custom profile needs at least two table rows")
            return np.interp(t, self.table_t, np.radians(self.table_deg))
        raise ValueError(f"unknown pitch profile kind: {self.kind}")

    def _trapezoid(self, t):
        hold = math.radians(self.hold_deg)
        period = 2.0 * (self.hold_s + self.ramp_s)
        rate = 2.0 * hold / self.ramp_s
        # time into the rising hold, the rising ramp, the upper hold and the
        # falling ramp, each measured from the start of its segment
        tau1 = (t + self.phase_s) % period
        tau2 = tau1 - self.hold_s
        tau3 = tau2 - self.ramp_s
        tau4 = tau3 - self.hold_s
        return np.select([tau1 < self.hold_s, tau2 < self.ramp_s, tau3 < self.hold_s],
                         [-hold, -hold + rate * tau2, hold], hold - rate * tau4)


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
    """Surface orientation at time t: the pitch rotation about the world
    y-axis, (3, 3) for a scalar t and (n, 3, 3) for n times.

    The surface frame origin is the rotation pivot, so it does not move.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    theta = profile.angle(t)
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros(t.shape + (3, 3))
    R[..., 0, 0] = R[..., 2, 2] = c
    R[..., 0, 2] = s
    R[..., 2, 0] = -s
    R[..., 1, 1] = 1.0
    return R
