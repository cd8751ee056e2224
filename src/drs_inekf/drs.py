"""Dynamic-rigid-surface environment: treadmill pitch profiles and poses.

The surface rotates about the world y-axis through a pivot at the world
origin.  Profiles:
  TM1  trapezoid: hold -8 deg, ramp to +8 deg, mirrored hold/ramp, repeated
  TM2  2.5 deg * sin(pi t)
  TM3  TM1 shape + 5.1 deg + 1.7 deg * sin(pi t)
The TM1 hold/ramp durations are reconstructed (2.8 s holds, 0.5 s ramps);
the published waveform is not available.  The TM shapes are constants; a
CSV profile table (``profile_from_csv``) supplies any other waveform.

Angles and poses are evaluated for a scalar time or a whole time array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# not called here: the perfbench tracer wraps drs_inekf.drs.so3_exp
from .liegroup import so3_exp  # noqa: F401

# the TM shapes of the module docstring
_HOLD = math.radians(8.0)           # TM1 plateau magnitude
_HOLD_S = 2.8
_RAMP_S = 0.5
_PERIOD = 2.0 * (_HOLD_S + _RAMP_S)
_RATE = 2.0 * _HOLD / _RAMP_S
_AMP = math.radians(2.5)            # TM2 amplitude
_FREQ = math.pi                     # TM2/TM3 sinusoid angular frequency
_OFFSET = math.radians(5.1)         # TM3 constant offset
_WOBBLE = math.radians(1.7)         # TM3 sinusoid amplitude


@dataclass(frozen=True)
class PitchProfile:
    kind: str = "constant"            # TM1 | TM2 | TM3 | constant | custom
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
            return _AMP * np.sin(_FREQ * t)
        if self.kind == "TM1":
            return self._trapezoid(t)
        if self.kind == "TM3":
            return self._trapezoid(t) + (_OFFSET + _WOBBLE * np.sin(_FREQ * t))
        if self.kind == "custom":
            if len(self.table_t) < 2:
                raise ValueError("custom profile needs at least two table rows")
            return np.interp(t, self.table_t, np.radians(self.table_deg))
        raise ValueError(f"unknown pitch profile kind: {self.kind}")

    def _trapezoid(self, t):
        # time into the rising hold, the rising ramp, the upper hold and the
        # falling ramp, each measured from the start of its segment
        tau1 = (t + self.phase_s) % _PERIOD
        tau2 = tau1 - _HOLD_S
        tau3 = tau2 - _RAMP_S
        tau4 = tau3 - _HOLD_S
        return np.select([tau1 < _HOLD_S, tau2 < _RAMP_S, tau3 < _HOLD_S],
                         [-_HOLD, -_HOLD + _RATE * tau2, _HOLD], _HOLD - _RATE * tau4)


def profile_from_csv(path):
    """Two-column CSV (t_seconds, theta_degrees), linearly interpolated; the
    table needs two rows or more, finite values and strictly increasing
    times."""
    with warnings.catch_warnings():     # an empty file is reported below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[0] < 2:
        raise ValueError(f"{path}: a profile table needs at least two rows")
    if rows.shape[1] != 2:
        raise ValueError(f"{path}: a profile table has two columns, t and angle")
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: the profile table holds a non-finite value")
    if np.any(np.diff(rows[:, 0]) <= 0.0):
        raise ValueError(f"{path}: profile times must be strictly increasing")
    return PitchProfile(kind="custom", table_t=tuple(rows[:, 0]), table_deg=tuple(rows[:, 1]))


def make_profile(name):
    """The profile of a built-in name, or of a CSV table at a path ending in
    ``.csv``."""
    name = name.strip()
    if name.endswith(".csv"):
        return profile_from_csv(name)
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
