"""Filter state, covariance, and noise configuration.

Covariance block order is fixed as (rotation, velocity, position, contact,
gyro bias, accel bias), 3 components each, for an 18x18 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .liegroup import GroupElement
# not called here: the perfbench tracer wraps drs_inekf.state.compose
from .liegroup import compose  # noqa: F401


@dataclass(frozen=True)
class BiasState:
    b_omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_acc: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def as_vector(self):
        return np.concatenate([self.b_omega, self.b_acc])

    @staticmethod
    def from_vector(vec):
        vec = np.asarray(vec, dtype=float)
        return BiasState(vec[:3].copy(), vec[3:6].copy())


@dataclass(frozen=True)
class FilterState:
    X: GroupElement
    theta: BiasState
    P: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class NoiseConfig:
    """Per-sample noise standard deviations.

    Gyro, accel, and contact-velocity SDs apply per IMU sample; encoder and
    surface-orientation SDs apply per measurement sample.  Bias-walk SDs are
    continuous-time densities.
    """

    sd_gyro: float = 0.01          # rad/s
    sd_accel: float = 0.4          # m/s^2
    sd_bias_gyro: float = 0.0001   # rad/s^2
    sd_bias_accel: float = 0.001   # m/s^3
    sd_contact_vel: float = 0.01   # m/s
    sd_encoder: float = math.radians(1.0)      # rad
    sd_drs_orient: float = math.radians(1.0)   # rad

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and nonnegative")


# config key -> NoiseConfig field; the "_deg" keys are given in degrees
_NOISE_KEYS = {
    **{name: name for name in ("sd_gyro", "sd_accel", "sd_bias_gyro",
                               "sd_bias_accel", "sd_contact_vel")},
    "sd_encoder_deg": "sd_encoder",
    "sd_drs_orient_deg": "sd_drs_orient",
}


def read_config(path):
    """Read a ``key = value`` file; ``#`` starts a comment.

    Returns the NoiseConfig keyword arguments set by noise keys and the raw
    strings of all other keys.
    """
    noise, other = {}, {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key in _NOISE_KEYS:
                val = float(raw)
                noise[_NOISE_KEYS[key]] = (math.radians(val)
                                          if key.endswith("_deg") else val)
            else:
                other[key] = raw
    return noise, other


def load_noise_config(path):
    """Read a key=value file; keys sd_encoder_deg / sd_drs_orient_deg are degrees."""
    noise, other = read_config(path)
    if other:
        raise ValueError(f"unknown noise config key: {next(iter(other))}")
    return NoiseConfig(**noise)


def run_covariance(var_pose=1.0):
    """Initial covariance for filter runs.

    The pose blocks keep the unit prior; the bias blocks get priors on the
    scale of the bias random walks.  A 1 (rad/s)^2 gyro-bias prior combined
    with sparse measurement updates drives the linearized bias inference far
    outside its validity domain and destabilizes the filter, so runs use
    these tighter bias priors.
    """
    diag = np.concatenate([np.full(12, var_pose), np.full(3, 1e-6),
                           np.full(3, 1e-4)])
    return np.diag(diag)


def symmetrize(P):
    return 0.5 * (P + P.T)

