"""Observability analysis of the bias-free error dynamics.

Stacks the reduced measurement rows against powers of the filter's
bias-free error Jacobian, [H; HA; HA^2], and reports the numerical rank
plus per-variable observability flags as a function of the surface tilt.
The Jacobian is nilpotent (A^3 = 0), so for any dt != 0 the rows of
[H; H Phi; H Phi^2; ...] with Phi = expm(A dt) span the same space: the
matrix needs no time step and no block count.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .filter import error_jacobian_nobias, observation_row
from .kinematics import E3
from .liegroup import so3_exp

RANK_RTOL = 1e-8


def measurement_rows(R_drs, include_orientation=True):
    """The filter's observation rows for a surface at orientation R_drs."""
    kinds = ("orientation", "position") if include_orientation else ("position",)
    return np.vstack([observation_row(kind, R_drs @ E3) for kind in kinds])


def observability_matrix(R_drs, include_orientation=True):
    """[H; HA; HA^2] for the filter's bias-free error Jacobian A at zero
    contact velocity, for R_drs or for each of a stack."""
    H = np.array([measurement_rows(R, include_orientation)
                  for R in np.reshape(R_drs, (-1, 3, 3))])
    A = error_jacobian_nobias(np.zeros(3))
    HA = H @ A
    # A^3 = 0, so H A^k for k >= 3 adds no rows
    O = np.concatenate([H, HA, HA @ A], axis=1)
    return O.reshape(np.shape(R_drs)[:-2] + (-1, 12))


def _ranks(s, rtol=RANK_RTOL):
    """Numerical ranks from singular values, largest first, on the last axis."""
    return np.sum(s > rtol * s[..., :1], axis=-1)


@dataclass(frozen=True)
class ObservabilityReport:
    rank: int
    roll_pitch_observable: bool
    yaw_observable: bool
    velocity_observable: bool
    position_observable: bool
    contact_observable: bool
    tilt_rad: float

    def to_dict(self):
        return asdict(self)


# the error coordinates of each flag; yaw is the gravity-axis rotation error
_FLAGS = (slice(0, 2), slice(2, 3), slice(3, 6), slice(6, 9), slice(9, 12))
_SWEEP_CHUNK = 64       # orientations per stacked SVD, whose U is (k, m, m)


def _reports(R_drs, include_orientation=True):
    """Reports for a stack of surface orientations: a coordinate is observable
    when its column of the null space, Vt past the rank, has a norm < 1e-6."""
    _, s, Vt = np.linalg.svd(observability_matrix(R_drs, include_orientation))
    ranks = _ranks(s)
    null_rows = np.arange(Vt.shape[-2]) >= ranks[:, None]
    observable = np.linalg.norm(Vt * null_rows[..., None], axis=1) < 1e-6
    return [ObservabilityReport(
        int(rank), *(bool(obs[c].all()) for c in _FLAGS),
        float(np.arccos(np.clip(np.dot(R @ E3, E3), -1.0, 1.0))))
        for R, rank, obs in zip(R_drs, ranks, observable)]


def observability_report(R_drs, include_orientation=True):
    return _reports(np.array([R_drs]), include_orientation)[0]


def tilt_sweep(tilts_rad):
    """Observability reports for surface pitch angles about the y-axis."""
    R = np.array([so3_exp(np.array([0.0, float(tilt), 0.0]))
                  for tilt in tilts_rad]).reshape(-1, 3, 3)
    return [report for i in range(0, len(R), _SWEEP_CHUNK)
            for report in _reports(R[i:i + _SWEEP_CHUNK])]
