"""Observability analysis of the bias-free error dynamics.

Stacks the reduced measurement rows against powers of the discrete
transition matrix and reports the numerical rank plus per-variable
observability flags as a function of the surface tilt.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .filter import E3, error_jacobian_nobias, observation_row
from .liegroup import so3_exp

RANK_RTOL = 1e-8


def transition_matrix(A_nobias, dt):
    """expm(A dt); the bias-free A is nilpotent (A^3 = 0), so the series
    terminates after the quadratic term."""
    Adt = np.asarray(A_nobias) * dt
    return np.eye(len(Adt)) + Adt + 0.5 * (Adt @ Adt)


def measurement_rows(R_drs, include_orientation=True):
    """The filter's observation rows for a surface at orientation R_drs."""
    kinds = ("orientation", "position") if include_orientation else ("position",)
    return np.vstack([observation_row(kind, R_drs @ E3) for kind in kinds])


def observability_matrix(R_drs, dt, n_blocks, include_orientation=True):
    """Observation rows against powers of the filter's bias-free transition
    matrix at zero contact velocity, for R_drs or for each of a stack."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    H = np.array([measurement_rows(R, include_orientation)
                  for R in np.reshape(R_drs, (-1, 3, 3))])
    Phi = transition_matrix(error_jacobian_nobias(np.zeros(3)), dt)
    blocks = []
    Pk = np.eye(12)
    for _ in range(n_blocks):
        blocks.append(H @ Pk)
        Pk = Pk @ Phi
    return np.concatenate(blocks, axis=1).reshape(np.shape(R_drs)[:-2] + (-1, 12))


def _ranks(s, rtol=RANK_RTOL):
    """Numerical ranks from singular values, largest first, on the last axis."""
    return np.sum(s > rtol * s[..., :1], axis=-1)


def numerical_rank(M, rtol=RANK_RTOL):
    return int(_ranks(np.linalg.svd(M, compute_uv=False), rtol))


@dataclass(frozen=True)
class ObservabilityReport:
    rank: int
    roll_pitch_observable: bool
    yaw_observable: bool
    velocity_observable: bool
    position_observable: bool
    contact_observable: bool
    dt: float
    n_blocks: int
    tilt_rad: float

    def to_dict(self):
        return asdict(self)


# the error coordinates of each flag; yaw is the gravity-axis rotation error
_FLAGS = (slice(0, 2), slice(2, 3), slice(3, 6), slice(6, 9), slice(9, 12))
_SWEEP_CHUNK = 64       # orientations per stacked SVD, whose U is (k, m, m)


def _reports(R_drs, dt, n_blocks, include_orientation=True):
    """Reports for a stack of surface orientations: a coordinate is observable
    when its column of the null space, Vt past the rank, has a norm < 1e-6."""
    _, s, Vt = np.linalg.svd(observability_matrix(R_drs, dt, n_blocks,
                                                  include_orientation))
    ranks = _ranks(s)
    null_rows = np.arange(Vt.shape[-2]) >= ranks[:, None]
    observable = np.linalg.norm(Vt * null_rows[..., None], axis=1) < 1e-6
    return [ObservabilityReport(
        int(rank), *(bool(obs[c].all()) for c in _FLAGS), dt, n_blocks,
        float(np.arccos(np.clip(np.dot(R @ E3, E3), -1.0, 1.0))))
        for R, rank, obs in zip(R_drs, ranks, observable)]


def observability_report(R_drs, dt=1e-2, n_blocks=3, include_orientation=True):
    return _reports(np.array([R_drs]), dt, n_blocks, include_orientation)[0]


def tilt_sweep(tilts_rad, dt=1e-2, n_blocks=3):
    """Observability reports for surface pitch angles about the y-axis."""
    R = np.array([so3_exp(np.array([0.0, float(tilt), 0.0]))
                  for tilt in tilts_rad]).reshape(-1, 3, 3)
    return [report for i in range(0, len(R), _SWEEP_CHUNK)
            for report in _reports(R[i:i + _SWEEP_CHUNK], dt, n_blocks)]
