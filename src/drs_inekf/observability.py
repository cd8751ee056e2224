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
    matrix at zero contact velocity."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    H = measurement_rows(R_drs, include_orientation)
    Phi = transition_matrix(error_jacobian_nobias(np.zeros(3)), dt)
    blocks = []
    Pk = np.eye(12)
    for _ in range(n_blocks):
        blocks.append(H @ Pk)
        Pk = Pk @ Phi
    return np.vstack(blocks)


def numerical_rank(M, rtol=RANK_RTOL):
    return _rank_and_null_space(M, rtol)[0]


def _rank_and_null_space(M, rtol=RANK_RTOL):
    """Numerical rank and an orthonormal null-space basis (as columns) from
    one full SVD: the right singular vectors past the rank."""
    _, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0.0 else 0
    return rank, Vt[rank:].T


def _direction_observable(null_basis, direction, tol=1e-6):
    if null_basis.shape[1] == 0:
        return True
    d = direction / np.linalg.norm(direction)
    return float(np.linalg.norm(null_basis.T @ d)) < tol


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


def observability_report(R_drs, dt=1e-2, n_blocks=3, include_orientation=True):
    O = observability_matrix(R_drs, dt, n_blocks,
                             include_orientation=include_orientation)
    rank, ns = _rank_and_null_space(O)

    def block_dir(block, axis):
        d = np.zeros(12)
        d[3 * block + axis] = 1.0
        return d

    # yaw is the gravity-axis component of the rotation error
    roll_pitch = all(_direction_observable(ns, block_dir(0, a)) for a in (0, 1))
    yaw = _direction_observable(ns, block_dir(0, 2))
    vel = all(_direction_observable(ns, block_dir(1, a)) for a in range(3))
    pos = all(_direction_observable(ns, block_dir(2, a)) for a in range(3))
    contact = all(_direction_observable(ns, block_dir(3, a)) for a in range(3))
    tilt = float(np.arccos(np.clip(np.dot(R_drs @ E3, E3), -1.0, 1.0)))
    return ObservabilityReport(rank, roll_pitch, yaw, vel, pos, contact,
                               dt, n_blocks, tilt)


def tilt_sweep(tilts_rad, dt=1e-2, n_blocks=3):
    """Observability reports for surface pitch angles about the y-axis."""
    return [observability_report(so3_exp(np.array([0.0, float(tilt), 0.0])),
                                 dt, n_blocks)
            for tilt in tilts_rad]
