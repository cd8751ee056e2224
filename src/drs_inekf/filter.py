"""Right-invariant EKF for legged locomotion on a moving rigid surface.

Continuous phases propagate the mean with its exact constant-input flow and
the 18x18 covariance with a first-order transition of the Riccati equation;
corrections use the right-invariant observation form (surface-normal
alignment and leg-odometry position); foot landings apply a group-action jump
with encoder-driven covariance inflation.

The ``SRS`` variant models the contact point as static (zero contact
velocity) and drops the orientation observation, reproducing the
static-surface baseline filter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .liegroup import GroupElement, compose, sek3_exp, skew, skew_entries
from .state import BiasState, FilterState, symmetrize
from . import liegroup

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.81])
# the constant parts of the Gamma-term increments (R Gamma_1 a, R Gamma_2 a)
_GRAVITY_12 = np.column_stack([GRAVITY, 0.5 * GRAVITY])
_EYE3 = np.eye(3)
_EYE18 = np.eye(18)
_ZERO3 = np.zeros(3)

MAX_DT = 0.1
COND_LIMIT = 1e12


class FilterVariant(Enum):
    DRS = "drs"
    SRS = "srs"


@dataclass(frozen=True)
class ImuSample:
    omega_tilde: np.ndarray
    a_tilde: np.ndarray
    t: float


@dataclass(frozen=True)
class ProcessInput:
    imu: ImuSample
    v_c_tilde: np.ndarray
    dt: float

    def validate(self):
        if not (0.0 < self.dt <= MAX_DT):
            raise ValueError(f"dt must be in (0, {MAX_DT}], got {self.dt}")
        vals = np.concatenate([self.imu.omega_tilde, self.imu.a_tilde, self.v_c_tilde])
        if not all(map(math.isfinite, vals.tolist())):
            raise ValueError("non-finite process input")


class StepTerms(NamedTuple):
    """The input-only terms of one propagation step, for one noise setting
    and variant: the validated inputs, with the contact velocity the variant
    uses (zero for SRS), and what they alone determine."""

    omega_tilde: np.ndarray
    a_tilde: np.ndarray
    v_c: np.ndarray
    dt: float
    skew_v_c_dt: np.ndarray     # skew(v_c) dt, the contact block of I + A dt
    flow: np.ndarray            # the 6x3 mean-flow matrix of integrate_mean
    w_gyro: float               # the gyro density of Q, sd_gyro^2 dt
    white: np.ndarray           # the diagonal of Q's other white and walk blocks


def _flow_entries(dt):
    """The 18 entries, row-major, of the 6x3 matrix that takes
    [v p pc | R Gamma_1 a + g, R Gamma_2 a + g/2 | v_c] to the new (v, p, pc)."""
    return (1.0, dt, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0,
            dt, 0.0, 0.0, 0.0, dt * dt, 0.0, 0.0, 0.0, dt)


def _white_entries(noise, dt):
    """Per 3-block of the error, the diagonal Q adds to w_g G G^T: the accel
    and contact-velocity white noises and the two bias walks."""
    return (0.0, noise.sd_accel**2 * dt, 0.0, noise.sd_contact_vel**2 * dt,
            noise.sd_bias_gyro**2, noise.sd_bias_accel**2)


def step_terms(inp, noise, variant=FilterVariant.DRS):
    """The StepTerms of one ProcessInput, validated, in scalar code."""
    inp.validate()
    dt = float(inp.dt)
    v_c = _ZERO3 if variant is FilterVariant.SRS else inp.v_c_tilde
    x, y, z = [c * dt for c in v_c.tolist()]    # skew(v_c) dt = skew(v_c dt)
    return StepTerms(inp.imu.omega_tilde, inp.imu.a_tilde, v_c, dt,
                     np.array(skew_entries(x, y, z)).reshape(3, 3),
                     np.array(_flow_entries(dt)).reshape(6, 3),
                     noise.sd_gyro**2 * dt,
                     np.array(_white_entries(noise, dt)).repeat(3))


def _stack(entries, shape):
    """The (n,) + shape stack whose row-major entries are (n,) arrays or
    floats (the same in every matrix)."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1).reshape((-1,) + shape)


def _stacked_step_terms(dataset, noise, variant):
    """The StepTerms of every IMU step of a dataset, formed at once with the
    operations of ``step_terms`` on arrays, and yielded step by step.  The
    dataset must pass ``ScenarioDataset.validate``, which checks the inputs
    with step_terms' rules.
    """
    dts = np.append(np.diff(dataset.imu_t), dataset.dt)
    omega, acc, v_c = dataset.imu_omega, dataset.imu_acc, dataset.contact_v
    if variant is FilterVariant.SRS:
        v_c = np.zeros_like(v_c)
    x, y, z = (v_c * dts[:, None]).T
    terms = (omega, acc, v_c, dts.tolist(), _stack(skew_entries(x, y, z), (3, 3)),
             _stack(_flow_entries(dts), (6, 3)), (noise.sd_gyro**2 * dts).tolist(),
             _stack(_white_entries(noise, dts), (6,)).repeat(3, axis=1))
    return map(StepTerms._make, zip(*terms))


@dataclass(frozen=True)
class Observation:
    """Right-invariant observation; Y and d are 6-vectors, N is the 3x3
    effective noise covariance of the top rows."""

    kind: str          # "orientation" | "position"
    Y: np.ndarray
    d: np.ndarray
    N: np.ndarray


def integrate_mean(X, theta, omega_tilde, a_tilde, v_c, dt, *, flow=None):
    """Exact flow of the deterministic process over dt with constant inputs
    (the Gamma-function discretization of Hartley et al., IJRR 2020).
    ``flow`` is the step's mean-flow matrix (StepTerms.flow) when the caller
    has formed it already."""
    phi = (omega_tilde - theta.b_omega) * dt
    acc = a_tilde - theta.b_acc
    series = liegroup.so3_series(phi)
    # R [Exp | Gamma_1 a | Gamma_2 a] as one product
    RM = X.rot.dot(np.concatenate((series[0], series[1:].dot(acc).T), axis=1))
    # [v p pc | R Gamma_1 a + g, R Gamma_2 a + g/2 | v_c] times one matrix gives
    # (v + (R Gamma_1 a + g) dt, p + v dt + (R Gamma_2 a + g/2) dt^2, pc + v_c dt)
    if flow is None:
        flow = np.array(_flow_entries(dt)).reshape(6, 3)
    cols = np.concatenate((X.cols, RM[:, 3:] + _GRAVITY_12, v_c[:, None]),
                          axis=1).dot(flow)
    return GroupElement(RM[:, :3], cols)


def dynamics_matrix(X, theta, imu, v_c):
    """The process vector field whose flow ``integrate_mean`` takes, as a 6x6
    matrix (group-affine form)."""
    F = np.zeros((6, 6))
    F[:3, :3] = X.rot @ skew(imu.omega_tilde - theta.b_omega)
    F[:3, 3] = X.rot @ (imu.a_tilde - theta.b_acc) + GRAVITY
    F[:3, 4] = X.v
    F[:3, 5] = v_c
    return F


# the blocks of the error Jacobian that the right-invariant error makes
# independent of the state and the inputs
_ERROR_JACOBIAN_FIXED = np.zeros((18, 18))
_ERROR_JACOBIAN_FIXED[3:6, 0:3] = skew(GRAVITY)
_ERROR_JACOBIAN_FIXED[6:9, 3:6] = _EYE3


def _fill_error_jacobian(A, Ad, skew_v_c_dt, dt):
    """Write dt times the input- and state-dependent blocks of the error
    Jacobian into A, which holds dt times the fixed part (plus I for
    I + A dt); the contact block comes formed, as skew(v_c) dt."""
    A[9:12, 0:3] = skew_v_c_dt
    # the biases act through the gyro and accel inputs, seen as -Ad_X
    np.multiply(Ad[:, :6], -dt, out=A[:12, 12:18])
    return A


def error_jacobian(Ad, v_c_tilde):
    """18x18 Jacobian of the linearized invariant-error dynamics at adjoint Ad."""
    return _fill_error_jacobian(_ERROR_JACOBIAN_FIXED.copy(), Ad, skew(v_c_tilde),
                                1.0)


def error_jacobian_nobias(v_c):
    """12x12 bias-free block of the error Jacobian (nilpotent)."""
    return error_jacobian(np.zeros((12, 12)), v_c)[:12, :12].copy()


def _noise_covariance(Ad, w_gyro, white):
    """Effective continuous-time noise density, rotated into the invariant
    error frame, from StepTerms' gyro density ``w_gyro`` and ``white`` diagonal.

    White sensor noises are per-sample SDs at the step rate, so their
    densities scale with dt; bias walks are densities already.  Each white
    block is isotropic, w I, so Ad diag(w) Ad^T needs no rotation: the gyro
    block gives w G G^T with G = Ad[:, :3], and the accel and contact-velocity
    blocks, whose adjoint columns hold R alone, give w R R^T = w I.
    """
    G = Ad[:, :3]
    Q = np.zeros((18, 18))
    Q[:12, :12] = (G * w_gyro).dot(G.T)
    Q.ravel()[::19] += white            # the diagonal of Q, as a view
    return Q


def propagate(state, inp, noise, variant=FilterVariant.DRS):
    """One continuous-phase propagation step (exact mean flow, first-order
    covariance transition).

    ``inp`` is a ProcessInput, or StepTerms already formed for this noise
    and variant (``run_variant`` forms those of a whole dataset at once).
    """
    if not isinstance(inp, StepTerms):
        inp = step_terms(inp, noise, variant)
    omega, acc, v_c, dt, skew_v_c_dt, flow, w_gyro, white = inp
    Ad = liegroup.adjoint(state.X)
    # first-order transition Phi P Phi^T + Q dt rather than the raw Euler
    # Riccati step: the quadratic term it retains keeps P positive
    # semidefinite when updates have collapsed some directions
    Phi = _fill_error_jacobian(_EYE18 + _ERROR_JACOBIAN_FIXED * dt, Ad,
                               skew_v_c_dt, dt)
    X_new = integrate_mean(state.X, state.theta, omega, acc, v_c, dt, flow=flow)
    P = Phi.dot(state.P).dot(Phi.T) + _noise_covariance(Ad, w_gyro, white) * dt
    return FilterState(X_new, state.theta, symmetrize(P), state.t + dt)


def orientation_observation(q_tilde, R_drs_tilde, model, noise, R_est):
    """Surface-normal alignment observation (needs a flat support foot)."""
    RJ = R_est.dot(model.J_hR3(q_tilde))
    # the measurement carries no information along the unit normal d, so the
    # noise model is completed to full rank there to keep the innovation
    # covariance invertible: skew(d) skew(d)^T + d d^T = I
    N = noise.sd_encoder**2 * RJ.dot(RJ.T) + noise.sd_drs_orient**2 * _EYE3
    Y = np.concatenate((model.h_R(q_tilde)[:, 2], _ZERO3))
    d = np.concatenate((R_drs_tilde[:, 2], _ZERO3))
    return Observation("orientation", Y, d, N)


def position_observation(q_tilde, model, noise, R_est):
    """Leg-odometry position observation."""
    Y = np.concatenate([model.h_p(q_tilde), [0.0, 1.0, -1.0]])
    d = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0])
    RJ = R_est.dot(model.J_hp(q_tilde))
    N = noise.sd_encoder**2 * RJ.dot(RJ.T)
    return Observation("position", Y, d, N)


_POSITION_ROWS = np.hstack([np.zeros((3, 6)), -_EYE3, _EYE3])
_POSITION_ROWS.flags.writeable = False


def observation_row(kind, normal):
    """Reduced 3x12 observation matrix for one observation kind; ``normal``,
    the reported surface normal, is used by the orientation rows only."""
    if kind == "position":
        return _POSITION_ROWS
    if kind == "orientation":
        H = np.zeros((3, 12))
        H[:, 0:3] = skew(normal)
        return H
    raise ValueError(f"unknown observation kind: {kind}")


def _innovations(X, observations):
    """The top three rows of X*Y - d per observation, X's being [R | v p pc]."""
    top = np.concatenate((X.rot, X.cols), axis=1)
    return np.concatenate([top.dot(obs.Y) - obs.d[:3] for obs in observations])


MAX_SUBSTEP_ROT = 0.1
MAX_SUBSTEPS = 32


def _gain(P, H, N, t):
    """Gain P H^T S^-1, S = H P H^T + N; None (logged) if S is ill-conditioned.

    S is symmetric, so its 2-norm condition number max|l| / min|l| comes
    from its eigenvalues l, and eigh raises LinAlgError on a NaN or inf; the
    same eigendecomposition S = V diag(l) V^T solves for the gain.
    """
    HP = H.dot(P)
    lam, V = np.linalg.eigh(HP.dot(H.T) + N)
    magnitudes = [abs(x) for x in lam.tolist()]
    lo, hi = min(magnitudes), max(magnitudes)
    if lo == 0.0 or hi > COND_LIMIT * lo:
        log.warning("update skipped at t=%.4f: innovation covariance "
                    "ill-conditioned", t)
        return None
    return (HP.T.dot(V) / lam).dot(V.T)


def update(state, observations):
    """Joint right-invariant update with all supplied observations.

    Large attitude corrections are applied progressively: the measurement is
    split into m sub-updates with covariance m*N (exactly equivalent for a
    linear system), each relinearizing the innovation.  This keeps every
    exponential-map step small and prevents the linearized correction from
    overshooting during large-error transients.
    """
    if not observations:
        raise ValueError("update needs at least one observation")
    k = len(observations)
    H = np.zeros((3 * k, 18))
    Nbar = np.zeros((3 * k, 3 * k))
    for i, obs in enumerate(observations):
        rows = slice(3 * i, 3 * i + 3)
        H[rows, :12] = observation_row(obs.kind, obs.d[:3])
        Nbar[rows, rows] = obs.N
    z = _innovations(state.X, observations)
    L = _gain(state.P, H, Nbar, state.t)
    if L is None:
        return state
    dx = L.dot(z)
    rot_steps = math.hypot(*dx[:3].tolist()) / MAX_SUBSTEP_ROT
    if not rot_steps < math.inf:        # else math.ceil raises
        raise FloatingPointError("the correction's rotation overflows")
    n_steps = min(MAX_SUBSTEPS, max(1, math.ceil(rot_steps)))

    Nsub = Nbar * n_steps if n_steps > 1 else Nbar
    X, theta, P = state.X, state.theta, state.P
    for step in range(n_steps):
        # one step keeps the sizing gain; sub-steps change S through m*N and P
        if n_steps > 1:
            L = _gain(P, H, Nsub, state.t)
            if L is None:
                return state
            if step > 0:
                z = _innovations(X, observations)
            dx = L.dot(z)
        X = compose(sek3_exp(dx[:12]), X)
        theta = BiasState(theta.b_omega + dx[12:15], theta.b_acc + dx[15:])
        # Joseph form keeps P positive semidefinite under large gains
        ILH = _EYE18 - L.dot(H)
        P = symmetrize(ILH.dot(P).dot(ILH.T) + L.dot(Nsub).dot(L.T))
    return FilterState(X, theta, P, state.t)


def jump_propagate(state, q_tilde_at_landing, model, noise):
    """Foot-landing jump: shift the tracked contact point and inflate P."""
    cols = np.zeros((3, 3))
    cols[:, 2] = model.h_c(q_tilde_at_landing)
    X_new = compose(state.X, GroupElement(_EYE3, cols))
    # the encoder noise enters the contact error only, and the adjoint's
    # contact column block is R on its diagonal: Ad cov Ad^T is R cov R^T there
    RJc = state.X.rot @ model.J_hc(q_tilde_at_landing)
    P = state.P.copy()
    P[9:12, 9:12] += noise.sd_encoder**2 * (RJc @ RJc.T)
    return FilterState(X_new, state.theta, symmetrize(P), state.t)


def run_variant(state, dataset, variant, model, noise):
    """Run the filter over a scenario dataset.

    Returns the list of filter states at measurement times.  The dataset
    must pass ``ScenarioDataset.validate``, which gives the event schedule.
    """
    schedule = dataset.validate()
    steps = _stacked_step_terms(dataset, noise, variant)

    trajectory = []
    for (js, jm, jo), terms in zip(schedule.tolist(), steps):
        try:
            state = propagate(state, terms, noise, variant)
            if js >= 0:
                state = jump_propagate(state, dataset.switch_q[js], model, noise)
            if jm >= 0:
                obs = [position_observation(dataset.enc_q[jm], model, noise,
                                            state.X.rot)]
                if variant is FilterVariant.DRS and jo >= 0:
                    obs.insert(0, orientation_observation(
                        dataset.enc_q[jm], dataset.drs_rot[jo], model, noise,
                        state.X.rot))
                state = update(state, obs)
                trajectory.append(state)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            # name the time of the last state
            raise type(exc)(f"at t={state.t:.4f} s: {exc}") from None
    return trajectory
