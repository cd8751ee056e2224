"""Filter propagation, correction, and jump contracts."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import drs_inekf.filter as filter_module
from drs_inekf.filter import (COND_LIMIT, GRAVITY, MAX_SUBSTEP_ROT,
                              MAX_SUBSTEPS, FilterVariant, ImuSample,
                              Observation, ProcessInput, dynamics_matrix,
                              error_jacobian, integrate_mean,
                              jump_propagate, observation_row,
                              orientation_observation, position_observation,
                              propagate, run_variant, step_terms, update)
from drs_inekf.kinematics import E3, VirtualLeg
from drs_inekf.harness import initial_state_for_run
from drs_inekf.liegroup import (GroupElement, adjoint, compose, inverse,
                                sek3_exp, sek3_log, skew, so3_exp,
                                so3_series)
from drs_inekf.observability import error_jacobian_nobias
from drs_inekf.sim import ScenarioConfig, generate
from drs_inekf.drs import PitchProfile
from drs_inekf.state import (BiasState, FilterState, NoiseConfig,
                             run_covariance, symmetrize)


def random_state(rng, P=None):
    X = sek3_exp(rng.uniform(-1.0, 1.0, 12))
    P = run_covariance() if P is None else P
    return FilterState(X, BiasState(), P, 0.0)


def standing_state(P=None):
    X = GroupElement.from_parts(np.eye(3), np.zeros(3), [0.3, 0.0, 0.9],
                                [0.3, 0.0, 0.0])
    return FilterState(X, BiasState(), run_covariance() if P is None else P, 0.0)


def test_process_input_validation():
    imu = ImuSample(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        ProcessInput(imu, np.zeros(3), 0.0).validate()
    with pytest.raises(ValueError):
        ProcessInput(imu, np.zeros(3), 0.2).validate()
    with pytest.raises(ValueError):
        ProcessInput(ImuSample(np.array([np.nan, 0, 0]), np.zeros(3), 0.0),
                     np.zeros(3), 0.01).validate()
    ProcessInput(imu, np.zeros(3), 0.01).validate()


def test_free_fall_mean_integration():
    # zero inputs: rotation constant, v gains g*dt, p gains v*dt + g*dt^2/2
    X = GroupElement.from_parts(np.eye(3), np.array([1.0, 0.0, 0.0]),
                                np.zeros(3), np.zeros(3))
    dt = 0.01
    Xn = integrate_mean(X, BiasState(), np.zeros(3), np.zeros(3), np.zeros(3), dt)
    assert np.allclose(Xn.rot, np.eye(3), atol=1e-12)
    assert np.allclose(Xn.v, X.v + GRAVITY * dt, atol=1e-12)
    assert np.allclose(Xn.p, X.v * dt + 0.5 * GRAVITY * dt**2, atol=1e-9)
    assert np.allclose(Xn.pc, 0.0, atol=1e-14)


def test_contact_velocity_drives_contact_point():
    X = GroupElement.identity()
    vc = np.array([0.2, -0.1, 0.05])
    Xn = integrate_mean(X, BiasState(), np.zeros(3), np.zeros(3), vc, 0.01)
    assert np.allclose(Xn.pc, vc * 0.01, atol=1e-12)


def test_bias_subtraction_in_mean_integration():
    rng = np.random.default_rng(0)
    X = sek3_exp(rng.uniform(-0.5, 0.5, 12))
    w = rng.standard_normal(3)
    a = rng.standard_normal(3)
    b = BiasState(np.array([0.01, -0.02, 0.005]), np.array([0.1, 0.0, -0.05]))
    ref = integrate_mean(X, BiasState(), w - b.b_omega, a - b.b_acc,
                         np.zeros(3), 0.01)
    out = integrate_mean(X, b, w, a, np.zeros(3), 0.01)
    assert np.allclose(out.as_matrix(), ref.as_matrix(), atol=1e-14)


def test_mean_flow_is_a_semigroup():
    # an exact flow over dt equals two flows over dt/2 with the same inputs;
    # a Runge-Kutta step misses this by its local error
    rng = np.random.default_rng(5)
    dt = 0.05
    for _ in range(50):
        X = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        b = BiasState(0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))
        w = rng.uniform(-3.0, 3.0, 3)
        a = rng.uniform(-10.0, 10.0, 3)
        vc = rng.standard_normal(3)
        one = integrate_mean(X, b, w, a, vc, dt)
        half = integrate_mean(X, b, w, a, vc, dt / 2)
        two = integrate_mean(half, b, w, a, vc, dt / 2)
        assert np.abs(one.as_matrix() - two.as_matrix()).max() < 1e-12


def test_rotation_stays_orthogonal_over_long_integration():
    rng = np.random.default_rng(1)
    X = GroupElement.identity()
    for _ in range(2000):
        w = rng.uniform(-2.0, 2.0, 3)
        a = rng.uniform(-5.0, 5.0, 3)
        X = integrate_mean(X, BiasState(), w, a, np.zeros(3), 0.01)
    assert np.abs(X.rot @ X.rot.T - np.eye(3)).max() < 1e-8


def test_dynamics_matrix_consistent_with_mean_derivative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        X = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        imu = ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
        vc = rng.standard_normal(3)
        F = dynamics_matrix(X, BiasState(), imu, vc)
        assert np.allclose(F[:3, :3], X.rot @ np.array(
            [[0, -imu.omega_tilde[2], imu.omega_tilde[1]],
             [imu.omega_tilde[2], 0, -imu.omega_tilde[0]],
             [-imu.omega_tilde[1], imu.omega_tilde[0], 0]]), atol=1e-12)
        assert np.allclose(F[:3, 3], X.rot @ imu.a_tilde + GRAVITY, atol=1e-12)
        assert np.allclose(F[:3, 4], X.v, atol=1e-12)
        assert np.allclose(F[:3, 5], vc, atol=1e-12)
        assert np.allclose(F[3:, :], 0.0)


def test_error_jacobian_matches_numeric_error_flow():
    # column i of the Jacobian is the time derivative of the invariant error
    # seeded along basis direction i
    rng = np.random.default_rng(3)
    dt = 1e-4
    eps = 1e-6
    X_true = sek3_exp(rng.uniform(-0.5, 0.5, 12))
    w = rng.standard_normal(3)
    a = rng.standard_normal(3)
    vc = rng.standard_normal(3)
    st = FilterState(X_true, BiasState(), run_covariance(), 0.0)
    A = error_jacobian(adjoint(st.X), vc)
    for i in range(18):
        d = np.zeros(18)
        d[i] = eps
        X_est = compose(sek3_exp(d[:12]), X_true)
        theta_est = BiasState.from_vector(d[12:])
        Xt1 = integrate_mean(X_true, BiasState(), w, a, vc, dt)
        Xe1 = integrate_mean(X_est, theta_est, w, a, vc, dt)
        xi1 = sek3_log(compose(Xe1, inverse(Xt1)))
        dxi_dt = (xi1 - d[:12]) / dt
        assert np.allclose(dxi_dt, (A @ d)[:12], atol=5e-3 * eps / dt * dt + 1e-8), i


def test_propagate_keeps_covariance_symmetric_psd():
    rng = np.random.default_rng(4)
    st = random_state(rng)
    noise = NoiseConfig()
    for _ in range(200):
        imu = ImuSample(rng.uniform(-1, 1, 3), rng.uniform(-5, 5, 3), st.t)
        st = propagate(st, ProcessInput(imu, rng.uniform(-0.2, 0.2, 3), 0.005),
                       noise)
    assert np.allclose(st.P, st.P.T, atol=1e-12)
    assert np.linalg.eigvalsh(st.P).min() > 0.0


def test_propagate_zero_noise_keeps_covariance_under_zero_dynamics():
    # a stationary, zero-input state with zero noise must not grow P beyond
    # the deterministic coupling terms
    st = standing_state(P=np.zeros((18, 18)))
    noise = NoiseConfig(sd_gyro=0.0, sd_accel=0.0, sd_bias_gyro=0.0,
                        sd_bias_accel=0.0, sd_contact_vel=0.0,
                        sd_encoder=0.0, sd_drs_orient=0.0)
    imu = ImuSample(np.zeros(3), -GRAVITY, 0.0)
    st = propagate(st, ProcessInput(imu, np.zeros(3), 0.01), noise)
    assert np.allclose(st.P, 0.0, atol=1e-15)


def test_srs_variant_ignores_contact_velocity_input():
    st = standing_state()
    noise = NoiseConfig()
    imu = ImuSample(np.zeros(3), -GRAVITY, 0.0)
    vc = np.array([0.5, 0.0, 0.0])
    drs = propagate(st, ProcessInput(imu, vc, 0.01), noise, FilterVariant.DRS)
    srs = propagate(st, ProcessInput(imu, vc, 0.01), noise, FilterVariant.SRS)
    assert np.allclose(drs.X.pc, st.X.pc + vc * 0.01, atol=1e-12)
    assert np.allclose(srs.X.pc, st.X.pc, atol=1e-12)


def test_observation_innovation_zero_at_truth():
    leg = VirtualLeg()
    noise = NoiseConfig()
    st = standing_state()
    R_drs = so3_exp(np.array([0.0, 0.05, 0.0]))
    # encoder joints consistent with the state and a surface-flat foot
    q = leg.inverse(st.X.rot.T @ (st.X.pc - st.X.p), st.X.rot.T @ R_drs)
    obs_p = position_observation(q, leg, noise, st.X.rot)
    obs_r = orientation_observation(q, R_drs, leg, noise, st.X.rot)
    assert np.linalg.norm(_reference_innovation(st, obs_p)) < 1e-12
    assert np.linalg.norm(_reference_innovation(st, obs_r)) < 1e-12


def test_orientation_observation_noise_is_positive_definite():
    leg = VirtualLeg()
    noise = NoiseConfig()
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-1.0, 1.0, 6)
        R_drs = so3_exp(np.array([0.0, rng.uniform(-0.2, 0.2), 0.0]))
        R_est = so3_exp(rng.uniform(-1.0, 1.0, 3))
        obs = orientation_observation(q, R_drs, leg, noise, R_est)
        assert np.linalg.eigvalsh(obs.N).min() > 0.0


def test_update_with_exact_measurement_at_truth_is_transparent():
    # zero innovation: the mean must not move and trace(P) must not grow
    leg = VirtualLeg()
    noise = NoiseConfig()
    st = standing_state()
    R_drs = np.eye(3)
    q = leg.inverse(st.X.rot.T @ (st.X.pc - st.X.p), st.X.rot.T @ R_drs)
    obs = [orientation_observation(q, R_drs, leg, noise, st.X.rot),
           position_observation(q, leg, noise, st.X.rot)]
    out = update(st, obs)
    assert np.allclose(out.X.as_matrix(), st.X.as_matrix(), atol=1e-12)
    assert np.allclose(out.theta.as_vector(), 0.0, atol=1e-12)
    assert np.trace(out.P) <= np.trace(st.P) + 1e-12


def test_update_reduces_position_innovation():
    leg = VirtualLeg()
    noise = NoiseConfig()
    st = standing_state()
    X_off = GroupElement.from_parts(st.X.rot, st.X.v, st.X.p + [0.3, -0.2, 0.1],
                                    st.X.pc)
    st_off = FilterState(X_off, BiasState(), run_covariance(), 0.0)
    q = leg.inverse(st.X.rot.T @ (st.X.pc - st.X.p), st.X.rot.T)
    obs = position_observation(q, leg, noise, st_off.X.rot)
    before = np.linalg.norm(_reference_innovation(st_off, obs))
    out = update(st_off, [obs])
    after = np.linalg.norm(_reference_innovation(out, obs))
    assert after < 0.2 * before


def test_update_covariance_stays_psd_with_large_errors():
    rng = np.random.default_rng(6)
    leg = VirtualLeg()
    noise = NoiseConfig()
    for _ in range(50):
        st = random_state(rng)
        q = rng.uniform(-1.0, 1.0, 6)
        R_drs = so3_exp(np.array([0.0, rng.uniform(-0.2, 0.2), 0.0]))
        obs = [orientation_observation(q, R_drs, leg, noise, st.X.rot),
               position_observation(q, leg, noise, st.X.rot)]
        out = update(st, obs)
        assert np.allclose(out.P, out.P.T, atol=1e-10)
        assert np.linalg.eigvalsh(out.P).min() > -1e-12


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(xi=arrays(float, 12, elements=st.floats(-2.0, 2.0)),
       q=arrays(float, 6, elements=_UNIT), pitch=st.floats(-0.2, 0.2))
def test_update_keeps_covariance_symmetric_psd_property(xi, q, pitch):
    # a drawn state far from what the joint vector and the surface report:
    # attitude errors up to about 3.5 rad and position errors of meters
    st_ = FilterState(sek3_exp(xi), BiasState(), run_covariance(), 0.0)
    leg = VirtualLeg()
    noise = NoiseConfig()
    R_drs = so3_exp(np.array([0.0, pitch, 0.0]))
    obs = [orientation_observation(q, R_drs, leg, noise, st_.X.rot),
           position_observation(q, leg, noise, st_.X.rot)]
    out = update(st_, obs)
    assert np.allclose(out.P, out.P.T, atol=1e-10)
    assert np.linalg.eigvalsh(out.P).min() > -1e-12


def test_update_skips_on_singular_innovation_covariance(caplog):
    leg = VirtualLeg()
    zero_noise = NoiseConfig(sd_gyro=0.0, sd_accel=0.0, sd_bias_gyro=0.0,
                             sd_bias_accel=0.0, sd_contact_vel=0.0,
                             sd_encoder=0.0, sd_drs_orient=0.0)
    st = standing_state()
    q = leg.inverse(st.X.rot.T @ (st.X.pc - st.X.p), st.X.rot.T)
    obs = orientation_observation(q, np.eye(3), leg, zero_noise, st.X.rot)
    import logging
    with caplog.at_level(logging.WARNING, logger="drs_inekf.filter"):
        out = update(st, [obs])
    assert out is st
    assert any("ill-conditioned" in rec.message for rec in caplog.records)


@settings(max_examples=200, deadline=None)
@given(log_cond=st.floats(10.0, 14.0), log_scale=st.floats(-6.0, 2.0),
       size=st.sampled_from([3, 6]), seed=st.integers(0, 2**32 - 1))
def test_gain_skip_decision_equals_svd_condition_test(log_cond, log_scale,
                                                       size, seed):
    # eigvalsh and the SVD behind cond estimate the condition number to about
    # eps * cond relative, so a band of 2% around the limit is left out
    assume(abs(log_cond - np.log10(COND_LIMIT)) > 0.01)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    lam = np.r_[1.0, 10.0 ** -rng.uniform(0.0, log_cond, size - 2),
                10.0 ** -log_cond] * 10.0 ** log_scale
    S = symmetrize((Q * lam) @ Q.T)
    skipped = filter_module._gain(S, np.eye(size), np.zeros((size, size)),
                                  0.0) is None
    assert skipped == (np.linalg.cond(S) > COND_LIMIT)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gain_raises_on_non_finite_innovation_covariance(bad):
    P = run_covariance()
    P[4, 4] = bad
    H = np.zeros((3, 18))
    H[:, 3:6] = np.eye(3)
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        filter_module._gain(P, H, np.eye(3), 0.0)


def _reference_innovation(state, obs):
    X = state.X
    return X.rot @ obs.Y[:3] + X.cols @ obs.Y[3:] - obs.d[:3]


def _reference_update(state, observations):
    """The update as first written: cond and solve to size the sub-steps,
    then cond and inv again for every sub-step's gain."""
    k = len(observations)
    H = np.zeros((3 * k, 18))
    z = np.zeros(3 * k)
    Nbar = np.zeros((3 * k, 3 * k))
    for i, obs in enumerate(observations):
        rows = slice(3 * i, 3 * i + 3)
        H[rows, :12] = observation_row(obs.kind, obs.d[:3])
        z[rows] = _reference_innovation(state, obs)
        Nbar[rows, rows] = obs.N
    S = H @ state.P @ H.T + Nbar
    if np.linalg.cond(S) > COND_LIMIT:
        return state
    dx_full = state.P @ H.T @ np.linalg.solve(S, z)
    rot_step = np.linalg.norm(dx_full[:3])
    n_steps = int(min(MAX_SUBSTEPS, max(1, np.ceil(rot_step / MAX_SUBSTEP_ROT))))
    Nsub = Nbar * n_steps
    X, theta, P = state.X, state.theta, state.P
    for step in range(n_steps):
        S = H @ P @ H.T + Nsub
        if np.linalg.cond(S) > COND_LIMIT:
            return state
        L = P @ H.T @ np.linalg.inv(S)
        if step > 0:
            tmp = FilterState(X, theta, P, state.t)
            z = np.concatenate([_reference_innovation(tmp, obs)
                                for obs in observations])
        dx = L @ z
        X = compose(sek3_exp(dx[:12]), X)
        theta = BiasState.from_vector(theta.as_vector() + dx[12:])
        ILH = np.eye(18) - L @ H
        P = symmetrize(ILH @ P @ ILH.T + L @ Nsub @ L.T)
    return FilterState(X, theta, P, state.t)


@pytest.mark.parametrize("substeps", [False, True], ids=["one-step", "sub-steps"])
def test_update_matches_reference_gain_sequence(monkeypatch, substeps):
    # one gain per distinct S: a single step reuses the sizing gain, and
    # sub-steps factor S once each
    leg = VirtualLeg()
    noise = NoiseConfig()
    st = standing_state()
    q = leg.inverse(st.X.rot.T @ (st.X.pc - st.X.p), st.X.rot.T)
    tilt = 0.5 if substeps else 0.02
    X_off = compose(sek3_exp(np.r_[0.0, tilt, 0.0, np.zeros(9)]), st.X)
    st_off = FilterState(X_off, BiasState(), run_covariance(), 0.0)
    obs = [orientation_observation(q, np.eye(3), leg, noise, X_off.rot),
           position_observation(q, leg, noise, X_off.rot)]
    calls = []
    monkeypatch.setattr(filter_module, "sek3_exp",
                        lambda xi: calls.append(1) or sek3_exp(xi))
    out = update(st_off, obs)
    ref = _reference_update(st_off, obs)
    assert (len(calls) > 1) == substeps
    assert np.abs(out.X.as_matrix() - ref.X.as_matrix()).max() < 1e-12
    assert np.abs(out.theta.as_vector() - ref.theta.as_vector()).max() < 1e-12
    assert np.abs(out.P - ref.P).max() < 1e-12


# The step as written before its per-step matrices were assembled in place:
# the adjoint block by block, I + A dt from the error Jacobian, the noise
# sandwich Ad diag(w) Ad^T, the mean flow term by term and the orientation
# noise with its skew completion.


def _reference_adjoint(X):
    Ad = np.zeros((12, 12))
    for i in range(4):
        Ad[3 * i:3 * i + 3, 3 * i:3 * i + 3] = X.rot
    for i, col in enumerate(X.cols.T, start=1):
        Ad[3 * i:3 * i + 3, :3] = skew(col) @ X.rot
    return Ad


def _reference_noise(Ad, noise, dt):
    w = np.array(3 * [noise.sd_gyro**2 * dt] + 3 * [noise.sd_accel**2 * dt]
                 + 3 * [0.0] + 3 * [noise.sd_contact_vel**2 * dt]
                 + 3 * [noise.sd_bias_gyro**2] + 3 * [noise.sd_bias_accel**2])
    Q = np.diag(w)
    Q[:12, :12] = (Ad * w[:12]) @ Ad.T
    return Q


def _reference_integrate_mean(X, theta, omega_tilde, a_tilde, v_c, dt):
    Exp, G1, G2 = so3_series((omega_tilde - theta.b_omega) * dt)
    acc = a_tilde - theta.b_acc
    R = X.rot
    return GroupElement.from_parts(
        R @ Exp, X.v + (R @ G1 @ acc + GRAVITY) * dt,
        X.p + X.v * dt + (R @ G2 @ acc + 0.5 * GRAVITY) * dt**2,
        X.pc + v_c * dt)


def _reference_propagate(state, inp, noise, variant):
    v_c = np.zeros(3) if variant is FilterVariant.SRS else inp.v_c_tilde
    Ad = _reference_adjoint(state.X)
    Phi = np.eye(18) + error_jacobian(Ad, v_c) * inp.dt
    P = Phi @ state.P @ Phi.T + _reference_noise(Ad, noise, inp.dt) * inp.dt
    X = _reference_integrate_mean(state.X, state.theta, inp.imu.omega_tilde,
                                  inp.imu.a_tilde, v_c, inp.dt)
    return FilterState(X, state.theta, symmetrize(P), state.t + inp.dt)


def _reference_orientation_observation(q, R_drs, model, noise, R_est):
    d = R_drs @ E3
    Sd = skew(d)
    J3 = model.J_hR3(q)
    N = (noise.sd_drs_orient**2 * (Sd @ Sd.T + np.outer(d, d))
         + noise.sd_encoder**2 * R_est @ J3 @ J3.T @ R_est.T)
    return Observation("orientation", np.r_[model.h_R(q) @ E3, 0.0, 0.0, 0.0],
                       np.r_[d, 0.0, 0.0, 0.0], N)


def _reference_position_observation(q, model, noise, R_est):
    Jp = model.J_hp(q)
    return Observation("position", np.r_[model.h_p(q), 0.0, 1.0, -1.0],
                       np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]),
                       noise.sd_encoder**2 * R_est @ Jp @ Jp.T @ R_est.T)


def _reference_run(state, ds, variant, model, noise):
    dts = np.append(np.diff(ds.imu_t), ds.dt)
    switch, meas, orient = ({int(k): j for j, k in enumerate(ds.event_steps(t))}
                            for t in (ds.switch_t, ds.meas_t, ds.drs_t))
    trajectory = []
    for k in range(ds.imu_t.size):
        imu = ImuSample(ds.imu_omega[k], ds.imu_acc[k], ds.imu_t[k])
        state = _reference_propagate(
            state, ProcessInput(imu, ds.contact_v[k], dts[k]), noise, variant)
        if k in switch:
            state = jump_propagate(state, ds.switch_q[switch[k]], model, noise)
        if k in meas:
            q = ds.enc_q[meas[k]]
            obs = [_reference_position_observation(q, model, noise,
                                                   state.X.rot)]
            if variant is FilterVariant.DRS and k in orient:
                obs.insert(0, _reference_orientation_observation(
                    q, ds.drs_rot[orient[k]], model, noise, state.X.rot))
            state = _reference_update(state, obs)
            trajectory.append(state)
    return trajectory


def _relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@settings(max_examples=200, deadline=None)
@given(xi=arrays(float, 12, elements=st.floats(-3.0, 3.0)),
       dt=st.floats(1e-4, 0.1))
def test_noise_covariance_matches_adjoint_sandwich(xi, dt):
    Ad = adjoint(sek3_exp(xi))
    noise = NoiseConfig()
    terms = step_terms(ProcessInput(ImuSample(np.zeros(3), np.zeros(3), 0.0),
                                    np.zeros(3), dt), noise)
    Q = filter_module._noise_covariance(Ad, terms.w_gyro, terms.white)
    assert _relative(Q, _reference_noise(Ad, noise, dt)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(xi=arrays(float, 12, elements=st.floats(-3.0, 3.0)),
       bias=arrays(float, 6, elements=st.floats(-0.1, 0.1)),
       omega=arrays(float, 3, elements=st.floats(-3.0, 3.0)),
       acc=arrays(float, 3, elements=st.floats(-20.0, 20.0)),
       v_c=arrays(float, 3, elements=_UNIT), dt=st.floats(1e-4, 0.1),
       variant=st.sampled_from(FilterVariant), seed=st.integers(0, 2**32 - 1))
def test_propagate_matches_first_order_reference_step(xi, bias, omega, acc,
                                                       v_c, dt, variant, seed):
    # the SRS variant propagates with a zero contact velocity
    B = np.random.default_rng(seed).standard_normal((18, 18))
    state = FilterState(sek3_exp(xi), BiasState.from_vector(bias),
                        B @ B.T / 18.0 + run_covariance(1e-2), 0.3)
    inp = ProcessInput(ImuSample(omega, acc, 0.3), v_c, dt)
    out = propagate(state, inp, NoiseConfig(), variant)
    ref = _reference_propagate(state, inp, NoiseConfig(), variant)
    assert _relative(out.P, ref.P) < 1e-12
    assert _relative(out.X.rot, ref.X.rot) < 1e-12
    assert _relative(out.X.cols, ref.X.cols) < 1e-12
    assert out.t == ref.t


@settings(max_examples=200, deadline=None)
@given(q=arrays(float, 6, elements=_UNIT),
       surface=arrays(float, 3, elements=st.floats(-0.5, 0.5)),
       rot=arrays(float, 3, elements=st.floats(-3.0, 3.0)))
def test_orientation_noise_matches_skew_completion(q, surface, rot):
    leg = VirtualLeg()
    noise = NoiseConfig()
    R_drs, R_est = so3_exp(surface), so3_exp(rot)
    obs = orientation_observation(q, R_drs, leg, noise, R_est)
    ref = _reference_orientation_observation(q, R_drs, leg, noise, R_est)
    assert _relative(obs.N, ref.N) < 1e-12
    assert np.array_equal(obs.Y, ref.Y) and np.array_equal(obs.d, ref.d)


@pytest.mark.parametrize("variant", list(FilterVariant), ids=lambda v: v.value)
def test_run_variant_matches_reference_step_on_case_a(variant):
    # criterion 5's scenario: 1,600 IMU steps with landing jumps, 800 updates
    # and large initial errors, so the first updates take sub-steps
    cfg = ScenarioConfig(profile=PitchProfile(kind="TM1", phase_s=2.8),
                         robot_motion="RM1", duration=8.0, imu_rate=200.0,
                         meas_rate=100.0, orient_rate=15.0, seed=1)
    ds = generate(cfg)
    assert ds.imu_t.size == 1600 and ds.switch_t.size > 0
    start = initial_state_for_run(ds, np.random.default_rng(1))
    leg, noise = VirtualLeg(), NoiseConfig()
    out = run_variant(start, ds, variant, leg, noise)
    ref = _reference_run(start, ds, variant, leg, noise)
    assert len(out) == len(ref) == ds.meas_t.size
    for a, b in zip(out, ref):
        assert a.t == b.t
        assert np.abs(a.X.as_matrix() - b.X.as_matrix()).max() < 1e-11
        assert np.abs(a.theta.as_vector() - b.theta.as_vector()).max() < 1e-11
        assert np.abs(a.P - b.P).max() < 1e-11


def test_update_requires_observations():
    with pytest.raises(ValueError):
        update(standing_state(), [])


def test_jump_shifts_contact_point_and_inflates_covariance():
    leg = VirtualLeg()
    noise = NoiseConfig()
    st = standing_state()
    q_prev = leg.inverse(np.array([0.0, 0.1, -0.9]), np.eye(3))
    q_new = leg.inverse(np.array([0.0, -0.1, -0.9]), np.eye(3))
    stacked = np.concatenate([q_prev, q_new])
    out = jump_propagate(st, stacked, leg, noise)
    expect = st.X.pc + st.X.rot @ leg.h_c(stacked)
    assert np.allclose(out.X.pc, expect, atol=1e-12)
    assert np.allclose(out.X.p, st.X.p, atol=1e-14)
    assert np.allclose(out.X.v, st.X.v, atol=1e-14)
    assert np.trace(out.P) > np.trace(st.P)


def test_jump_inflation_equals_adjoint_sandwich():
    # the encoder noise enters the contact error only, so Ad cov Ad^T touches
    # the contact block alone
    rng = np.random.default_rng(8)
    leg = VirtualLeg()
    noise = NoiseConfig()
    for _ in range(50):
        A = rng.standard_normal((18, 18))
        st = FilterState(sek3_exp(rng.uniform(-1.0, 1.0, 12)), BiasState(),
                         A @ A.T, 0.0)
        stacked = rng.uniform(-1.0, 1.0, 12)
        Jc = leg.J_hc(stacked)
        cov12 = np.zeros((12, 12))
        cov12[9:12, 9:12] = noise.sd_encoder**2 * Jc @ Jc.T
        Ad = adjoint(st.X)
        expect = st.P.copy()
        expect[:12, :12] += Ad @ cov12 @ Ad.T
        out = jump_propagate(st, stacked, leg, noise)
        assert np.abs(out.P - symmetrize(expect)).max() < 1e-15


def test_jump_preserves_invariant_error():
    # the same deterministic jump applied to truth and estimate cancels in the
    # right-invariant error
    rng = np.random.default_rng(7)
    leg = VirtualLeg()
    noise = NoiseConfig()
    for _ in range(100):
        X_true = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        xi = rng.uniform(-1.0, 1.0, 12)
        X_est = compose(sek3_exp(xi), X_true)
        stacked = rng.uniform(-1.0, 1.0, 12)
        jt = jump_propagate(FilterState(X_true, BiasState(), run_covariance(), 0.0),
                            stacked, leg, noise)
        je = jump_propagate(FilterState(X_est, BiasState(), run_covariance(), 0.0),
                            stacked, leg, noise)
        xi_after = sek3_log(compose(je.X, inverse(jt.X)))
        assert np.allclose(xi_after, xi, atol=1e-12)


def test_zero_noise_run_tracks_truth():
    # exact data from the matched simulator: the filter mean must reproduce
    # the ground truth to machine-level accuracy
    zero = NoiseConfig(sd_gyro=0.0, sd_accel=0.0, sd_bias_gyro=0.0,
                       sd_bias_accel=0.0, sd_contact_vel=0.0,
                       sd_encoder=0.0, sd_drs_orient=0.0)
    leg = VirtualLeg()
    # the moving-surface variant on a rocking profile; the static-surface
    # variant only on a static profile, where its model actually holds
    cases = [(FilterVariant.DRS, PitchProfile(kind="TM2")),
             (FilterVariant.SRS, PitchProfile(kind="constant"))]
    for variant, profile in cases:
        cfg = ScenarioConfig(profile=profile, robot_motion="RM1",
                             duration=3.0, meas_rate=20.0, noise=zero, seed=0)
        ds = generate(cfg)
        st = FilterState(ds.initial_group_element(), BiasState(),
                         run_covariance(), 0.0)
        traj = run_variant(st, ds, variant, leg, zero)
        worst = 0.0
        for s in traj:
            i = int(round(s.t / ds.dt))
            worst = max(worst, np.abs(s.X.rot - ds.truth_rot[i]).max(),
                        np.abs(s.X.v - ds.truth_v[i]).max(),
                        np.abs(s.X.p - ds.truth_p[i]).max())
        assert worst < 1e-5


def test_static_surface_variants_agree():
    # on a static horizontal surface with exact zero contact-velocity data and
    # no surface-orientation stream, both variants follow identical paths
    noise = NoiseConfig(sd_contact_vel=0.0)
    cfg = ScenarioConfig(profile=PitchProfile(kind="constant"),
                         robot_motion="RM1", duration=3.0, meas_rate=20.0,
                         orient_rate=0.0, noise=noise, seed=5)
    ds = generate(cfg)
    assert np.abs(ds.contact_v).max() == 0.0
    assert ds.drs_t.size == 0
    rng = np.random.default_rng(8)
    leg = VirtualLeg()
    X0 = compose(sek3_exp(0.1 * rng.standard_normal(12)),
                 ds.initial_group_element())
    st = FilterState(X0, BiasState(), run_covariance(), 0.0)
    trD = run_variant(st, ds, FilterVariant.DRS, leg, NoiseConfig())
    trS = run_variant(st, ds, FilterVariant.SRS, leg, NoiseConfig())
    assert len(trD) == len(trS) > 0
    for a, b in zip(trD, trS):
        assert np.abs(a.X.as_matrix() - b.X.as_matrix()).max() < 1e-9
        assert np.abs(a.P - b.P).max() < 1e-9


def test_run_variant_rejects_disordered_streams():
    cfg = ScenarioConfig(profile=PitchProfile(kind="TM2"), duration=1.0,
                         meas_rate=10.0, seed=0)
    ds = generate(cfg)
    ds.imu_t = ds.imu_t[::-1].copy()
    st = FilterState(ds.initial_group_element(), BiasState(),
                     run_covariance(), 0.0)
    with pytest.raises(ValueError):
        run_variant(st, ds, FilterVariant.DRS, VirtualLeg(), NoiseConfig())


@pytest.mark.parametrize("stream", ["switch_t", "meas_t"])
def test_run_variant_rejects_two_events_on_one_imu_step(stream):
    # the second event used to replace the first without notice
    cfg = ScenarioConfig(profile=PitchProfile(kind="TM2"), duration=2.0,
                         meas_rate=10.0, seed=0)
    ds = generate(cfg)
    times = getattr(ds, stream)
    times[1] = times[0] + 0.1 * ds.dt
    st = FilterState(ds.initial_group_element(), BiasState(),
                     run_covariance(), 0.0)
    with pytest.raises(ValueError, match="one IMU step"):
        run_variant(st, ds, FilterVariant.DRS, VirtualLeg(), NoiseConfig())
