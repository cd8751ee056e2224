"""The input-only terms of a propagation step, formed once per run.

``run_variant`` forms the StepTerms of every IMU step of a dataset at once and
hands them to ``propagate`` step by step.  The references below are the
filter as it was before: one ProcessInput per step, validated per step, and a
``propagate`` that forms every term itself.  Results must equal them bit for
bit, and a bad input must raise the same error.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import drs_inekf.filter as filter_module
from drs_inekf.drs import PitchProfile
from drs_inekf.filter import (GRAVITY, MAX_DT, FilterVariant, ImuSample,
                              ProcessInput, jump_propagate,
                              orientation_observation, position_observation,
                              propagate, run_variant, step_terms, update)
from drs_inekf.harness import initial_state_for_run, main
from drs_inekf.kinematics import VirtualLeg
from drs_inekf.liegroup import adjoint, compose, sek3_exp, skew, so3_series
from drs_inekf.sim import ScenarioConfig, generate, save_jsonl
from drs_inekf.state import (BiasState, FilterState, NoiseConfig,
                             run_covariance, symmetrize)

_ZERO3 = np.zeros(3)
_FIXED = np.zeros((18, 18))
_FIXED[3:6, 0:3] = skew(GRAVITY)
_FIXED[6:9, 3:6] = np.eye(3)
_FIXED[9:12, 0:3] = skew(_ZERO3)
CASE_A = dict(profile=PitchProfile(kind="TM1", phase_s=2.8), robot_motion="RM1",
              duration=8.0, imu_rate=200.0, meas_rate=100.0, orient_rate=15.0)


def _reference_validate(inp):
    if not (0.0 < inp.dt <= MAX_DT):
        raise ValueError(f"dt must be in (0, {MAX_DT}], got {inp.dt}")
    vals = np.concatenate([inp.imu.omega_tilde, inp.imu.a_tilde, inp.v_c_tilde])
    if not np.isfinite(vals).all():
        raise ValueError("non-finite process input")


def _reference_integrate_mean(X, theta, omega_tilde, a_tilde, v_c, dt):
    series = so3_series((omega_tilde - theta.b_omega) * dt)
    RM = X.rot.dot(np.concatenate((series[0], series[1:].dot(a_tilde - theta.b_acc).T),
                                  axis=1))
    flow = np.array([1.0, dt, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0,
                     dt, 0.0, 0.0, 0.0, dt * dt, 0.0, 0.0, 0.0, dt]).reshape(6, 3)
    gravity = np.column_stack([GRAVITY, 0.5 * GRAVITY])
    cols = np.concatenate((X.cols, RM[:, 3:] + gravity, v_c[:, None]), axis=1).dot(flow)
    return RM[:, :3], cols


def _reference_propagate(state, inp, noise, variant):
    """The step that forms all its terms itself, validated per step."""
    _reference_validate(inp)
    dt = float(inp.dt)
    v_c = _ZERO3 if variant is FilterVariant.SRS else inp.v_c_tilde
    Ad = adjoint(state.X)
    Phi = np.eye(18) + _FIXED * dt
    np.multiply(skew(v_c), dt, out=Phi[9:12, 0:3])
    np.multiply(Ad[:, :6], -dt, out=Phi[:12, 12:18])
    rot, cols = _reference_integrate_mean(state.X, state.theta, inp.imu.omega_tilde,
                                          inp.imu.a_tilde, v_c, dt)
    G = Ad[:, :3]
    Q = np.zeros((18, 18))
    Q[:12, :12] = (G * (noise.sd_gyro**2 * dt)).dot(G.T)
    w = np.array((0.0, noise.sd_accel**2 * dt, 0.0, noise.sd_contact_vel**2 * dt,
                  noise.sd_bias_gyro**2, noise.sd_bias_accel**2))
    Q.ravel()[::19] += w.repeat(3)
    P = Phi.dot(state.P).dot(Phi.T) + Q * dt
    X = type(state.X)(rot, cols)
    return FilterState(X, state.theta, symmetrize(P), state.t + inp.dt)


def _reference_inputs(dataset):
    """One ProcessInput per IMU sample."""
    t_imu = dataset.imu_t
    dts = np.append(np.diff(t_imu), dataset.dt)
    for k in range(t_imu.size):
        imu = ImuSample(dataset.imu_omega[k], dataset.imu_acc[k], t_imu[k])
        yield ProcessInput(imu, dataset.contact_v[k], dts[k])


def _reference_run(state, dataset, variant, model, noise):
    """The run loop with one ProcessInput and one reference step per IMU
    sample."""
    schedule = dataset.validate()
    trajectory = []
    for inp, (js, jm, jo) in zip(_reference_inputs(dataset), schedule.tolist()):
        state = _reference_propagate(state, inp, noise, variant)
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
    return trajectory


def _bits(state):
    return [np.asarray(a, dtype=float).tobytes() for a in (
        state.X.rot, state.X.cols, state.theta.b_omega, state.theta.b_acc,
        state.P, state.t)]


def _case_a(variant):
    ds = generate(ScenarioConfig(seed=1, **CASE_A))
    assert ds.switch_t.size > 0         # landing jumps
    return (initial_state_for_run(ds, np.random.default_rng(1)), ds, variant,
            NoiseConfig())


def _criterion_8():
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 robot_motion="RM2", duration=10.0,
                                 meas_rate=15.0, seed=5000))
    P0 = run_covariance(var_pose=0.01)
    xi = np.random.default_rng(800).multivariate_normal(np.zeros(18), P0)
    X0 = compose(sek3_exp(xi[:12]), ds.initial_group_element())
    return (FilterState(X0, BiasState.from_vector(xi[12:]), P0, 0.0), ds,
            FilterVariant.DRS, NoiseConfig())


def _sub_steps():
    # a 1.2 rad attitude error splits the first updates into sub-steps
    ds = generate(ScenarioConfig(seed=4, **{**CASE_A, "duration": 2.0}))
    X0 = compose(sek3_exp(np.r_[0.7, -0.6, 0.8, np.zeros(9)]),
                 ds.initial_group_element())
    return (FilterState(X0, BiasState(), run_covariance(), 0.0), ds,
            FilterVariant.DRS, NoiseConfig())


def _skipped_updates():
    # with no noise and no uncertainty every innovation covariance is zero
    ds = generate(ScenarioConfig(seed=5, **{**CASE_A, "duration": 1.0}))
    start = initial_state_for_run(ds, np.random.default_rng(5))
    quiet = NoiseConfig(**{name: 0.0 for name in NoiseConfig.__dataclass_fields__})
    return (FilterState(start.X, start.theta, np.zeros((18, 18)), 0.0), ds,
            FilterVariant.DRS, quiet)


def _irregular_grid():
    # IMU times jittered by up to a tenth of a step: every dt differs
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 robot_motion="RM1", duration=2.0,
                                 meas_rate=10.0, step_period=0.3, seed=6))
    ds.imu_t[1:] += np.random.default_rng(6).uniform(-0.1, 0.1,
                                                     ds.imu_t.size - 1) * ds.dt
    assert np.unique(np.diff(ds.imu_t)).size > 300 and ds.switch_t.size > 0
    return (initial_state_for_run(ds, np.random.default_rng(6)), ds,
            FilterVariant.SRS, NoiseConfig())


CASES = {
    "case-a-drs": lambda: _case_a(FilterVariant.DRS),
    "case-a-srs": lambda: _case_a(FilterVariant.SRS),
    "criterion-8": _criterion_8,
    "sub-steps": _sub_steps,
    "skipped-updates": _skipped_updates,
    "irregular-grid": _irregular_grid,
}


@pytest.mark.parametrize("case", list(CASES))
def test_run_variant_equals_the_per_step_loop_bit_for_bit(case, monkeypatch,
                                                          caplog):
    start, ds, variant, noise = CASES[case]()
    leg = VirtualLeg()
    ref = _reference_run(start, ds, variant, leg, noise)
    exps = []
    monkeypatch.setattr(filter_module, "sek3_exp",
                        lambda xi: exps.append(1) or sek3_exp(xi))
    caplog.clear()
    out = run_variant(start, ds, variant, leg, noise)
    assert len(out) == len(ref) == ds.meas_t.size
    for a, b in zip(out, ref):
        assert _bits(a) == _bits(b)
    skipped = sum("update skipped" in r.message for r in caplog.records)
    if case == "sub-steps":
        assert len(exps) > len(out)
    if case == "skipped-updates":
        assert skipped == len(out) and not exps
    else:
        assert skipped == 0


@pytest.mark.parametrize("variant", list(FilterVariant), ids=lambda v: v.value)
def test_stacked_terms_equal_the_per_sample_terms(variant):
    # one definition of each term: the stack and step_terms agree bit for bit
    ds = generate(ScenarioConfig(seed=2, **{**CASE_A, "duration": 1.0}))
    ds.imu_t[1:] += np.random.default_rng(2).uniform(-0.1, 0.1,
                                                     ds.imu_t.size - 1) * ds.dt
    dts = np.append(np.diff(ds.imu_t), ds.dt)
    noise = NoiseConfig(sd_gyro=0.03, sd_accel=0.2, sd_contact_vel=0.05)
    steps = list(filter_module._stacked_step_terms(ds, noise, variant))
    assert len(steps) == ds.imu_t.size
    for k, terms in enumerate(steps):
        one = step_terms(ProcessInput(ImuSample(ds.imu_omega[k], ds.imu_acc[k],
                                                ds.imu_t[k]),
                                      ds.contact_v[k], dts[k]), noise, variant)
        assert type(terms.dt) is type(terms.w_gyro) is float
        for a, b in zip(terms, one):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _drop_imu(ds, first, stop):
    """Remove IMU steps first..stop-1, and the events that fell on them: step
    first-1 then ends where step stop began."""
    tol = 0.25 * ds.dt
    lo, hi = ds.imu_t[first - 1] + tol, ds.imu_t[stop] - tol
    keep = np.r_[0:first, stop:ds.imu_t.size]
    ds.imu_t, ds.imu_omega, ds.imu_acc, ds.contact_v = (
        a[keep] for a in (ds.imu_t, ds.imu_omega, ds.imu_acc, ds.contact_v))
    for times, values in (("meas_t", "enc_q"), ("drs_t", "drs_rot"),
                          ("switch_t", "switch_q")):
        t = getattr(ds, times)
        off = (t > lo) & (t < hi)
        setattr(ds, times, t[~off])
        setattr(ds, values, getattr(ds, values)[~off])


def _damaged(faults):
    ds = generate(ScenarioConfig(profile=PitchProfile(kind="TM2"),
                                 robot_motion="RM2", duration=2.0,
                                 meas_rate=10.0, seed=7))
    for fault, k in faults:
        if fault == "gap":          # 29 steps gone: a 0.15 s step
            _drop_imu(ds, k + 1, k + 30)
        else:
            getattr(ds, fault)[k, 1] = np.nan
    return ds


# fault -> the damage, applied in order, and the start of the error of its
# first bad step; a gap and a NaN on one step report the gap
FAULTS = {
    "nan-omega": ([("imu_omega", 57)], "non-finite"),
    "nan-acc": ([("imu_acc", 57)], "non-finite"),
    "nan-contact-vel": ([("contact_v", 57)], "non-finite"),
    "gap": ([("gap", 57)], "dt must be"),
    "gap-before-nan": ([("gap", 57), ("contact_v", 90)], "dt must be"),
    "nan-before-gap": ([("gap", 57), ("imu_acc", 20)], "non-finite"),
    "gap-and-nan-on-one-step": ([("gap", 57), ("imu_omega", 57)], "dt must be"),
}


@pytest.mark.parametrize("variant", list(FilterVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("fault", list(FAULTS))
def test_bad_inputs_raise_the_per_step_error(fault, variant, tmp_path, capsys):
    # validate raises the per-step error, so run_variant raises it before
    # its first step, and run and eval reject the dataset file
    faults, expected = FAULTS[fault]
    ds = _damaged(faults)
    with pytest.raises(ValueError) as ref:
        for inp in _reference_inputs(ds):
            _reference_validate(inp)
    message = str(ref.value)
    assert message.startswith(expected)
    start = FilterState(ds.initial_group_element(), BiasState(),
                        run_covariance(), 0.0)
    for check in (ds.validate, lambda: run_variant(start, ds, variant,
                                                   VirtualLeg(), NoiseConfig())):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()
    # through the CLI: a NaN field fails the dataset reader's column check,
    # a gap its validate
    data, estimate = tmp_path / "scenario.jsonl", tmp_path / "estimate.jsonl"
    save_jsonl(ds, data)
    estimate.write_text('{"t": 1.0, "quat": [1, 0, 0, 0], "v": [0, 0, 0]}\n')
    for argv in (["run", "--dataset", str(data), "--variant", variant.value,
                  "--out", str(tmp_path / "runs")],
                 ["eval", "--truth", str(data), "--estimate", str(estimate)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        if fault == "gap":
            assert err == f"error: {message}\n"
        else:
            assert err.startswith("error: ") and err.count("\n") == 1


_FINITE = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(xi=arrays(float, 12, elements=_FINITE),
       bias=arrays(float, 6, elements=st.floats(-0.1, 0.1)),
       omega=arrays(float, 3, elements=_FINITE),
       acc=arrays(float, 3, elements=st.floats(-20.0, 20.0)),
       v_c=arrays(float, 3, elements=st.floats(-1.0, 1.0)),
       dt=st.floats(1e-5, MAX_DT), numpy_dt=st.booleans(),
       t=st.floats(0.0, 100.0), sd=arrays(float, 5, elements=st.floats(0.0, 1.0)),
       variant=st.sampled_from(FilterVariant), seed=st.integers(0, 2**32 - 1))
def test_propagate_equals_the_reference_step_bit_for_bit(
        xi, bias, omega, acc, v_c, dt, numpy_dt, t, sd, variant, seed):
    B = np.random.default_rng(seed).standard_normal((18, 18))
    state = FilterState(sek3_exp(xi), BiasState.from_vector(bias),
                        B @ B.T / 18.0 + run_covariance(1e-2), t)
    noise = NoiseConfig(*sd)
    inp = ProcessInput(ImuSample(omega, acc, t), v_c,
                       np.float64(dt) if numpy_dt else dt)
    out = propagate(state, inp, noise, variant)
    ref = _reference_propagate(state, inp, noise, variant)
    assert _bits(out) == _bits(ref)
