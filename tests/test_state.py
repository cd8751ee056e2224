"""State container, covariance, and noise configuration contracts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drs_inekf.harness import parse_scenario_config
from drs_inekf.liegroup import compose, inverse, sek3_exp, sek3_log
from drs_inekf.state import (BiasState, NoiseConfig, load_noise_config,
                             run_covariance, symmetrize)


def test_bias_state_vector_roundtrip():
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(6)
    b = BiasState.from_vector(vec)
    assert np.allclose(b.as_vector(), vec)
    assert np.allclose(BiasState().as_vector(), np.zeros(6))


def test_noise_config_defaults_and_validation():
    n = NoiseConfig()
    assert n.sd_gyro == 0.01
    assert n.sd_accel == 0.4
    assert n.sd_contact_vel == 0.01
    assert math.isclose(n.sd_encoder, math.radians(1.0))
    assert math.isclose(n.sd_drs_orient, math.radians(1.0))
    with pytest.raises(ValueError):
        NoiseConfig(sd_gyro=-1e-3)
    with pytest.raises(ValueError):
        NoiseConfig(sd_drs_orient=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sd_gyro must be finite"):
            NoiseConfig(sd_gyro=value)


def test_load_noise_config(tmp_path):
    path = tmp_path / "noise.cfg"
    path.write_text("sd_gyro = 0.02  # comment\n\nsd_encoder_deg = 2.0\n")
    n = load_noise_config(path)
    assert n.sd_gyro == 0.02
    assert math.isclose(n.sd_encoder, math.radians(2.0))
    assert n.sd_accel == 0.4  # untouched default


def test_load_noise_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "noise.cfg"
    path.write_text("sd_bogus = 1.0\n")
    with pytest.raises(ValueError):
        load_noise_config(path)


def test_load_noise_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "noise.cfg"
    path.write_text("sd_gyro 0.02\n")
    with pytest.raises(ValueError):
        load_noise_config(path)


_SD = st.floats(0.0, 10.0)


@settings(max_examples=50, deadline=None)
@given(st.builds(NoiseConfig, sd_gyro=_SD, sd_accel=_SD, sd_bias_gyro=_SD,
                 sd_bias_accel=_SD, sd_contact_vel=_SD,
                 sd_encoder=st.floats(0.0, 0.5),
                 sd_drs_orient=st.floats(0.0, 0.5)))
def test_noise_config_roundtrip_through_both_readers(tmp_path_factory, noise):
    # the shared reader: both config files read the noise keys the same way,
    # with the two angular SDs written in degrees
    lines = []
    for name, val in dataclasses.asdict(noise).items():
        if name in ("sd_encoder", "sd_drs_orient"):
            lines.append(f"{name}_deg = {math.degrees(val)!r}")
        else:
            lines.append(f"{name} = {val!r}")
    path = tmp_path_factory.mktemp("cfg") / "noise.cfg"
    path.write_text("\n".join(lines) + "\n")
    expect = np.array(dataclasses.astuple(noise))
    for got in (load_noise_config(path), parse_scenario_config(path).noise):
        assert np.allclose(dataclasses.astuple(got), expect, rtol=0.0,
                           atol=1e-12)


def test_run_covariance_structure():
    P = run_covariance()
    assert P.shape == (18, 18)
    assert np.allclose(P, np.diag(np.diag(P)))
    assert np.allclose(np.diag(P)[:12], 1.0)
    assert np.allclose(np.diag(P)[12:15], 1e-6)
    assert np.allclose(np.diag(P)[15:18], 1e-4)
    P2 = run_covariance(var_pose=0.01)
    assert np.allclose(np.diag(P2)[:12], 0.01)


def test_symmetrize():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((18, 18))
    S = symmetrize(M)
    assert np.allclose(S, S.T)
    assert np.allclose(S, 0.5 * (M + M.T))


def test_right_invariant_error_recovers_perturbation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        X_true = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        xi = rng.uniform(-0.8, 0.8, 12)
        X_est = compose(sek3_exp(xi), X_true)
        err = sek3_log(compose(X_est, inverse(X_true)))
        assert np.allclose(err, xi, atol=1e-9)


def test_right_invariant_error_is_right_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        X_true = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        X_est = compose(sek3_exp(rng.uniform(-0.5, 0.5, 12)), X_true)
        G = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        e1 = sek3_log(compose(X_est, inverse(X_true)))
        e2 = sek3_log(compose(compose(X_est, G), inverse(compose(X_true, G))))
        assert np.allclose(e1, e2, atol=1e-9)
