"""Forward-kinematics models and Jacobian contracts."""

import numpy as np

from drs_inekf.kinematics import E3, VirtualLeg
from drs_inekf.liegroup import so3_exp


def numeric_jacobian(fn, q, step=1e-6):
    """Central-difference Jacobian of a vector function of the joints: the
    finite-difference oracle of the analytic Jacobians."""
    q = np.asarray(q, dtype=float)
    cols = []
    for i in range(q.size):
        dq = np.zeros_like(q)
        dq[i] = step
        cols.append((fn(q + dq) - fn(q - dq)) / (2.0 * step))
    return np.column_stack(cols)


def test_virtual_leg_inverse_roundtrip():
    leg = VirtualLeg()
    rng = np.random.default_rng(0)
    ps, Rs, qs = [], [], []
    for _ in range(200):
        p = rng.uniform(-1.0, 1.0, 3)
        R = so3_exp(rng.uniform(-1.5, 1.5, 3))
        q = leg.inverse(p, R)
        assert np.allclose(leg.h_p(q), p, atol=1e-12)
        assert np.allclose(leg.h_R(q), R, atol=1e-9)
        ps.append(p)
        Rs.append(R)
        qs.append(q)
    # a stacked call equals the per-row calls
    assert np.array_equal(leg.inverse(np.array(ps), np.array(Rs)), qs)


def test_virtual_leg_position_jacobian():
    leg = VirtualLeg()
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.uniform(-1.0, 1.0, 6)
        num = numeric_jacobian(leg.h_p, q)
        assert np.allclose(leg.J_hp(q), num, atol=1e-6)


def test_virtual_leg_normal_jacobian():
    leg = VirtualLeg()
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.uniform(-1.2, 1.2, 6)
        num = numeric_jacobian(lambda qq: leg.h_R(qq) @ E3, q)
        assert np.allclose(leg.J_hR3(q), num, atol=1e-6)


def test_jump_displacement_consistency():
    leg = VirtualLeg()
    rng = np.random.default_rng(6)
    for _ in range(100):
        q_prev = rng.uniform(-1.0, 1.0, 6)
        q_new = rng.uniform(-1.0, 1.0, 6)
        stacked = np.concatenate([q_prev, q_new])
        hc = leg.h_c(stacked)
        assert np.allclose(hc, leg.h_p(q_new) - leg.h_p(q_prev), atol=1e-12)


def test_jump_jacobian_against_numeric():
    leg = VirtualLeg()
    rng = np.random.default_rng(7)
    for _ in range(30):
        stacked = rng.uniform(-1.0, 1.0, 12)
        num = numeric_jacobian(leg.h_c, stacked)
        assert np.allclose(leg.J_hc(stacked), num, atol=1e-6)


def test_zero_displacement_when_legs_agree():
    leg = VirtualLeg()
    q = np.array([0.3, -0.1, -0.9, 0.0, 0.2, 0.0])
    assert np.allclose(leg.h_c(np.concatenate([q, q])), np.zeros(3), atol=1e-14)
