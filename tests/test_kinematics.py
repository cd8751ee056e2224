"""Forward-kinematics models and Jacobian contracts."""

import numpy as np

from drs_inekf.kinematics import E3, SerialChain3, VirtualLeg, numeric_jacobian
from drs_inekf.liegroup import so3_exp, so3_log


def test_virtual_leg_inverse_roundtrip():
    leg = VirtualLeg()
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(-1.0, 1.0, 3)
        R = so3_exp(rng.uniform(-1.5, 1.5, 3))
        q = leg.inverse(p, R)
        assert np.allclose(leg.h_p(q), p, atol=1e-12)
        assert np.allclose(leg.h_R(q), R, atol=1e-9)


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


def test_serial_chain_position_jacobian():
    chain = SerialChain3(lengths=(0.4, 0.35, 0.1))
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, 3)
        num = numeric_jacobian(chain.h_p, q)
        assert np.allclose(chain.J_hp(q), num, atol=1e-6)


def test_serial_chain_normal_jacobian():
    chain = SerialChain3()
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, 3)
        num = numeric_jacobian(lambda qq: chain.h_R(qq) @ E3, q)
        assert np.allclose(chain.J_hR3(q), num, atol=1e-6)


def test_serial_chain_rotation_is_orthogonal():
    chain = SerialChain3()
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-3.0, 3.0, 3)
        R = chain.h_R(q)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


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
