"""Group primitive contracts: exp/log, composition, adjoint, quaternions."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from drs_inekf.liegroup import (GroupElement, adjoint, compose, inverse,
                                quat_to_rot, rot_to_quat, sek3_exp, sek3_hat,
                                sek3_log, sek3_vee, skew, so3_exp,
                                so3_left_jacobian_inv, so3_log,
                                so3_series, unskew)


def random_rotation(rng):
    return so3_exp(rng.uniform(-np.pi, np.pi, 3) * rng.uniform(0.0, 1.0))


def test_skew_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v, w = rng.standard_normal((2, 3))
        assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)
        assert np.allclose(unskew(skew(v)), v, atol=1e-14)


def test_so3_exp_is_rotation_and_matches_expm():
    rng = np.random.default_rng(2)
    for _ in range(200):
        phi = rng.uniform(-3.0, 3.0, 3)
        R = so3_exp(phi)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)
        assert np.allclose(R, scipy.linalg.expm(skew(phi)), atol=1e-10)


def test_so3_exp_log_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        phi = rng.standard_normal(3)
        phi *= rng.uniform(0.0, 3.1) / max(np.linalg.norm(phi), 1e-12)
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


def test_so3_log_small_and_near_pi_angles():
    for scale in (1e-10, 1e-8, 1e-5):
        phi = np.array([scale, -0.5 * scale, 0.25 * scale])
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        phi = (np.pi - 1e-9) * axis
        out = so3_log(so3_exp(phi))
        # same rotation: either sign of the near-pi vector is acceptable
        assert np.allclose(so3_exp(out), so3_exp(phi), atol=1e-7)


def test_quaternion_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(500):
        R = random_rotation(rng)
        q = rot_to_quat(R)
        assert q[0] >= 0.0
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.allclose(quat_to_rot(q), R, atol=1e-12)


def test_left_jacobian_inverse_pair():
    rng = np.random.default_rng(6)
    for _ in range(200):
        phi = rng.uniform(-3.0, 3.0, 3)
        J = so3_series(phi)[1]
        Jinv = so3_left_jacobian_inv(phi)
        assert np.allclose(J @ Jinv, np.eye(3), atol=1e-10)
    phi = np.array([1e-9, -2e-9, 0.0])
    assert np.allclose(so3_series(phi)[1] @ so3_left_jacobian_inv(phi),
                       np.eye(3), atol=1e-12)


def test_left_jacobian_differentiates_exp():
    # d/ds exp(phi + s*delta) at s=0 equals skew(J_l(phi) delta) exp(phi)
    rng = np.random.default_rng(7)
    eps = 1e-7
    for _ in range(50):
        phi = rng.uniform(-2.0, 2.0, 3)
        delta = rng.standard_normal(3)
        num = (so3_exp(phi + eps * delta) - so3_exp(phi - eps * delta)) / (2 * eps)
        ana = skew(so3_series(phi)[1] @ delta) @ so3_exp(phi)
        assert np.allclose(num, ana, atol=1e-6)


def _assert_series_matches_block_exponential(phi):
    M = np.zeros((9, 9))
    M[:3, :3] = skew(phi)
    M[:3, 3:6] = M[3:6, 6:9] = np.eye(3)
    E = scipy.linalg.expm(M)
    R, gamma1, gamma2 = so3_series(phi)
    assert np.abs(so3_exp(phi) - E[:3, :3]).max() < 1e-14
    assert np.abs(R - E[:3, :3]).max() < 1e-14
    assert np.abs(gamma1 - E[:3, 3:6]).max() < 1e-14
    assert np.abs(gamma2 - E[:3, 6:9]).max() < 1e-14


@pytest.mark.parametrize("angle", [0.0, 1e-8, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3,
                                   0.0999, 0.1001, 0.3, 1.0, 3.0])
def test_gamma_functions_match_block_exponential(angle):
    # expm([[K, I, 0], [0, 0, I], [0, 0, 0]]) carries Exp in its top-left
    # block, Gamma_1 = J_l in its top-middle block and Gamma_2 in its
    # top-right block; the angles cover both sides of the series switch at 0.1
    # and the old 1e-6 branch
    phi = angle * np.array([0.6, -0.48, 0.64])
    _assert_series_matches_block_exponential(phi)


_UNIT = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
    np.array).filter(lambda u: np.linalg.norm(u) > 0.1)


@settings(max_examples=300, deadline=None)
@given(angle=st.floats(1e-9, np.pi - 1e-6), axis=_UNIT)
@example(angle=0.1 * (1.0 - 1e-12), axis=np.array([0.6, -0.48, 0.64]))
@example(angle=0.1 * (1.0 + 1e-12), axis=np.array([0.6, -0.48, 0.64]))
@example(angle=np.pi - 1e-6, axis=np.array([0.0, 0.0, 1.0]))
def test_series_kernels_match_block_exponential(angle, axis):
    # the entry-wise kernels of so3_series and so3_exp, on both sides of the
    # series switch at |phi|^2 = 1e-2 and up to just below pi
    phi = angle * axis / np.linalg.norm(axis)
    _assert_series_matches_block_exponential(phi)


def test_group_element_matrix_roundtrip_and_parts():
    rng = np.random.default_rng(9)
    R = random_rotation(rng)
    v, p, pc = rng.standard_normal((3, 3))
    X = GroupElement.from_parts(R, v, p, pc)
    assert np.allclose(X.v, v) and np.allclose(X.p, p) and np.allclose(X.pc, pc)
    M = X.as_matrix()
    assert M.shape == (6, 6)
    assert np.allclose(M[3:, 3:], np.eye(3)) and np.allclose(M[3:, :3], 0.0)
    Y = GroupElement.from_matrix(M)
    assert np.allclose(Y.rot, R) and np.allclose(Y.cols, X.cols)


def test_hat_vee_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(100):
        xi = rng.standard_normal(12)
        assert np.allclose(sek3_vee(sek3_hat(xi)), xi, atol=1e-14)


def test_sek3_exp_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi = rng.uniform(-2.0, 2.0, 12)
        X = sek3_exp(xi)
        assert np.allclose(X.as_matrix(), scipy.linalg.expm(sek3_hat(xi)),
                           atol=1e-9)


def test_sek3_exp_log_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(300):
        xi = rng.uniform(-1.0, 1.0, 12)
        # keep the rotation angle below pi so the log is the unique inverse
        xi[:3] *= 3.0 / np.sqrt(3.0) * rng.uniform(0.0, 0.999)
        assert np.allclose(sek3_log(sek3_exp(xi)), xi, atol=1e-9)


def test_compose_inverse_identity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        A = sek3_exp(rng.uniform(-1.5, 1.5, 12))
        B = sek3_exp(rng.uniform(-1.5, 1.5, 12))
        assert np.allclose(compose(A, B).as_matrix(),
                           A.as_matrix() @ B.as_matrix(), atol=1e-12)
        AIA = compose(A, inverse(A))
        assert np.allclose(AIA.rot, np.eye(3), atol=1e-12)
        assert np.allclose(AIA.cols, 0.0, atol=1e-12)


_VEC12 = st.lists(st.floats(-1.5, 1.5), min_size=12, max_size=12).map(np.array)


@settings(max_examples=200, deadline=None)
@given(x=_VEC12, xi=_VEC12)
def test_adjoint_conjugation_identity(x, xi):
    X = sek3_exp(x)
    lhs = adjoint(X) @ xi
    M = X.as_matrix() @ sek3_hat(xi) @ np.linalg.inv(X.as_matrix())
    assert np.allclose(lhs, sek3_vee(M), atol=1e-9)


def test_adjoint_commutes_with_exp():
    rng = np.random.default_rng(15)
    for _ in range(100):
        X = sek3_exp(rng.uniform(-1.0, 1.0, 12))
        xi = 0.3 * rng.standard_normal(12)
        lhs = compose(compose(X, sek3_exp(xi)), inverse(X))
        rhs = sek3_exp(adjoint(X) @ xi)
        assert np.allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-9)


def test_quat_to_rot_normalizes():
    q = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(quat_to_rot(q), np.eye(3), atol=1e-14)


def test_pure_functions_do_not_mutate_inputs():
    rng = np.random.default_rng(16)
    xi = rng.standard_normal(12)
    xi_copy = xi.copy()
    sek3_exp(xi)
    assert np.array_equal(xi, xi_copy)


# rotation-vector norms at the kernels' edges: zero, tiny, either side of the
# series switch at |phi|^2 = 1e-2, and just below pi; then any angle
_EDGE_ANGLES = [0.0, 1e-9, np.sqrt(1e-2 * (1.0 - 2e-12)),
                np.sqrt(1e-2 * (1.0 + 2e-12)), np.pi - 1e-6]
_ROTATION_VECTORS = st.lists(
    st.tuples(st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(0.0, np.pi - 1e-6)),
              _UNIT).map(lambda au: au[0] * au[1] / np.linalg.norm(au[1])),
    min_size=1, max_size=8).map(np.array)


def _assert_stack_equals_elementwise(fn, stack):
    got = fn(stack)
    want = np.array([fn(x) for x in stack])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14


@settings(max_examples=200, deadline=None)
@given(phis=_ROTATION_VECTORS)
@example(phis=np.array([a * np.array([0.6, -0.48, 0.64]) for a in _EDGE_ANGLES]))
def test_stacked_primitives_equal_their_elementwise_use(phis):
    # so3_exp and so3_series pick their scalar kernel for one (3,) vector and
    # a stacked branch for (n, 3); the conversions take any leading shape
    for fn in (so3_exp, so3_series, so3_left_jacobian_inv):
        _assert_stack_equals_elementwise(fn, phis)
    rotations = so3_exp(phis)
    for fn in (so3_log, rot_to_quat):
        _assert_stack_equals_elementwise(fn, rotations)
    quats = rot_to_quat(rotations)
    _assert_stack_equals_elementwise(quat_to_rot, quats)
    assert np.all(quats[:, 0] >= 0.0)
    assert np.abs(quat_to_rot(quats) - rotations).max() < 1e-12
    # a (2, n) leading shape gives the same entries as the flat stack
    assert np.array_equal(so3_log(np.stack([rotations, rotations])),
                          np.stack([so3_log(rotations)] * 2))


def test_rot_to_quat_covers_every_shepperd_branch_and_sign_flip():
    # the branch is the largest of (trace, R00, R11, R22): a small angle, and
    # angles near pi about x, y and z; about a negative axis the selected row
    # starts negative, and the quaternion is flipped to w >= 0
    angle = np.pi - 0.1
    axes = [np.array([0.6, -0.48, 0.64])] + [s * e for e in np.eye(3) for s in (1, -1)]
    angles = [0.3] + [angle] * 6
    rotations = so3_exp(np.array([a * u for a, u in zip(angles, axes)]))
    diag = np.diagonal(rotations, axis1=1, axis2=2)
    branches = np.argmax(np.column_stack([diag.sum(axis=1), diag]), axis=1)
    assert set(branches.tolist()) == {0, 1, 2, 3}
    want = np.array([np.concatenate([[np.cos(a / 2)], np.sin(a / 2) * u])
                     for a, u in zip(angles, axes)])
    quats = rot_to_quat(rotations)
    assert np.abs(quats - want).max() < 1e-12
    _assert_stack_equals_elementwise(rot_to_quat, rotations)


def test_so3_log_at_exactly_pi_keeps_the_sign_convention():
    # at pi, R = 2 a a^T - I for either sign of a; the log is the one whose
    # first nonzero component is positive
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
                     [-1.0, 1.0, 0.0], [0.0, -3.0, 4.0], [-1.0, -2.0, 2.0]])
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    rotations = 2.0 * axes[:, :, None] * axes[:, None, :] - np.eye(3)
    first = np.array([u[np.flatnonzero(np.abs(u) > 1e-9)[0]] for u in axes])
    want = np.pi * np.sign(first)[:, None] * axes
    assert np.abs(so3_log(rotations) - want).max() < 1e-12
    _assert_stack_equals_elementwise(so3_log, rotations)


def test_quat_to_rot_rejects_a_stack_with_zero_or_nan_rows():
    good = np.array([1.0, 0.0, 0.0, 0.0])
    for bad in ([good, np.zeros(4), [np.nan, 0.0, 0.0, 0.0]],
                [good, np.zeros(4)], [[np.nan, 0.0, 0.0, 0.0], good],
                [good, [np.inf, 0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="no finite nonzero norm"):
            quat_to_rot(np.array(bad))
