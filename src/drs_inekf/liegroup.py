"""Matrix Lie group primitives for SO(3) and the 6x6 extended pose group.

The extended group carries one rotation and three translation-like columns
(velocity, position, contact-point position).  Tangent vectors are ordered
(rotation, velocity, position, contact) with 3 components each.

All functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-6
_SERIES_ANGLE_SQ = 1e-2


def skew(v):
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(M):
    """Inverse of skew for a 3x3 antisymmetric matrix."""
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _k_polynomials(x, y, z, coefficients):
    """(n, 3, 3) stack of a I + b K + c K^2, one per (a, b, c), for
    K = skew(phi) with phi = (x, y, z), built entry by entry from
    K^2 = phi phi^T - |phi|^2 I."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    entries = []
    for a, b, c in coefficients:
        entries += (a - c * (yy + zz), c * xy - b * z, c * xz + b * y,
                    c * xy + b * z, a - c * (xx + zz), c * yz - b * x,
                    c * xz - b * y, c * yz + b * x, a - c * (xx + yy))
    return np.array(entries).reshape(-1, 3, 3)


def so3_exp(phi):
    """Rodrigues formula with sin(a)/a = 1 - a^2 c2 and (1 - cos a)/a^2 = c1,
    coefficients that stay exact at small angles."""
    x, y, z = np.asarray(phi, dtype=float).tolist()
    t = x * x + y * y + z * z
    c1, c2, _ = _gamma_coefficients(t)
    return _k_polynomials(x, y, z, [(1.0, 1.0 - t * c2, c1)])[0]


def rot_to_quat(R):
    """Rotation matrix to unit quaternion (w, x, y, z), Shepperd's method."""
    R = np.asarray(R)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    cands = [tr, R[0, 0], R[1, 1], R[2, 2]]
    i = int(np.argmax(cands))
    if i == 0:
        s = np.sqrt(1.0 + tr) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif i == 1:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif i == 2:
        s = np.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_rot(q):
    """Quaternion (w, x, y, z), normalised here, to rotation matrix."""
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"quaternion {q.tolist()} has no finite nonzero norm")
    w, x, y, z = q / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def so3_log(R):
    """Rotation vector of R, |result| <= pi.

    Goes through the quaternion representation, which stays numerically
    stable for angles near pi.  At an angle of exactly pi the sign is fixed
    so the first nonzero axis component is positive.
    """
    q = rot_to_quat(R)
    w = q[0]
    vec = q[1:]
    n = np.linalg.norm(vec)
    if n < 1e-12:
        return 2.0 * vec  # small angle: log ~ 2*vec/w with w ~ 1
    angle = 2.0 * np.arctan2(n, w)
    axis = vec / n
    if np.pi - angle < 1e-7:
        # angle-pi branch: enforce first-nonzero-positive sign convention
        for c in axis:
            if abs(c) > 1e-9:
                if c < 0.0:
                    axis = -axis
                break
    return angle * axis


def _gamma_coefficients(t):
    """(c1, c2, c3) such that, with K = skew(phi) and t = |phi|^2,
    Gamma_1 = I + c1 K + c2 K^2 and Gamma_2 = I/2 + c2 K + c3 K^2.

    The closed forms cancel at small angles, so a power series takes over
    there; five terms are exact to rounding below its threshold.
    """
    if t < _SERIES_ANGLE_SQ:
        c1 = (1.0 - t / 12.0 * (1.0 - t / 30.0 * (1.0 - t / 56.0 * (1.0 - t / 90.0)))) / 2.0
        c2 = (1.0 - t / 20.0 * (1.0 - t / 42.0 * (1.0 - t / 72.0 * (1.0 - t / 110.0)))) / 6.0
        c3 = (1.0 - t / 30.0 * (1.0 - t / 56.0 * (1.0 - t / 90.0 * (1.0 - t / 132.0)))) / 24.0
        return c1, c2, c3
    angle = math.sqrt(t)
    s = math.sin(0.5 * angle)
    c1 = 2.0 * s * s / t                          # (1 - cos)/angle^2
    c2 = (angle - math.sin(angle)) / (angle * t)
    return c1, c2, (0.5 - c1) / t                 # (angle^2/2 + cos - 1)/angle^4


def so3_series(phi):
    """Exp(phi), the left Jacobian Gamma_1 = sum K^n/(n+1)! and its double
    time integral Gamma_2 = sum K^n/(n+2)!, from one set of coefficients,
    stacked as one (3, 3, 3) array."""
    x, y, z = np.asarray(phi, dtype=float).tolist()
    t = x * x + y * y + z * z
    c1, c2, c3 = _gamma_coefficients(t)
    return _k_polynomials(x, y, z, [(1.0, 1.0 - t * c2, c1), (1.0, c1, c2),
                                    (0.5, c2, c3)])


def so3_left_jacobian_inv(phi):
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    K = skew(phi)
    if angle < _SMALL_ANGLE:
        return np.eye(3) - 0.5 * K + (1.0 / 12.0 + angle**2 / 720.0) * (K @ K)
    c = 1.0 / angle**2 - (1.0 + np.cos(angle)) / (2.0 * angle * np.sin(angle))
    return np.eye(3) - 0.5 * K + c * (K @ K)


@dataclass(frozen=True)
class GroupElement:
    """Element of the extended pose group.

    ``rot`` is a 3x3 rotation; ``cols`` is 3x3 with columns (v, p, pc).
    The 6x6 matrix form is [[rot, cols], [0, I3]].
    """

    rot: np.ndarray
    cols: np.ndarray

    @staticmethod
    def identity():
        return GroupElement(np.eye(3), np.zeros((3, 3)))

    @staticmethod
    def from_parts(R, v, p, pc):
        return GroupElement(np.asarray(R, dtype=float),
                            np.column_stack([v, p, pc]).astype(float))

    @property
    def v(self):
        return self.cols[:, 0]

    @property
    def p(self):
        return self.cols[:, 1]

    @property
    def pc(self):
        return self.cols[:, 2]

    def as_matrix(self):
        M = np.eye(6)
        M[:3, :3] = self.rot
        M[:3, 3:] = self.cols
        return M

    @staticmethod
    def from_matrix(M):
        return GroupElement(np.array(M[:3, :3]), np.array(M[:3, 3:]))


def sek3_hat(xi):
    """12-vector to the 6x6 Lie algebra matrix."""
    xi = np.asarray(xi, dtype=float)
    M = np.zeros((6, 6))
    M[:3, :3] = skew(xi[:3])
    M[:3, 3] = xi[3:6]
    M[:3, 4] = xi[6:9]
    M[:3, 5] = xi[9:12]
    return M


def sek3_vee(M):
    return np.concatenate([unskew(M[:3, :3]), M[:3, 3], M[:3, 4], M[:3, 5]])


def sek3_exp(xi):
    """Closed-form exponential: SO(3) exp plus left Jacobian on each column."""
    xi = np.asarray(xi, dtype=float)
    R, J, _ = so3_series(xi[:3])
    return GroupElement(R, J @ xi[3:].reshape(3, 3).T)


def sek3_log(X):
    phi = so3_log(X.rot)
    Jinv = so3_left_jacobian_inv(phi)
    cols = Jinv @ X.cols
    return np.concatenate([phi, cols[:, 0], cols[:, 1], cols[:, 2]])


def compose(A, B):
    return GroupElement(A.rot @ B.rot, A.rot @ B.cols + A.cols)


def inverse(A):
    Rt = A.rot.T
    return GroupElement(Rt, -Rt @ A.cols)


def adjoint(X):
    """12x12 adjoint: adjoint(X) @ xi == vee(X hat(xi) X^-1)."""
    Ad = np.zeros((12, 12))
    R = X.rot
    for i in range(4):
        Ad[3 * i:3 * i + 3, 3 * i:3 * i + 3] = R
    # skew(v) R, skew(p) R and skew(pc) R as one 9x3 stack times R
    (vx, px, cx), (vy, py, cy), (vz, pz, cz) = X.cols.tolist()
    Ad[3:, :3] = np.array([0.0, -vz, vy, vz, 0.0, -vx, -vy, vx, 0.0,
                           0.0, -pz, py, pz, 0.0, -px, -py, px, 0.0,
                           0.0, -cz, cy, cz, 0.0, -cx, -cy, cx, 0.0]
                          ).reshape(9, 3) @ R
    return Ad
