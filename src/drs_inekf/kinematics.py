"""Forward-kinematics models relating joint angles to the support foot.

Two concrete models are provided:
  * ``VirtualLeg`` -- an exactly invertible 6-DOF leg used by the simulator;
    the joint vector holds the foot position (base frame) and the exponential
    coordinates of the base-to-foot rotation.
  * ``SerialChain3`` -- a 3-revolute-joint spatial chain with analytic
    geometric Jacobians, used to exercise the Jacobian contracts.

The landing-jump kinematics h_c is the difference of the two legs' foot
positions and is consumed as one function of the stacked joint vector
(previous-support leg first, landing leg second).
"""

from __future__ import annotations

import numpy as np

from .liegroup import skew, so3_exp, so3_log, so3_series

E3 = np.array([0.0, 0.0, 1.0])
_SKEW_E3 = skew(E3)
# the foot position is the first three joints, so its Jacobian is constant
_J_FOOT_POSITION = np.hstack([np.eye(3), np.zeros((3, 3))])
_J_FOOT_POSITION.flags.writeable = False


class KinematicModel:
    """Interface: foot position/orientation and their Jacobians."""

    def h_p(self, q):
        raise NotImplementedError

    def h_R(self, q):
        raise NotImplementedError

    def J_hp(self, q):
        raise NotImplementedError

    def J_hR3(self, q):
        """Jacobian of the third column of h_R (the foot normal)."""
        raise NotImplementedError

    def h_c(self, q_stacked):
        """Jump displacement for a stacked (q_prev, q_new) joint vector."""
        q_prev, q_new = np.split(np.asarray(q_stacked, dtype=float), 2)
        return self.h_p(q_new) - self.h_p(q_prev)

    def J_hc(self, q_stacked):
        q_prev, q_new = np.split(np.asarray(q_stacked, dtype=float), 2)
        return np.hstack([-self.J_hp(q_prev), self.J_hp(q_new)])


class VirtualLeg(KinematicModel):
    """q[:3] is the foot position, q[3:] the rotation log; invertible exactly."""

    def h_p(self, q):
        return np.asarray(q, dtype=float)[:3].copy()

    def h_R(self, q):
        return so3_exp(np.asarray(q, dtype=float)[3:6])

    def J_hp(self, q):
        return _J_FOOT_POSITION

    def J_hR3(self, q):
        # d(exp(phi) e3) = -exp(phi) skew(e3) Jr(phi) dphi, Jr(phi) = Jl(phi)^T
        R, Jl, _ = so3_series(np.asarray(q, dtype=float)[3:6])
        J = np.zeros((3, 6))
        J[:, 3:] = -R @ _SKEW_E3 @ Jl.T
        return J

    def inverse(self, foot_position, foot_rotation_rel):
        """Joint vector reproducing the given base-frame foot pose exactly."""
        return np.concatenate([foot_position, so3_log(foot_rotation_rel)])


class SerialChain3(KinematicModel):
    """Three revolute joints (axes z, y, y) with links along x."""

    def __init__(self, lengths=(1.0, 1.0, 1.0)):
        self.lengths = tuple(float(l) for l in lengths)

    def _frames(self, q):
        q = np.asarray(q, dtype=float)
        l1, l2, l3 = self.lengths
        Rz = so3_exp(np.array([0.0, 0.0, q[0]]))
        Ry2 = so3_exp(np.array([0.0, q[1], 0.0]))
        Ry3 = so3_exp(np.array([0.0, q[2], 0.0]))
        ex = np.array([1.0, 0.0, 0.0])
        R1 = Rz
        R2 = Rz @ Ry2
        R3 = R2 @ Ry3
        p1 = R1 @ (l1 * ex)
        p2 = p1 + R2 @ (l2 * ex)
        p3 = p2 + R3 @ (l3 * ex)
        # joint axes in the base frame
        axes = (np.array([0.0, 0.0, 1.0]), R1 @ np.array([0.0, 1.0, 0.0]),
                R2 @ np.array([0.0, 1.0, 0.0]))
        origins = (np.zeros(3), p1, p2)
        return R3, p3, axes, origins

    def h_p(self, q):
        _, p3, _, _ = self._frames(q)
        return p3

    def h_R(self, q):
        R3, _, _, _ = self._frames(q)
        return R3

    def J_hp(self, q):
        _, p3, axes, origins = self._frames(q)
        return np.column_stack([np.cross(a, p3 - o) for a, o in zip(axes, origins)])

    def J_hR3(self, q):
        R3, _, axes, _ = self._frames(q)
        n = R3 @ E3
        return np.column_stack([np.cross(a, n) for a in axes])


def numeric_jacobian(fn, q, step=1e-6):
    """Central-difference Jacobian of a vector function of the joints."""
    q = np.asarray(q, dtype=float)
    cols = []
    for i in range(q.size):
        dq = np.zeros_like(q)
        dq[i] = step
        cols.append((fn(q + dq) - fn(q - dq)) / (2.0 * step))
    return np.column_stack(cols)
