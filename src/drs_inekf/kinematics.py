"""Forward kinematics relating joint angles to the support foot.

``VirtualLeg`` is an exactly invertible 6-DOF leg, the one model the
simulator and the filter use: the joint vector holds the foot position (base
frame) and the exponential coordinates of the base-to-foot rotation.  Its
inverse takes one foot pose or a stack of them.

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
    """Landing-jump kinematics of a model with foot position ``h_p`` and its
    Jacobian ``J_hp``; a model also gives the foot rotation ``h_R`` and the
    Jacobian ``J_hR3`` of its third column (the foot normal)."""

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
        """Joint vector reproducing the given base-frame foot pose exactly;
        (n, 3) positions and (n, 3, 3) rotations give (n, 6) joint vectors."""
        return np.concatenate([foot_position, so3_log(foot_rotation_rel)],
                              axis=-1)
