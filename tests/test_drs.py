"""Surface pitch profiles, poses, twists, and point velocities."""

import math

import numpy as np
import pytest

from drs_inekf.drs import (PitchProfile, contact_point_velocity, drs_pose_at,
                           make_profile, profile_from_csv)
from drs_inekf.liegroup import so3_exp


def test_constant_profile():
    prof = PitchProfile(kind="constant", constant_deg=5.0)
    theta, rate = prof.angle_and_rate(3.7)
    assert math.isclose(theta, math.radians(5.0))
    assert rate == 0.0


def test_sinusoid_profile_closed_form():
    prof = make_profile("TM2")
    amp = math.radians(2.5)
    for t in (0.0, 0.31, 1.0, 2.7):
        theta, rate = prof.angle_and_rate(t)
        assert math.isclose(theta, amp * math.sin(math.pi * t), abs_tol=1e-12)
        assert math.isclose(rate, amp * math.pi * math.cos(math.pi * t),
                            abs_tol=1e-12)


def test_trapezoid_profile_breakpoints():
    prof = make_profile("TM1")
    hold = math.radians(8.0)
    # holds at -hold then +hold, linear ramps between, period 6.6 s
    assert math.isclose(prof.angle_and_rate(0.0)[0], -hold)
    assert prof.angle_and_rate(1.0)[1] == 0.0
    theta_mid, rate_mid = prof.angle_and_rate(2.8 + 0.25)
    assert math.isclose(theta_mid, 0.0, abs_tol=1e-12)
    assert math.isclose(rate_mid, 2.0 * hold / 0.5)
    assert math.isclose(prof.angle_and_rate(3.3 + 1.0)[0], hold)
    theta_down, rate_down = prof.angle_and_rate(6.1 + 0.25)
    assert math.isclose(theta_down, 0.0, abs_tol=1e-12)
    assert math.isclose(rate_down, -2.0 * hold / 0.5)
    # periodicity
    t = 1.234
    period = 6.6
    a0 = prof.angle_and_rate(t)
    a1 = prof.angle_and_rate(t + period)
    assert math.isclose(a0[0], a1[0], abs_tol=1e-12)
    assert math.isclose(a0[1], a1[1], abs_tol=1e-12)


def test_trapezoid_phase_shift():
    base = make_profile("TM1")
    shifted = PitchProfile(kind="TM1", phase_s=2.8)
    for t in (0.0, 0.4, 1.7, 5.0):
        assert math.isclose(shifted.angle_and_rate(t)[0],
                            base.angle_and_rate(t + 2.8)[0], abs_tol=1e-12)


def test_offset_wobble_profile_composition():
    tm1 = make_profile("TM1")
    tm3 = make_profile("TM3")
    wob = math.radians(1.7)
    off = math.radians(5.1)
    for t in (0.0, 0.8, 3.1, 4.4):
        t1, r1 = tm1.angle_and_rate(t)
        t3, r3 = tm3.angle_and_rate(t)
        assert math.isclose(t3, t1 + off + wob * math.sin(math.pi * t),
                            abs_tol=1e-12)
        assert math.isclose(r3, r1 + wob * math.pi * math.cos(math.pi * t),
                            abs_tol=1e-12)


def test_rate_matches_numeric_derivative():
    eps = 1e-6
    for prof in (make_profile("TM1"), make_profile("TM2"), make_profile("TM3")):
        for t in (0.2, 1.1, 3.05, 4.9):  # away from trapezoid corners
            th_p = prof.angle_and_rate(t + eps)[0]
            th_m = prof.angle_and_rate(t - eps)[0]
            num = (th_p - th_m) / (2 * eps)
            assert math.isclose(prof.angle_and_rate(t)[1], num, abs_tol=1e-5)


def test_make_profile_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_profile("TM9")


def test_custom_profile_from_csv(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("0.0,0.0\n1.0,4.0\n2.0,4.0\n")
    prof = profile_from_csv(path)
    theta, rate = prof.angle_and_rate(0.5)
    assert math.isclose(theta, math.radians(2.0), abs_tol=1e-12)
    assert math.isclose(rate, math.radians(4.0), abs_tol=1e-12)
    theta2, rate2 = prof.angle_and_rate(1.5)
    assert math.isclose(theta2, math.radians(4.0), abs_tol=1e-12)
    assert math.isclose(rate2, 0.0, abs_tol=1e-12)


def test_custom_profile_needs_two_rows():
    prof = PitchProfile(kind="custom", table_t=(0.0,), table_deg=(1.0,))
    with pytest.raises(ValueError):
        prof.angle_and_rate(0.0)


def test_pose_rotation_about_y_axis():
    prof = make_profile("TM2")
    drs = drs_pose_at(prof, 0.4)
    theta, rate = prof.angle_and_rate(0.4)
    assert np.allclose(drs.R_drs, so3_exp(np.array([0.0, theta, 0.0])),
                       atol=1e-12)
    assert np.allclose(drs.omega_drs, [0.0, rate, 0.0], atol=1e-12)


def test_pose_rejects_negative_time():
    with pytest.raises(ValueError):
        drs_pose_at(make_profile("TM2"), -0.1)


def test_contact_point_velocity_matches_numeric_derivative():
    prof = make_profile("TM2")
    pc = np.array([0.3, 0.1, 0.0])
    eps = 1e-6
    for t in (0.2, 0.9, 1.6):
        drs = drs_pose_at(prof, t)
        p_plus = drs_pose_at(prof, t + eps).R_drs @ pc
        p_minus = drs_pose_at(prof, t - eps).R_drs @ pc
        num = (p_plus - p_minus) / (2 * eps)
        assert np.allclose(contact_point_velocity(drs, pc), num, atol=1e-6)
