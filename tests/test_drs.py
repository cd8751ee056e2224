"""Surface pitch profiles and poses."""

import math

import numpy as np
import pytest

from drs_inekf.drs import PitchProfile, drs_pose_at, make_profile, profile_from_csv
from drs_inekf.liegroup import so3_exp


def test_constant_profile():
    prof = PitchProfile(kind="constant", constant_deg=5.0)
    assert math.isclose(prof.angle(3.7), math.radians(5.0))
    assert prof.angle(np.array([0.0, 3.7])).shape == (2,)


def test_sinusoid_profile_closed_form():
    prof = make_profile("TM2")
    amp = math.radians(2.5)
    for t in (0.0, 0.31, 1.0, 2.7):
        assert math.isclose(prof.angle(t), amp * math.sin(math.pi * t),
                            abs_tol=1e-12)


def test_trapezoid_profile_breakpoints():
    prof = make_profile("TM1")
    hold = math.radians(8.0)
    # holds at -hold then +hold, linear ramps between, period 6.6 s
    assert math.isclose(prof.angle(0.0), -hold)
    assert prof.angle(1.0) == -hold
    assert math.isclose(prof.angle(2.8 + 0.25), 0.0, abs_tol=1e-12)
    assert math.isclose(prof.angle(3.3 + 1.0), hold)
    assert math.isclose(prof.angle(6.1 + 0.25), 0.0, abs_tol=1e-12)
    # ramps are linear: the quarter points sit halfway to the plateaus
    assert math.isclose(prof.angle(2.8 + 0.125), -0.5 * hold)
    assert math.isclose(prof.angle(6.1 + 0.125), 0.5 * hold)
    # periodicity
    t = 1.234
    period = 6.6
    assert math.isclose(prof.angle(t), prof.angle(t + period), abs_tol=1e-12)


def test_trapezoid_phase_shift():
    base = make_profile("TM1")
    shifted = PitchProfile(kind="TM1", phase_s=2.8)
    for t in (0.0, 0.4, 1.7, 5.0):
        assert math.isclose(shifted.angle(t), base.angle(t + 2.8),
                            abs_tol=1e-12)


def test_offset_wobble_profile_composition():
    tm1 = make_profile("TM1")
    tm3 = make_profile("TM3")
    wob = math.radians(1.7)
    off = math.radians(5.1)
    for t in (0.0, 0.8, 3.1, 4.4):
        assert math.isclose(tm3.angle(t),
                            tm1.angle(t) + off + wob * math.sin(math.pi * t),
                            abs_tol=1e-12)


def test_angle_of_an_array_equals_the_scalar_angles():
    t = np.linspace(0.0, 13.2, 2641)
    for kind in ("TM1", "TM2", "TM3", "constant"):
        prof = make_profile(kind)
        assert np.array_equal(prof.angle(t), [prof.angle(x) for x in t])


def test_make_profile_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_profile("TM9")


def test_custom_profile_from_csv(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("0.0,0.0\n1.0,4.0\n2.0,4.0\n")
    prof = profile_from_csv(path)
    assert math.isclose(prof.angle(0.5), math.radians(2.0), abs_tol=1e-12)
    assert math.isclose(prof.angle(1.5), math.radians(4.0), abs_tol=1e-12)


def test_custom_profile_needs_two_rows():
    prof = PitchProfile(kind="custom", table_t=(0.0,), table_deg=(1.0,))
    with pytest.raises(ValueError):
        prof.angle(0.0)


def test_pose_rotation_about_y_axis():
    prof = make_profile("TM2")
    R = drs_pose_at(prof, 0.4)
    assert np.allclose(R, so3_exp(np.array([0.0, prof.angle(0.4), 0.0])),
                       atol=1e-12)


def test_pose_rejects_negative_time():
    with pytest.raises(ValueError):
        drs_pose_at(make_profile("TM2"), -0.1)


def test_pose_on_an_array_equals_the_stacked_scalar_poses():
    t = np.linspace(0.0, 7.0, 141)
    for prof in (make_profile("TM1"), make_profile("TM3"),
                 PitchProfile(kind="custom", table_t=(0.0, 2.0, 7.0),
                              table_deg=(-3.0, 6.0, 1.0))):
        R = drs_pose_at(prof, t)
        assert R.shape == (t.size, 3, 3)
        for i, x in enumerate(t):
            assert np.array_equal(R[i], drs_pose_at(prof, x))
            expected = so3_exp(np.array([0.0, prof.angle(x), 0.0]))
            assert np.abs(R[i] - expected).max() < 1e-14
    with pytest.raises(ValueError):
        drs_pose_at(make_profile("TM2"), np.array([0.0, -0.1]))
