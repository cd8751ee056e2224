"""Observability matrix construction, ranks, and per-variable flags."""

import numpy as np
import pytest
import scipy.linalg

from drs_inekf.liegroup import so3_exp
from drs_inekf.observability import (error_jacobian_nobias, measurement_rows,
                                     numerical_rank, observability_matrix,
                                     observability_report, tilt_sweep,
                                     transition_matrix)


def test_bias_free_jacobian_is_nilpotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = error_jacobian_nobias(rng.standard_normal(3))
        assert np.allclose(np.linalg.matrix_power(A, 3), 0.0, atol=1e-12)


def test_transition_matrix_equals_truncated_series():
    # nilpotency makes the quadratic polynomial the exact exponential
    rng = np.random.default_rng(1)
    dt = 0.02
    for _ in range(20):
        A = error_jacobian_nobias(rng.standard_normal(3))
        assert np.allclose(transition_matrix(A, dt), scipy.linalg.expm(A * dt),
                           atol=1e-12)


def test_measurement_rows_shapes():
    R = so3_exp(np.array([0.0, 0.1, 0.0]))
    assert measurement_rows(R).shape == (6, 12)
    assert measurement_rows(R, include_orientation=False).shape == (3, 12)


def test_observability_matrix_requires_two_blocks():
    with pytest.raises(ValueError):
        observability_matrix(np.eye(3), 0.01, 1)


def test_rank_horizontal_surface():
    rep = observability_report(np.eye(3))
    assert rep.rank == 8
    assert rep.roll_pitch_observable
    assert not rep.yaw_observable
    assert rep.velocity_observable
    assert not rep.position_observable
    assert not rep.contact_observable


def test_rank_tilted_surface():
    for deg in (1.0, 3.0, 7.0, 10.0):
        R = so3_exp(np.array([0.0, np.radians(deg), 0.0]))
        rep = observability_report(R)
        assert rep.rank == 9, deg
        assert rep.roll_pitch_observable
        assert rep.yaw_observable
        assert rep.velocity_observable
        # absolute position and contact position stay unobservable; only
        # their difference is measured
        assert not rep.position_observable
        assert not rep.contact_observable


def test_yaw_needs_orientation_observation():
    for deg in (0.0, 1.0, 5.0, 10.0):
        R = so3_exp(np.array([0.0, np.radians(deg), 0.0]))
        rep = observability_report(R, include_orientation=False)
        assert not rep.yaw_observable, deg


def test_position_difference_is_observable():
    # the direction p and pc moving together lies in the null space; the
    # direction moving oppositely does not
    from drs_inekf.observability import _rank_and_null_space
    R = so3_exp(np.array([0.0, np.radians(5.0), 0.0]))
    O = observability_matrix(R, 1e-2, 3)
    ns = _rank_and_null_space(O)[1]
    together = np.zeros(12)
    together[6] = together[9] = 1.0
    together /= np.linalg.norm(together)
    opposite = np.zeros(12)
    opposite[6], opposite[9] = 1.0, -1.0
    opposite /= np.linalg.norm(opposite)
    assert np.linalg.norm(ns.T @ together) > 0.5
    assert np.linalg.norm(ns.T @ opposite) < 1e-8


def test_numerical_rank_edge_cases():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    M = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(M) == 2


def test_tilt_sweep_reports():
    tilts = np.radians([0.0, 2.0, 8.0])
    reports = tilt_sweep(tilts)
    assert len(reports) == 3
    assert reports[0].rank == 8
    assert reports[1].rank == reports[2].rank == 9
    for rep, tilt in zip(reports, tilts):
        assert np.isclose(rep.tilt_rad, tilt, atol=1e-9)
        d = rep.to_dict()
        assert d["rank"] == rep.rank


def test_rank_stable_across_dt_and_block_count():
    R = so3_exp(np.array([0.0, np.radians(4.0), 0.0]))
    for dt in (5e-3, 1e-2, 5e-2):
        for n_blocks in (3, 4, 5):
            O = observability_matrix(R, dt, n_blocks)
            assert numerical_rank(O) == 9
