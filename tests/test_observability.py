"""Observability matrix construction, ranks, and per-variable flags."""

import numpy as np
import pytest
import scipy.linalg

from drs_inekf.liegroup import so3_exp
from drs_inekf.filter import E3
from drs_inekf.observability import (ObservabilityReport, error_jacobian_nobias,
                                     measurement_rows, numerical_rank,
                                     observability_matrix, observability_report,
                                     tilt_sweep, transition_matrix)


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
    R = so3_exp(np.array([0.0, np.radians(5.0), 0.0]))
    O = observability_matrix(R, 1e-2, 3)
    ns = np.linalg.svd(O)[2][numerical_rank(O):].T
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


def _reference_report(R_drs, dt, n_blocks):
    """The per-tilt report that the stacked sweep replaced: one full SVD of
    one observability matrix, each flag from the projection of a unit
    direction onto the null space."""
    H = measurement_rows(R_drs)
    Phi = transition_matrix(error_jacobian_nobias(np.zeros(3)), dt)
    blocks, Pk = [], np.eye(12)
    for _ in range(n_blocks):
        blocks.append(H @ Pk)
        Pk = Pk @ Phi
    O = np.vstack(blocks)
    _, s, Vt = np.linalg.svd(O)
    rank = int(np.sum(s > 1e-8 * s[0])) if s[0] > 0.0 else 0
    ns = Vt[rank:].T

    def observable(block, axes):
        return all(float(np.linalg.norm(ns[3 * block + a])) < 1e-6 for a in axes)

    tilt = float(np.arccos(np.clip(np.dot(R_drs @ E3, E3), -1.0, 1.0)))
    return ObservabilityReport(rank, observable(0, (0, 1)), observable(0, (2,)),
                               observable(1, range(3)), observable(2, range(3)),
                               observable(3, range(3)), dt, n_blocks, tilt)


@pytest.mark.parametrize("max_deg, step_deg, dt, n_blocks", [
    (10.0, 0.01, 1e-2, 3), (30.0, 0.37, 5e-2, 4)])
def test_tilt_sweep_equals_per_tilt_reference(max_deg, step_deg, dt, n_blocks):
    # the obs CLI's sweep: tilt 0 (rank 8) first, stacks of tilts across
    # chunk boundaries; every field equal, tilt_rad bit for bit
    tilts = np.radians(np.arange(0.0, max_deg + 1e-9, step_deg))
    reports = tilt_sweep(tilts, dt=dt, n_blocks=n_blocks)
    assert len(reports) == tilts.size > 64
    assert reports[0].rank == 8
    assert reports == [_reference_report(so3_exp(np.array([0.0, t, 0.0])),
                                         dt, n_blocks) for t in tilts]
