"""Observability matrix construction, ranks, and per-variable flags."""

import numpy as np
import pytest
import scipy.linalg

from drs_inekf.liegroup import so3_exp
from drs_inekf.kinematics import E3
from drs_inekf.observability import (RANK_RTOL, ObservabilityReport, _ranks,
                                     error_jacobian_nobias, measurement_rows,
                                     observability_matrix, observability_report,
                                     tilt_sweep)


def test_bias_free_jacobian_is_nilpotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = error_jacobian_nobias(rng.standard_normal(3))
        assert np.allclose(np.linalg.matrix_power(A, 3), 0.0, atol=1e-12)


def test_measurement_rows_shapes():
    R = so3_exp(np.array([0.0, 0.1, 0.0]))
    assert measurement_rows(R).shape == (6, 12)
    assert measurement_rows(R, include_orientation=False).shape == (3, 12)


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
    O = observability_matrix(R)
    ns = np.linalg.svd(O)[2][np.linalg.matrix_rank(O, rtol=RANK_RTOL):].T
    together = np.zeros(12)
    together[6] = together[9] = 1.0
    together /= np.linalg.norm(together)
    opposite = np.zeros(12)
    opposite[6], opposite[9] = 1.0, -1.0
    opposite /= np.linalg.norm(opposite)
    assert np.linalg.norm(ns.T @ together) > 0.5
    assert np.linalg.norm(ns.T @ opposite) < 1e-8


def test_numerical_rank_edge_cases():
    # _ranks counts the singular values above RANK_RTOL times the largest,
    # over the last axis; all zero gives rank 0
    assert _ranks(np.zeros(3)) == 0
    assert _ranks(np.ones(4)) == 4
    assert _ranks(np.array([1.0, 1e-3, 1e-12])) == 2
    stacked = np.array([[1.0, 1e-3, 1e-12], [0.0, 0.0, 0.0], [2.0, 1.0, 1.0]])
    assert _ranks(stacked).tolist() == [2, 0, 3]


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


def _phi_stack(R_drs, dt, n_blocks):
    """[H; H Phi; H Phi^2; ...] for the transition matrix Phi = expm(A dt)."""
    Phi = scipy.linalg.expm(error_jacobian_nobias(np.zeros(3)) * dt)
    H = measurement_rows(R_drs)
    return np.vstack([H @ np.linalg.matrix_power(Phi, k)
                      for k in range(n_blocks)])


@pytest.mark.parametrize("deg", [0.0, 4.0])
def test_phi_stack_spans_the_dt_free_rows(deg):
    # A^3 = 0, so H Phi^k = H + k dt HA + (k dt)^2 / 2 HA^2: for any dt != 0
    # and 3 or more blocks, the same rows as [H; HA; HA^2]; two matrices
    # span the same rows when each has the rank of the two stacked
    R = so3_exp(np.array([0.0, np.radians(deg), 0.0]))
    O = observability_matrix(R)
    for dt in (1e-4, 1e-2, 5e-2):
        for n_blocks in (3, 4, 5):
            stack = _phi_stack(R, dt, n_blocks)
            ranks = (np.linalg.matrix_rank(stack),
                     np.linalg.matrix_rank(np.vstack([stack, O])))
            rank = np.linalg.matrix_rank(O, rtol=RANK_RTOL)
            assert ranks == (rank,) * 2, (dt, n_blocks)


def _reference_report(R_drs, dt, n_blocks):
    """The per-tilt report of the transition-matrix stack at (dt, n_blocks):
    one full SVD of one observability matrix, each flag from the projection
    of a unit direction onto the null space."""
    O = _phi_stack(R_drs, dt, n_blocks)
    _, s, Vt = np.linalg.svd(O)
    rank = int(np.sum(s > 1e-8 * s[0])) if s[0] > 0.0 else 0
    ns = Vt[rank:].T

    def observable(block, axes):
        return all(float(np.linalg.norm(ns[3 * block + a])) < 1e-6 for a in axes)

    tilt = float(np.arccos(np.clip(np.dot(R_drs @ E3, E3), -1.0, 1.0)))
    return ObservabilityReport(rank, observable(0, (0, 1)), observable(0, (2,)),
                               observable(1, range(3)), observable(2, range(3)),
                               observable(3, range(3)), tilt)


@pytest.mark.parametrize("max_deg, step_deg, dt, n_blocks", [
    (10.0, 0.01, 1e-2, 3), (30.0, 0.37, 5e-2, 4)])
def test_tilt_sweep_equals_per_tilt_reference(max_deg, step_deg, dt, n_blocks):
    # the obs CLI's sweep against the transition-matrix stack that the
    # dt-free matrix replaced: tilt 0 (rank 8) first, stacks of tilts across
    # chunk boundaries; every field equal, tilt_rad bit for bit
    tilts = np.radians(np.arange(0.0, max_deg + 1e-9, step_deg))
    reports = tilt_sweep(tilts)
    assert len(reports) == tilts.size > 64
    assert reports[0].rank == 8
    assert reports == [_reference_report(so3_exp(np.array([0.0, t, 0.0])),
                                         dt, n_blocks) for t in tilts]


def test_rank_9_at_every_tilt_from_1e_4_to_89_degrees():
    tilts = np.radians(np.concatenate([[0.0], np.geomspace(1e-4, 89.0, 60)]))
    level, *tilted = tilt_sweep(tilts)
    assert level == ObservabilityReport(8, True, False, True, False, False, 0.0)
    for rep, tilt in zip(tilted, tilts[1:]):
        assert (rep.rank, rep.roll_pitch_observable, rep.yaw_observable,
                rep.velocity_observable, rep.position_observable,
                rep.contact_observable) == (9, True, True, True, False,
                                            False), np.degrees(tilt)


def _unit(*indices):
    e = np.zeros(12)
    e[list(indices)] = 1.0
    return e


# generators of the unobservable group in error coordinates: a translation
# shared by p and pc, and on a level surface also a yaw about gravity
_TRANSLATIONS = [_unit(6 + i, 9 + i) for i in range(3)]
_YAW = _unit(2)


@pytest.mark.parametrize("deg", [0.0, 1e-4, 0.5, 10.0, 45.0, 89.0])
def test_null_space_is_the_symmetry(deg):
    O = observability_matrix(so3_exp(np.array([0.0, np.radians(deg), 0.0])))
    G = np.column_stack(_TRANSLATIONS + ([_YAW] if deg == 0.0 else []))
    null_space = np.linalg.svd(O)[2][np.linalg.matrix_rank(O, rtol=RANK_RTOL):].T
    assert null_space.shape[1] == G.shape[1] == (4 if deg == 0.0 else 3)
    assert np.max(scipy.linalg.subspace_angles(null_space, G)) < 1e-8
    assert np.linalg.norm(O @ G) < 1e-12
