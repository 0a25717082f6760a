import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import fd_jang_residual_3d
from qlm.errors import ConvergenceError, DomainError
from qlm.radial import (RadialFunction, RadialInitialData, adm_energy_radial,
                        e_of_r, flat_radial_data, hyperboloid_height,
                        hyperboloid_radial_data, jang_residual_radial,
                        shi_tam_flow, solve_jang_radial)

BYLY_M1_R4 = 4.0 * (1.0 - np.sqrt(0.5))


def test_jang_residual_closed_forms():
    flat = flat_radial_data(1.0, 10.0)
    rs = np.linspace(1.0, 10.0, 40)

    res_const = jang_residual_radial(flat, RadialFunction.constant(3.0))(rs)
    assert np.max(np.abs(res_const)) == 0.0

    slope_one = RadialFunction(lambda r: np.asarray(r, dtype=float),
                               lambda r: np.ones_like(np.asarray(r, dtype=float)),
                               lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    res = jang_residual_radial(flat, slope_one)(rs)
    assert_allclose(res, np.sqrt(2.0) / rs, atol=1e-10)

    hyp = hyperboloid_radial_data(1.0, 8.0)
    res_h = jang_residual_radial(hyp, hyperboloid_height())(np.linspace(1, 8, 100))
    assert np.max(np.abs(res_h)) < 1e-12


def test_radial_reduction_matches_3d_finite_differences():
    # Cross-check the hand reduction against a direct evaluation of the full
    # graph-trace operator with finite-difference Christoffels.
    hyp = hyperboloid_radial_data(1.0, 8.0)
    fn = RadialFunction(lambda r: np.sqrt(1 + np.asarray(r) ** 2) + 0.3,
                        lambda r: 0.7 * np.asarray(r) / np.sqrt(1 + np.asarray(r) ** 2),
                        lambda r: 0.7 * (1 + np.asarray(r) ** 2) ** -1.5)
    reduced = jang_residual_radial(hyp, fn)
    for r in (1.5, 3.0, 6.5):
        for theta in (0.4, 1.2, 2.3):
            full = fd_jang_residual_3d(hyp, fn.value, fn.first, r, theta)
            assert abs(full - float(reduced(r))) < 1e-6


def test_solve_jang_flat_and_time_symmetric():
    flat = flat_radial_data(1.0, 10.0)
    sol = solve_jang_radial(flat, tau0=0.0)
    assert np.max(np.abs(sol.f)) < 1e-12
    assert sol.residual_sup < 1e-10

    sol2 = solve_jang_radial(flat, tau0=-1.3)
    assert_allclose(sol2.f, -1.3, atol=1e-12)


def test_solve_jang_recovers_hyperboloid():
    hyp = hyperboloid_radial_data(1.0, 8.0)
    far = 8.0 / np.sqrt(1.0 + 64.0)
    sol = solve_jang_radial(hyp, tau0=np.sqrt(2.0), far_slope=far)
    assert np.max(np.abs(sol.f - np.sqrt(1.0 + sol.r ** 2))) < 1e-7
    assert sol.residual_sup < 1e-8


def test_jang_blowup_reports_radius():
    # Strong tangential extrinsic curvature drives the slope to blow up.
    steep = RadialInitialData(
        1.0, 50.0,
        g_rr=lambda r: 1.0 + 0.0 * np.asarray(r, dtype=float),
        p_rr=lambda r: 0.0 * np.asarray(r, dtype=float),
        p_tang=lambda r: 3.0 + 0.0 * np.asarray(r, dtype=float),
        dg_rr=lambda r: 0.0 * np.asarray(r, dtype=float))
    with pytest.raises(ConvergenceError) as err:
        solve_jang_radial(steep, tau0=0.0)
    assert "blow-up at r" in str(err.value)


def test_radial_data_validation():
    with pytest.raises(DomainError):
        flat_radial_data(5.0, 2.0)
    with pytest.raises(DomainError):
        RadialInitialData(1.0, 4.0,
                          g_rr=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
                          p_rr=lambda r: 0.0 * np.asarray(r),
                          p_tang=lambda r: 0.0 * np.asarray(r),
                          dg_rr=lambda r: 0.0 * np.asarray(r))


def test_shi_tam_flow_flat_and_schwarzschild():
    flat = shi_tam_flow(4.0, 1.0, r_max=256.0)
    assert flat.energy == 0.0
    assert abs(float(flat.u(100.0)) - 1.0) < 1e-12
    table = e_of_r(flat, np.linspace(4.0, 200.0, 20))
    assert np.max(np.abs(table[:, 1])) < 1e-11

    state = shi_tam_flow(4.0, 1.0 / np.sqrt(0.5), r_max=2048.0)
    assert abs(state.energy - 1.0) < 1e-12
    assert abs(float(state.mass_aspect(4.0)) - BYLY_M1_R4) < 1e-8
    assert abs(float(state.mass_aspect(10.0)) - 10.0 * (1 - np.sqrt(0.8))) < 1e-9


def test_shi_tam_flow_validation():
    with pytest.raises(DomainError):
        shi_tam_flow(4.0, -1.0)
    with pytest.raises(DomainError):
        shi_tam_flow(4.0, 1.0, r_max=2.0)


def test_e_of_r_table():
    state = shi_tam_flow(4.0, 1.0 / np.sqrt(0.5), r_max=2048.0)
    table = e_of_r(state, np.geomspace(4.0, 1000.0, 64))
    assert np.all(np.diff(table[:, 1]) < 0.0)
    assert abs(table[-1, 1] - 1.0) < 2.0 / 1000.0 + 1e-10
    expected = table[:, 0] * (1.0 - np.sqrt(1.0 - 2.0 / table[:, 0]))
    assert_allclose(table[:, 1], expected, atol=1e-9)


def test_adm_flux_quadrature():
    state = shi_tam_flow(4.0, 1.0 / np.sqrt(0.5), r_max=2048.0)
    value = adm_energy_radial(state, 1000.0)
    assert abs(value - 1.0) < 1e-4
    with pytest.raises(DomainError):
        adm_energy_radial(state, 2000.0)


def test_shi_tam_positivity_instances():
    # A round boundary of radius r0 and mean curvature k has Brown-York value
    # r0 - k r0^2 / 2, and its quasi-spherical extension has boundary lapse
    # (2 / r0) / k. For k <= 2 / r0 (the Shi-Tam hypothesis) the chain
    # Brown-York = e(r0) >= e(r_max) >= ADM energy >= 0 holds.
    r0 = 4.0
    k_schw = (2.0 / r0) * np.sqrt(1.0 - 2.0 / r0)
    values = {}
    for k in (2.0 / r0, k_schw, 1.9 / r0, 2.2 / r0):
        state = shi_tam_flow(r0, (2.0 / r0) / k)
        brown_york = r0 - k * r0 * r0 / 2.0
        e_start, e_end = state.mass_aspect(np.array([r0, state.r_max]))
        assert abs(e_start - brown_york) < 1e-12
        if k <= 2.0 / r0:
            assert brown_york >= e_end >= state.energy >= -1e-12
        values[k] = brown_york, state.energy
    assert np.max(np.abs(values[2.0 / r0])) < 1e-12
    assert_allclose(values[k_schw], (BYLY_M1_R4, 1.0), rtol=0, atol=1e-12)
    assert min(values[1.9 / r0]) > 0.0
    assert max(values[2.2 / r0]) < 0.0
