import numpy as np
import pytest
from conftest import random_band_limited
from oracles import resolving_hessian
from qlm import calculus as calc
from qlm.catalog import MinkowskiSurfaceSpec, minkowski_surface_data
from qlm.embedding import L_P, WeylSolver
from qlm.errors import ConvergenceError, PreconditionError
from qlm.fields import Metric2, ScalarField
from qlm.functionals import (EnergyWorkspace, SurfaceData, TimeFunction,
                             byly_mass, wang_yau_energy)
from qlm.optimal import (FD_STEP, comparison_check, hessian_check,
                         solve_optimal)

BYLY_M1_R4 = 4.0 * (1.0 - np.sqrt(0.5))
OPTS = {"tol": 1e-8, "l_max_tau": 10}


@pytest.fixture(scope="module")
def schw_critical(grid32, schw32):
    ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
    tau0 = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.05})
    return ws, solve_optimal(schw32.data, tau0, workspace=ws, **OPTS)


def test_schwarzschild_critical_point(grid32, schw32, schw_critical):
    ws, result = schw_critical
    assert result.converged
    assert np.max(np.abs(result.tau_star.values)) < 1e-5
    assert abs(result.energy - byly_mass(schw32.data, workspace=ws)) < 1e-5


def test_energy_non_increasing_along_accepted_steps(schw_critical):
    _, result = schw_critical
    diffs = np.diff(np.array(result.energy_path))
    assert np.all(diffs <= 1e-10)


def test_lightcone_recovers_its_time_function(grid32, lightcone32):
    ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
    bump = TimeFunction.from_modes(grid32, {(2, 0, 0): 0.02})
    tau0 = lightcone32.tau_bar + bump
    result = solve_optimal(lightcone32.data, tau0, workspace=ws, tol=1e-6,
                           l_max_tau=12)
    assert result.converged
    assert abs(result.energy) < 1e-5
    # Critical points of exactly Minkowskian data form the Lorentz orbit of
    # tau_bar: quotient the boost directions (the spatial coordinate
    # functions of the cut) before comparing.
    diff = (result.tau_star.mean_removed() - lightcone32.tau_bar).values
    w = grid32.quad_weights.ravel()
    basis = np.stack([c.ravel() for c in lightcone32.chart[1:]]
                     + [np.ones(grid32.n_theta * grid32.n_phi)])
    gram = (basis * w) @ basis.T
    coef = np.linalg.solve(gram, (basis * w) @ diff.ravel())
    residual_dir = diff.ravel() - coef @ basis
    assert np.max(np.abs(residual_dir)) < 1e-5


def test_timeflat_data_has_zero_critical_point(grid32, schw32):
    # Axially symmetric divergence-free connection form: tau = 0 stays the
    # critical point.
    ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
    zonal = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0, (3, 0, 0): 0.5})
    alpha = calc.hodge_star(schw32.data.sigma,
                            calc.gradient(schw32.data.sigma, zonal * 0.03))
    data = SurfaceData(schw32.data.sigma, schw32.data.h_norm, alpha)
    tau0 = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.03})
    result = solve_optimal(data, tau0, workspace=ws, **OPTS)
    assert result.converged
    assert np.max(np.abs(result.tau_star.values)) < 1e-5


def test_first_order_criticality(grid32, schw32, schw_critical):
    ws, result = schw_critical
    eps = 1e-4
    for delta in random_band_limited(grid32, 3, lmax=4, seed=23):
        scale = float(np.max(np.abs(delta.values)))
        e_p = wang_yau_energy(
            schw32.data, result.tau_star + delta * eps,
            workspace=ws).energy
        e_m = wang_yau_energy(
            schw32.data, result.tau_star + delta * (-eps),
            workspace=ws).energy
        deriv = abs(e_p - e_m) / (2.0 * eps)
        assert deriv < 10.0 * OPTS["tol"] * scale + 1e-9


def test_basin_independence(grid32, schw32):
    results = []
    for modes in ({(1, 0, 0): 0.05}, {(1, 0, 0): -0.03, (2, 0, 0): 0.02}):
        ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
        tau0 = TimeFunction.from_modes(grid32, modes)
        results.append(solve_optimal(schw32.data, tau0, workspace=ws, **OPTS))
    diff = results[0].tau_star - results[1].tau_star
    assert np.max(np.abs(diff.values)) < 1e-5


def test_inadmissible_start_raises(grid32, schw32):
    steep = TimeFunction.from_modes(grid32, {(4, 0, 0): 3.0})
    with pytest.raises(PreconditionError):
        solve_optimal(schw32.data, steep, **OPTS,
                      workspace=EnergyWorkspace(grid32, weyl_tol=1e-11))


def test_hessian_symmetry_and_spectra(grid32, schw32, schw_critical, flat_ellipsoid32):
    ws, result = schw_critical
    rep = hessian_check(schw32.data, result.tau_star, n_modes=12, workspace=ws)
    assert rep.symmetry_defect < 1e-6
    assert rep.min_eigenvalue > 0.0

    ws2 = EnergyWorkspace(grid32, weyl_tol=1e-11)
    rep2 = hessian_check(flat_ellipsoid32.data, TimeFunction.zero(grid32),
                         n_modes=12, workspace=ws2)
    assert rep2.min_eigenvalue >= -1e-7


def test_hessian_requires_critical_point(grid32, schw32, ws32):
    tau = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.05})
    with pytest.raises(PreconditionError):
        hessian_check(schw32.data, tau, n_modes=6, workspace=ws32)


def test_comparison_inequality(grid32, schw32, schw_critical):
    ws, result = schw_critical
    tau_star = result.tau_star
    taus = [TimeFunction.from_modes(grid32, modes) for modes in
            ({(2, 0, 0): 0.05}, {(1, 1, 1): 0.05}, {(2, 1, 0): 0.05})]
    *slacks, shifted = comparison_check(
        schw32.data, tau_star, taus + [tau_star + 0.4],
        workspace=ws)
    assert min(slacks) >= -1e-6
    assert abs(shifted) < 1e-6


def test_local_minimum_property(grid32, schw32, schw_critical):
    ws, result = schw_critical
    base = result.energy
    for modes in ({(1, 0, 0): 0.02}, {(2, 1, 1): 0.02}, {(3, 0, 0): 0.015}):
        tau = result.tau_star + TimeFunction.from_modes(grid32, modes)
        assert wang_yau_energy(schw32.data, tau, workspace=ws).energy >= base - 1e-10


def test_nontrivial_critical_point(grid32, schw32):
    # Gradient-type connection form: div alpha != 0 makes tau = 0 non-critical
    # and there is no closed form for the critical point. The Hessian check
    # must difference at the full tau*, whose content exceeds its probe basis.
    ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
    pot = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0, (3, 1, 1): 0.4})
    alpha = calc.gradient(schw32.data.sigma, pot * 0.08)
    data = SurfaceData(schw32.data.sigma, schw32.data.h_norm, alpha)
    e0 = wang_yau_energy(data, TimeFunction.zero(grid32), workspace=ws).energy
    result = solve_optimal(data, TimeFunction.zero(grid32), workspace=ws,
                           tol=1e-8, l_max_tau=12)
    assert result.converged
    assert np.max(np.abs(result.tau_star.values)) > 1e-3
    assert result.energy < e0
    rep = hessian_check(data, result.tau_star, n_modes=8, workspace=ws)
    assert rep.min_eigenvalue > 0.0


def test_trust_region_collapse_raises(grid32):
    # A connection form with a large non-divergence-free part makes the energy
    # decrease all the way to the admissibility wall; repeated rejected steps
    # collapse the trust region.
    zonal = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0})
    sigma = Metric2.round(grid32, 1.0)
    alpha = calc.gradient(sigma, zonal * 0.8)
    runaway = SurfaceData(sigma, ScalarField.constant(grid32, 0.2), alpha)
    with pytest.raises(ConvergenceError) as err:
        solve_optimal(runaway, TimeFunction.zero(grid32),
                      workspace=EnergyWorkspace(grid32, weyl_tol=1e-9),
                      tol=1e-9, l_max_tau=6, max_iter=120)
    assert "trust" in str(err.value)
    assert "residual_norm" in err.value.diagnostics


@pytest.fixture(scope="module")
def nontrivial_critical(grid32, schw32):
    """Data with a gradient-type connection form and its critical point,
    whose content exceeds the probe basis (as in
    test_nontrivial_critical_point)."""
    pot = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0, (3, 1, 1): 0.4})
    alpha = calc.gradient(schw32.data.sigma, pot * 0.08)
    data = SurfaceData(schw32.data.sigma, schw32.data.h_norm, alpha)
    result = solve_optimal(data, TimeFunction.zero(grid32),
                           workspace=EnergyWorkspace(grid32, weyl_tol=1e-11),
                           tol=1e-8, l_max_tau=12)
    return data, result.tau_star


@pytest.mark.parametrize("case", ["schwarzschild", "flat", "nontrivial",
                                  "lightcone"])
def test_hessian_matches_the_resolving_oracle(grid32, schw32, lightcone32,
                                              schw_critical,
                                              nontrivial_critical, case):
    # The tangent Hessian against full Weyl re-solves at every probe. The
    # last two cases have dtau* != 0 (up to 0.10 and 0.135), where freezing
    # the embedding instead of moving it along its tangent is off by 8e-5
    # and 4e-3 of the largest eigenvalue.
    if case == "schwarzschild":
        data, tau = schw32.data, schw_critical[1].tau_star
    elif case == "flat":
        data = minkowski_surface_data(
            MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), grid32).data
        tau = TimeFunction.zero(grid32)
    elif case == "nontrivial":
        data, tau = nontrivial_critical
    else:
        data, tau = lightcone32.data, lightcone32.tau_bar
    report = hessian_check(data, tau, n_modes=15,
                         workspace=EnergyWorkspace(grid32, weyl_tol=1e-11))
    oracle = resolving_hessian(data, tau, 15,
                               EnergyWorkspace(grid32, weyl_tol=1e-11))
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(report.eigenvalues - oracle)) <= 1e-6 * scale


def test_hessian_check_solves_nothing_and_leaves_the_workspace(
        grid32, lightcone32, monkeypatch):
    data, tau = lightcone32.data, lightcone32.tau_bar
    ws = EnergyWorkspace(grid32, weyl_tol=1e-11)
    wang_yau_energy(data, tau, workspace=ws)         # keeps the base state
    assert ws.graph_state(data.sigma, tau)["graph"].space.l_max <= L_P
    last, warm = ws._last, ws.solver._warm

    calls = {"solve": 0, "_factorize": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(WeylSolver, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(WeylSolver, name, counted)
    hessian_check(data, tau, n_modes=3, workspace=ws)
    monkeypatch.undo()
    # The factor held from the base solve preconditions the tangents.
    assert calls["solve"] == 0
    assert calls["_factorize"] <= 1
    assert ws._last is last
    assert ws.solver._warm is warm

    # A probe point evaluates as in a fresh workspace: no probe state
    # answers for it from the workspace.
    probe = tau + grid32.basis(1, lmin=1).synthesize(np.eye(3)[0]) * FD_STEP
    fresh = EnergyWorkspace(grid32, weyl_tol=1e-11)
    assert abs(wang_yau_energy(data, probe, workspace=ws).energy
               - wang_yau_energy(data, probe, workspace=fresh).energy) <= 1e-12
