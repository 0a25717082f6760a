import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import CUT_BUMP, random_band_limited
from qlm import calculus as calc
from qlm import functionals
from qlm.catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                         minkowski_surface_data, schwarzschild_sphere_data,
                         surface_data_from_embedding)
from qlm.embedding import L_P, TANGENT_FORCING
from qlm.errors import AdmissibilityError, GeometryError, PreconditionError
from qlm.fields import Metric2, OneForm, ScalarField, SymTensor2
from qlm.functionals import (EnergyWorkspace, SurfaceData, TimeFunction,
                             boost_angle, byly_mass, euler_lagrange_residual,
                             gauge_functional, hawking_mass, mass_density,
                             total_mean_curvature_variation, wang_yau_energy)
from qlm.grid import SphereGrid, sphere_grid

BYLY_M1_R4 = 4.0 * (1.0 - np.sqrt(0.5))


def test_a_dropped_grid_is_freed_without_the_cycle_collector():
    # A grid interns its bases, so a basis holding its grid would make a
    # reference cycle: every dropped grid and its bases would wait for the
    # cycle collector.
    gc.disable()
    try:
        grid = SphereGrid(16, 32)
        sphere = schwarzschild_sphere_data(SphericalSphereSpec(1.0, 4.0), grid)
        assert byly_mass(sphere.data, workspace=EnergyWorkspace(grid)) > 0
        dropped = weakref.ref(grid)
        del grid, sphere
        assert dropped() is None
    finally:
        gc.enable()


def test_hawking_mass_examples(grid32, schw32, lightcone32):
    round_flat = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(2.0, 2.0, 2.0)), grid32)
    assert abs(hawking_mass(round_flat.data)) < 1e-10
    assert abs(hawking_mass(schw32.data) - 1.0) < 1e-8
    assert abs(hawking_mass(lightcone32.data)) < 1e-7


def test_byly_mass_examples(grid32, schw32, ws32):
    round_flat = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.5, 1.5, 1.5)), grid32)
    assert abs(byly_mass(round_flat.data, workspace=ws32)) < 1e-10
    assert abs(byly_mass(schw32.data, workspace=ws32) - BYLY_M1_R4) < 1e-6


def test_byly_vanishes_on_triaxial_flat_surface(grid32, ws32):
    # Non-axisymmetric end-to-end check of embedding uniqueness.
    tri = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.1, 1.25)), grid32)
    assert abs(byly_mass(tri.data, workspace=ws32)) < 1e-10


def test_byly_requires_convex_metric(grid32):
    th, _ = grid32.nodes
    sigma = Metric2(grid32, np.ones(grid32.shape), np.zeros(grid32.shape),
                    (np.sin(th) * (1.0 + 0.9 * np.cos(th) ** 2)) ** 2)
    data = SurfaceData(sigma, ScalarField.constant(grid32, 1.0),
                       OneForm.zero(grid32))
    with pytest.raises(PreconditionError):
        byly_mass(data, workspace=EnergyWorkspace(grid32))


def test_boost_angle_examples(grid32, schw32):
    zero = boost_angle(schw32.data, calc.gradient(
        schw32.data.sigma, TimeFunction.zero(grid32)))
    assert np.max(np.abs(zero.values)) < 1e-12

    # Independent pointwise evaluation on round unit-sphere data, |H| = 2.
    grid = grid32
    th, _ = grid.nodes
    eps = 0.05
    y10 = np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(th)
    flat_round = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), grid)
    tau = ScalarField(grid, eps * y10)
    angle = boost_angle(flat_round.data,
                        calc.gradient(flat_round.data.sigma, tau))
    grad_sq = (eps * np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(th)) ** 2
    expected = np.arcsinh(2.0 * eps * y10 / (2.0 * np.sqrt(1.0 + grad_sq)))
    assert_allclose(angle.values, expected, atol=1e-12)

    # Sign: opposite to the Laplacian of tau.
    (tau_r,) = random_band_limited(grid, 1, lmax=6, seed=21)
    lap = calc.laplacian(schw32.data.sigma, tau_r)
    ang = boost_angle(schw32.data, calc.gradient(schw32.data.sigma, tau_r))
    mask = np.abs(lap.values) > 1e-8
    assert np.all(np.sign(ang.values[mask]) == -np.sign(lap.values[mask]))


def test_wang_yau_energy_examples(grid32, schw32, lightcone32, ws32):
    convex = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.2)), grid32)
    e_flat = wang_yau_energy(convex.data, TimeFunction.zero(grid32),
                             workspace=ws32)
    assert abs(e_flat.energy) < 1e-8

    e_cut = wang_yau_energy(lightcone32.data, lightcone32.tau_bar,
                            workspace=ws32)
    assert abs(e_cut.energy) < 1e-6

    e_schw = wang_yau_energy(schw32.data, TimeFunction.zero(grid32),
                             workspace=ws32)
    assert abs(e_schw.energy - byly_mass(schw32.data, workspace=ws32)) < 1e-6
    assert e_schw.energy == e_schw.reference_term - e_schw.physical_term


def test_energy_invariant_under_time_translation(grid32, schw32, ws32):
    tau = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.05, (2, 1, 1): 0.03})
    e0 = wang_yau_energy(schw32.data, tau, workspace=ws32).energy
    e1 = wang_yau_energy(schw32.data, tau + 0.7, workspace=ws32).energy
    assert abs(e0 - e1) < 1e-9


def test_gauge_functional(grid32, schw32, lightcone32, ws32):
    for data, tau in ((schw32.data, TimeFunction.from_modes(grid32, {(1, 0, 0): 0.04})),
                      (lightcone32.data, lightcone32.tau_bar)):
        dtau = calc.gradient(data.sigma, tau)
        theta = boost_angle(data, dtau)
        base = gauge_functional(data, dtau, theta)
        physical = wang_yau_energy(data, tau, workspace=ws32).physical_term
        assert abs(base - physical) < 1e-12
        bump = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0})
        for eps in (1e-2, -1e-2):
            phi = ScalarField(grid32, theta.values + eps * bump.values)
            assert gauge_functional(data, dtau, phi) >= base

    # tau = 0: the functional reduces to the cosh-weighted |H| integral,
    # minimized at zero angle.
    dtau0 = calc.gradient(schw32.data.sigma, TimeFunction.zero(grid32))
    base = gauge_functional(schw32.data, dtau0, ScalarField.constant(grid32, 0.0))
    expected = calc.integrate(schw32.data.sigma, schw32.data.h_norm) / (8 * np.pi)
    assert abs(base - expected) < 1e-12
    phi = TimeFunction.from_modes(grid32, {(2, 0, 0): 0.1})
    assert gauge_functional(schw32.data, dtau0, phi) > base


def test_gauge_functional_matches_frame_hamiltonian(grid32, ws32):
    # Rebuild the surface Hamiltonian bracket from explicit normal frames of
    # a Minkowski catalog surface, boosted off the mean-curvature gauge by an
    # arbitrary angle, and compare with the angle-parametrized functional.
    surface = minkowski_surface_data(
        MinkowskiSurfaceSpec("graph", tau_modes={(2, 0, 0): 0.12, (2, 1, 1): 0.06}),
        grid32)
    data, tau = surface.data, surface.tau_bar
    chart = surface.chart
    eta = np.array([-1.0, 1.0, 1.0, 1.0])[:, None, None]

    def dot(a, b):
        return (eta * a * b).sum(0)

    tan_t = np.stack([grid32.dtheta(c, 0) for c in chart])
    tan_p = np.stack([grid32.dphi(c) for c in chart])
    sigma = data.sigma
    itt, itp, ipp = sigma.inverse_components()
    lap = np.stack([calc.laplacian(sigma, ScalarField(grid32, c)).values
                    for c in chart])
    ht = dot(lap, tan_t)
    hp = dot(lap, tan_p)
    h_vec = lap - ((itt * ht + itp * hp) * tan_t + (itp * ht + ipp * hp) * tan_p)
    h_norm = np.sqrt(dot(h_vec, h_vec))

    # Mean-curvature-gauge frame from the static observer.
    u4 = np.zeros_like(chart)
    u4[0] = 1.0
    ut, up = -tan_t[0], -tan_p[0]
    u_perp = u4 - ((itt * ut + itp * up) * tan_t + (itp * ut + ipp * up) * tan_p)
    e4 = u_perp / np.sqrt(-dot(u_perp, u_perp))
    h4 = dot(h_vec, e4)
    e3_dir = h_vec + h4 * e4
    e3 = -e3_dir / np.sqrt(dot(e3_dir, e3_dir))
    h3 = dot(h_vec, e3)
    frame3 = -h_vec / h_norm
    frame4 = (h4 * e3 - h3 * e4) / h_norm

    # Arbitrary gauge: the functional's angle is minus the frame boost angle.
    grad_tau = calc.gradient(sigma, tau)
    phi = ScalarField(grid32, boost_angle(data, grad_tau).values
                      + 0.05 * TimeFunction.from_modes(
                          grid32, {(2, 0, 0): 1.0}).values)
    chi = -phi.values
    leg3 = np.cosh(chi) * frame3 + np.sinh(chi) * frame4
    leg4 = np.sinh(chi) * frame3 + np.cosh(chi) * frame4

    d_t = np.stack([grid32.dtheta(c, 0) for c in leg3])
    d_p = np.stack([grid32.dphi(c) for c in leg3])
    v_t = itt * grad_tau.a_theta + itp * grad_tau.a_phi
    v_p = itp * grad_tau.a_theta + ipp * grad_tau.a_phi
    w = np.sqrt(1.0 + calc.form_dot(sigma, grad_tau, grad_tau))
    bracket = (-w * dot(h_vec, leg3)
               - dot(v_t * d_t + v_p * d_p, leg4))
    direct = calc.integrate(sigma, ScalarField(grid32, bracket)) / (8.0 * np.pi)
    value = gauge_functional(data, grad_tau, phi)
    assert abs(direct - value) < 1e-9 * max(1.0, abs(value))


def test_mass_density(grid32, schw32, lightcone32, ws32):
    rho = mass_density(schw32.data, TimeFunction.zero(grid32), workspace=ws32)
    expected = 0.5 * (1.0 - np.sqrt(0.5))
    assert_allclose(rho.values, expected, atol=1e-9)

    # tau = 0 reduction: rho = (reference mean curvature) - |H|.
    state = ws32.graph_state(schw32.data.sigma, TimeFunction.zero(grid32))
    direct = state["geom"].mean_curvature.values - schw32.data.h_norm.values
    assert_allclose(rho.values, direct, atol=1e-9)

    rho_cut = mass_density(lightcone32.data, lightcone32.tau_bar, workspace=ws32)
    assert np.max(np.abs(rho_cut.values)) < 1e-7


def test_mass_density_rejects_null_reference(grid32, monkeypatch):
    # Catalog surfaces never reach this branch (their references stay
    # spacelike), so forge a graph state whose Laplacian of tau outgrows the
    # spatial mean curvature (2 on the unit sphere) and check the declared
    # error fires.
    from dataclasses import replace

    ws = EnergyWorkspace(grid32, weyl_tol=1e-9)
    data = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), grid32).data
    tau = TimeFunction.zero(grid32)
    state = dict(ws.graph_state(data.sigma, tau))
    state["graph"] = replace(state["graph"], lap_tau=np.full(grid32.shape, 3.0))
    monkeypatch.setattr(ws, "graph_state", lambda sigma, tau: state)
    with pytest.raises(GeometryError, match=r"at node \(\d+, \d+\)") as err:
        mass_density(data, tau, workspace=ws)
    assert err.value.node is not None


def test_steep_time_function_is_inadmissible(grid32):
    data = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), grid32).data
    steep = TimeFunction.from_modes(grid32, {(2, 1, 0): 1.5})
    with pytest.raises(PreconditionError):
        mass_density(data, steep, workspace=EnergyWorkspace(grid32))
    # solve_optimal rejects a trial step on exactly this subclass.
    with pytest.raises(AdmissibilityError, match="time function"):
        EnergyWorkspace(grid32).graph_state(data.sigma, steep)


def test_graph_state_builds_graph_metric_once(monkeypatch):
    grid = sphere_grid(16, 32)
    tau = TimeFunction.from_modes(grid, {(1, 0, 0): 0.1})
    calls = {"metric_add_dtau": 0, "gauss_curvature": 0, "gradient": 0,
             "coordinate_laplacian": 0}
    for name in calls:
        original = getattr(calc, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            # Only differentials of tau count as gradient calls.
            if _name != "gradient" or np.array_equal(args[1].values,
                                                     tau.values):
                calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(calc, name, counted)
    EnergyWorkspace(grid).graph_state(Metric2.round(grid, 2.0), tau)
    # One Laplacian per state: the time component of the mean-curvature
    # vector; the spatial ones are left to mass_density.
    assert calls == {"metric_add_dtau": 1, "gauss_curvature": 1,
                     "gradient": 1, "coordinate_laplacian": 1}


def test_gauge_defect_takes_one_differential_of_tau(monkeypatch):
    from types import SimpleNamespace

    from qlm import validate

    grid = sphere_grid(16, 32)
    surface = minkowski_surface_data(
        MinkowskiSurfaceSpec("graph", tau_modes={(2, 0, 0): 0.12}), grid)
    tau = surface.tau_bar
    calls = []
    original = calc.gradient

    def counted(sigma, f):
        if np.array_equal(f.values, tau.values):
            calls.append(f)
        return original(sigma, f)
    monkeypatch.setattr(calc, "gradient", counted)
    validate._gauge_defect(SimpleNamespace(grid=grid), surface.data, tau)
    assert len(calls) == 1


def test_el_residual_timeflat_and_translation(grid32, schw32, ws32):
    res = euler_lagrange_residual(schw32.data, TimeFunction.zero(grid32),
                                  workspace=ws32)
    assert np.max(np.abs(res.values)) < 1e-8

    # Divergence-free connection form built from a rotated gradient: tau = 0
    # still solves the system.
    (g1,) = random_band_limited(grid32, 1, lmax=4, decay=1.0, seed=31)
    alpha = calc.hodge_star(schw32.data.sigma,
                            calc.gradient(schw32.data.sigma, g1 * 0.05))
    timeflat = SurfaceData(schw32.data.sigma, schw32.data.h_norm, alpha)
    res2 = euler_lagrange_residual(timeflat, TimeFunction.zero(grid32),
                                   workspace=ws32)
    assert np.max(np.abs(res2.values)) < 1e-8

    # Time translation kills the mean of the residual.
    tau = TimeFunction.from_modes(grid32, {(2, 1, 0): 0.05})
    res3 = euler_lagrange_residual(schw32.data, tau, workspace=ws32)
    total = calc.integrate(schw32.data.sigma, res3)
    assert abs(total) < 1e-8


def test_el_residual_is_energy_gradient(grid32, schw32):
    # Fresh workspace: finite differences amplify any history dependence of
    # the warm-started embedding solves, so keep this evaluation sequence
    # self-contained.
    ws32 = EnergyWorkspace(grid32, weyl_tol=1e-11)
    tau = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.03, (2, 1, 1): 0.02})
    res = euler_lagrange_residual(schw32.data, tau, workspace=ws32)
    jac = grid32.quad_weights * schw32.data.sigma.sqrt_det() / grid32.sin_theta[:, None]
    eps = 1e-5
    for delta in random_band_limited(grid32, 2, lmax=5, seed=17):
        e_p = wang_yau_energy(schw32.data, tau + delta * eps,
                              workspace=ws32).energy
        e_m = wang_yau_energy(schw32.data, tau + delta * (-eps),
                              workspace=ws32).energy
        fd = (e_p - e_m) / (2 * eps)
        predicted = float(np.sum(jac * res.values * delta.values)) / (8 * np.pi)
        assert abs(fd - predicted) <= 1e-5 * abs(fd)


def test_pointwise_conservation_on_minkowski_data(grid32, ws32):
    for spec in (MinkowskiSurfaceSpec("lightcone_cut",
                                      log_modes={(2, 0, 0): 0.12}),
                 MinkowskiSurfaceSpec("graph", tau_modes={(2, 0, 0): 0.12}),
                 MinkowskiSurfaceSpec("boosted_sphere", velocity=0.3)):
        # For data of a surface in Minkowski space at its own time function,
        # the reference mean curvature times the area-form ratio w matches
        # the physical Hamiltonian density node by node.
        surface = minkowski_surface_data(spec, grid32)
        data, tau = surface.data, surface.tau_bar
        state = ws32.graph_state(data.sigma, tau)
        theta = wang_yau_energy(data, tau, workspace=ws32).theta
        density = functionals._physical_density(
            data, theta, state["w"], state["graph"].dtau)
        defect = state["geom"].mean_curvature.values * state["w"] - density
        assert np.max(np.abs(defect)) < 1e-6


def test_mass_scaling_linearity(grid32, schw32, ws32):
    c = 1.7
    sigma = schw32.data.sigma
    scaled = SurfaceData(
        Metric2(grid32, c * c * sigma.tt, c * c * sigma.tp, c * c * sigma.pp),
        ScalarField(grid32, schw32.data.h_norm.values / c),
        schw32.data.alpha)
    assert abs(hawking_mass(scaled) - c * hawking_mass(schw32.data)) \
        <= 1e-9 * c
    assert abs(byly_mass(scaled, workspace=ws32)
               - c * byly_mass(schw32.data, workspace=ws32)) <= 1e-9 * c


def test_hawking_below_byly_on_symmetric_spheres(grid32, ws32):
    for r in (3.0, 4.0, 10.0):
        sphere = schwarzschild_sphere_data(SphericalSphereSpec(1.0, r), grid32)
        m = hawking_mass(sphere.data)
        big_m = byly_mass(sphere.data, workspace=ws32)
        assert m < big_m


def test_variation_of_total_mean_curvature(grid32):
    ws32 = EnergyWorkspace(grid32, weyl_tol=1e-11)
    sigma = Metric2.round(grid32, 1.0)
    tau = TimeFunction.from_modes(grid32, {(1, 0, 0): 0.1})
    sigma_hat = calc.metric_add_dtau(sigma, calc.gradient(sigma, tau))
    emb = ws32.solver.solve(sigma_hat)

    # Rigid-rotation pullback: first variation vanishes.
    rot = np.cross(np.array([0.3, -0.2, 1.0])[:, None, None], emb.xyz, axis=0)
    xt = np.stack([grid32.dtheta(c, 0) for c in emb.xyz])
    xp = np.stack([grid32.dphi(c) for c in emb.xyz])
    rt = np.stack([grid32.dtheta(c, 0) for c in rot])
    rp = np.stack([grid32.dphi(c) for c in rot])
    lie = SymTensor2(grid32, 2 * (xt * rt).sum(0),
                     (xt * rp).sum(0) + (xp * rt).sum(0), 2 * (xp * rp).sum(0))
    assert abs(total_mean_curvature_variation(sigma_hat, lie, workspace=ws32)) < 1e-7

    # Uniform scaling versus re-solved finite difference.
    geom = ws32.graph_state(sigma, tau)["geom"]
    base = calc.integrate(sigma_hat, geom.mean_curvature)
    eps = 1e-4
    scaled = Metric2(grid32, np.exp(2 * eps) * sigma_hat.tt,
                     np.exp(2 * eps) * sigma_hat.tp,
                     np.exp(2 * eps) * sigma_hat.pp)
    emb2 = ws32.solver.solve(scaled)
    fd = (calc.integrate(scaled, extract_geometry_mean(emb2)) - base) / eps
    predicted = total_mean_curvature_variation(
        sigma_hat, SymTensor2(grid32, 2 * sigma_hat.tt, 2 * sigma_hat.tp,
                              2 * sigma_hat.pp), workspace=ws32)
    assert abs(fd - predicted) <= 1e-3 * abs(fd)

    # Variation induced by a time-function increment versus the reference
    # term of the energy. The direction must share the boost axis: purely
    # even zonal increments leave the reference term stationary by the
    # antipodal symmetry of the graph construction.
    delta_tau = TimeFunction.from_modes(grid32, {(1, 0, 0): 1.0})
    df_tau = calc.gradient(sigma, ScalarField(grid32, tau.values))
    df_delta = calc.gradient(sigma, delta_tau)
    delta_sigma = SymTensor2(
        grid32,
        df_tau.a_theta * df_delta.a_theta * 2,
        df_tau.a_theta * df_delta.a_phi + df_tau.a_phi * df_delta.a_theta,
        df_tau.a_phi * df_delta.a_phi * 2)
    predicted = total_mean_curvature_variation(sigma_hat, delta_sigma,
                                               workspace=ws32)
    flat_round = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), grid32)
    eps = 1e-4
    refs = []
    for s in (eps, -eps):
        shifted = ScalarField(grid32, tau.values + s * delta_tau.values)
        refs.append(wang_yau_energy(flat_round.data, shifted,
                                    workspace=ws32).reference_term)
    fd = (refs[0] - refs[1]) / (2 * eps) * 8 * np.pi
    assert abs(fd - predicted) <= 1e-4 * abs(fd)


def spot_cut(grid, height, steepness):
    """(data, time function) of the light-cone cut t = |x| = f with
    f = exp(height exp(steepness (cos(theta) - 1)))."""
    f = np.exp(height * np.exp(steepness * (np.cos(grid.nodes[0]) - 1.0)))
    return surface_data_from_embedding(
        grid, np.concatenate([f[None], f * grid.unit_sphere]))


@pytest.mark.parametrize("surface, weyl_tol, direct", [
    ("bump", 1e-11, True),      # base embedding at degree 18: Cholesky
    ("spot", 1e-9, False),      # degree 21: conjugate gradients
])
def test_tangent_states_follow_the_first_variation(grid32, lightcone32,
                                                   surface, weyl_tol, direct):
    # Along X +- eps dX over the graph metrics of tau bar +- eps v, the total
    # reference mean curvature changes at the closed-form first variation
    # for the metric change dtau (x) dv + dv (x) dtau.
    if surface == "bump":
        data, tau = lightcone32.data, lightcone32.tau_bar
    else:
        data, tau = spot_cut(grid32, 0.1, 4.0)
    ws = EnergyWorkspace(grid32, weyl_tol=weyl_tol)
    graph = ws.graph_state(data.sigma, tau)["graph"]
    assert (graph.space.l_max <= L_P) == direct
    v = TimeFunction.from_modes(grid32, {(2, 0, 0): 1.0, (3, 1, 1): 0.5})
    eps = 1e-4
    (_, plus), (_, minus) = next(ws.tangent_states(data.sigma, tau,
                                                   v.values[None], eps))
    fd = (plus["reference"] - minus["reference"]) / (2.0 * eps)

    dv = calc.gradient(data.sigma, v)
    a = graph.dtau
    delta = SymTensor2(grid32, 2.0 * a.a_theta * dv.a_theta,
                       a.a_theta * dv.a_phi + a.a_phi * dv.a_theta,
                       2.0 * a.a_phi * dv.a_phi)
    exact = total_mean_curvature_variation(graph.sigma_hat, delta,
                                           workspace=ws)
    assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_tangent_shares_one_jacobi_diagonal(grid32, monkeypatch):
    # Above L_P every direction's conjugate-gradient solve reuses one
    # diagonal build, and gets the tangent of a build of its own.
    data, tau = spot_cut(grid32, 0.1, 4.0)
    ws = EnergyWorkspace(grid32, weyl_tol=1e-9)
    graph = ws.graph_state(data.sigma, tau)["graph"]
    assert graph.space.l_max == 21 > L_P
    a = graph.dtau
    deltas = []
    for field in random_band_limited(grid32, 3, lmax=4, seed=5):
        dv = calc.gradient(data.sigma, field)
        deltas.append([2.0 * a.a_theta * dv.a_theta,
                       a.a_theta * dv.a_phi + a.a_phi * dv.a_theta,
                       2.0 * a.a_phi * dv.a_phi])
    deltas = np.array(deltas)
    solver = ws.solver
    builds = []
    original = solver._normal_diagonal

    def counted(*args):
        builds.append(1)
        return original(*args)
    monkeypatch.setattr(solver, "_normal_diagonal", counted)
    shared = solver.tangent(graph.space, deltas)
    assert len(builds) == 1

    basis = grid32.basis(graph.space.l_max, lmin=1)
    x, (xt, xp) = graph.space.xyz, graph.space.tangents
    rhs = solver._gradient(basis, xt, xp, deltas.swapaxes(0, 1))
    steps = [solver._krylov_step(basis, xt, xp,
                                 original(basis, x, xt, xp), g, TANGENT_FORCING)
             for g in rhs]
    own = basis.synthesize(np.reshape(steps, (len(rhs), 3, -1)))
    assert np.array_equal(shared, own)


def extract_geometry_mean(emb):
    from qlm.embedding import extract_geometry
    return extract_geometry(emb).mean_curvature


def test_surface_data_requires_positive_h(grid32):
    h = np.full(grid32.shape, 1.0)
    h[3, 5] = 0.0
    with pytest.raises(PreconditionError) as err:
        SurfaceData(Metric2.round(grid32, 1.0), ScalarField(grid32, h),
                    OneForm.zero(grid32))
    assert err.value.node == (3, 5)
