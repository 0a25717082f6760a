import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dense_normal_matrix, ellipsoid_total_mean_curvature
from qlm import calculus as calc
from qlm import embedding
from qlm.catalog import (MinkowskiSurfaceSpec, minkowski_surface_data,
                         surface_data_from_embedding)
from qlm.embedding import (EmbeddingR3, WeylSolver, extract_geometry,
                           graph_embedding)
from qlm.errors import ConvergenceError, GeometryError, PreconditionError
from qlm.fields import Metric2, ScalarField, SymTensor2
from qlm.grid import sphere_grid
from test_grid_calculus import ellipsoid_metric


@pytest.fixture(scope="module")
def solver32(grid32):
    return WeylSolver(grid32, tol=1e-10)


def minkowski_identity_residual(emb):
    """Relative defect of the Minkowski formula: int H = 2 int K <X, nu>."""
    geom = extract_geometry(emb)
    area = calc.area_weights(emb.induced_metric())
    x = emb.xyz - (area * emb.xyz).sum((1, 2))[:, None, None] / area.sum()
    int_h = np.sum(area * geom.mean_curvature.values)
    rhs = np.sum(area * 2.0 * geom.lambda1.values * geom.lambda2.values
                 * (x * geom.normal).sum(0))
    return abs(int_h - rhs) / abs(int_h)


def align_rigid(xyz, target, weights):
    """Weighted rms distance from ``xyz`` to ``target`` after the best rigid
    motion (orthogonal map, reflections allowed, plus a shift)."""
    w = (weights / weights.sum()).ravel()
    a, b = xyz.reshape(3, -1), target.reshape(3, -1)
    a, b = a - (a * w).sum(1)[:, None], b - (b * w).sum(1)[:, None]
    u, _, vt = np.linalg.svd((b * w) @ a.T)
    return float(np.sqrt((w * ((u @ vt @ a - b) ** 2).sum(0)).sum()))


def herglotz_report(sigma, emb1, emb2):
    """Rigidity diagnostics of two embeddings of ``sigma``: the difference of
    total mean curvatures, the Herglotz integral 2 int det(h1 - h2) /
    det(sigma) <X1, nu1> dA, the largest second-form difference and the rms
    distance after rigid alignment. All vanish for congruent embeddings
    (Cohn-Vossen). Raises PreconditionError unless both embeddings are
    isometric to ``sigma`` within 1e-6 of its largest diagonal entry."""
    scale = max(np.max(sigma.tt), np.max(sigma.pp))
    for emb in (emb1, emb2):
        defect = max(np.max(np.abs(a - b)) for a, b in
                     zip(emb.induced_metric().components(), sigma.components()))
        if defect > 1e-6 * scale:
            raise PreconditionError("embedding is not isometric to the metric")
    g1, g2 = extract_geometry(emb1), extract_geometry(emb2)
    dh = SymTensor2(sigma.grid, *(a - b for a, b in zip(
        g1.second_form.components(), g2.second_form.components())))
    support = (emb1.xyz * g1.normal).sum(0)
    return (calc.integrate(sigma, g1.mean_curvature)
            - calc.integrate(sigma, g2.mean_curvature),
            np.sum(calc.area_weights(sigma) * 2.0 * dh.det() / sigma.det() * support),
            max(np.max(np.abs(c)) for c in dh.components()),
            align_rigid(emb2.xyz, emb1.xyz, sigma.grid.quad_weights))


def mode_field(grid, ell, m, kind, amp):
    basis = grid.basis(max(ell, 2))
    coeffs = np.zeros(basis.n_modes)
    coeffs[basis.mode_index(ell, m, kind)] = amp
    return ScalarField(grid, basis.synthesize(coeffs))


def test_round_sphere_embedding(grid32):
    r = 2.0
    emb = WeylSolver(grid32).solve(Metric2.round(grid32, r))
    assert emb.residual < 1e-10
    radius = np.sqrt((emb.xyz ** 2).sum(0))
    assert_allclose(radius, r, atol=1e-9)
    geom = extract_geometry(emb)
    assert_allclose(geom.mean_curvature.values, 2.0 / r, atol=1e-9)
    assert_allclose(geom.lambda1.values, 1.0 / r, atol=1e-7)
    assert_allclose(geom.lambda2.values, 1.0 / r, atol=1e-7)


def test_ellipsoid_total_mean_curvature_vs_oracle(grid32, solver32):
    axes = (1.0, 1.0, 1.2)
    sigma = ellipsoid_metric(grid32, axes)
    emb = solver32.solve(sigma)
    geom = extract_geometry(emb)
    total = calc.integrate(sigma, geom.mean_curvature)
    oracle = ellipsoid_total_mean_curvature(axes, 4 * grid32.n_theta)
    assert abs(total - oracle) <= 1e-6 * abs(oracle)


def test_gauss_equation(grid32, solver32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.0, 1.2))
    geom = extract_geometry(solver32.solve(sigma))
    k_int = calc.gauss_curvature(sigma)
    assert_allclose(geom.lambda1.values * geom.lambda2.values,
                    k_int.values, atol=1e-7)


def test_tau_perturbed_embedding_two_resolutions():
    totals = []
    for n in (32, 48):
        grid = sphere_grid(n, 2 * n)
        tau = mode_field(grid, 1, 0, 0, 0.1)
        sigma = Metric2.round(grid, 1.0)
        sigma_hat = calc.metric_add_dtau(sigma, calc.gradient(sigma, tau))
        emb = WeylSolver(grid, 1e-9).solve(sigma_hat)
        assert emb.residual < 1e-8
        geom = extract_geometry(emb)
        assert geom.lambda2.values.min() > 0.0
        totals.append(calc.integrate(sigma_hat, geom.mean_curvature))
    assert abs(totals[0] - totals[1]) <= 1e-6 * abs(totals[1])


def test_position_laplacian_identity(grid32, solver32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.05, 1.2))
    emb = solver32.solve(sigma)
    geom = extract_geometry(emb)
    lap = np.stack([calc.laplacian(sigma, ScalarField(grid32, c)).values
                    for c in emb.xyz])
    norm = np.sqrt((lap * lap).sum(0))
    assert_allclose(norm, geom.mean_curvature.values, atol=1e-8)
    cosine = (lap * geom.normal).sum(0) / norm
    assert_allclose(cosine, -1.0, atol=1e-8)


def test_cut_embedding_against_revolution_oracle(grid48):
    # The bumped-cut metric has no closed-form embedding; cross-check the
    # spectral solve against an independent surface-of-revolution quadrature.
    from oracles import revolution_mean_curvature

    amp2, amp1 = 0.12, 0.05
    n20 = np.sqrt(5.0 / (16.0 * np.pi))
    n10 = np.sqrt(3.0 / (4.0 * np.pi))
    g_of_x = lambda x: amp2 * n20 * (3.0 * x * x - 1.0) + amp1 * n10 * x
    dg_dx = lambda x: amp2 * n20 * 6.0 * x + amp1 * n10 + 0.0 * x

    th, ph = grid48.nodes
    f = np.exp(g_of_x(np.cos(th)))
    sigma = Metric2(grid48, f * f, np.zeros(grid48.shape),
                    (f * np.sin(th)) ** 2)
    emb = WeylSolver(grid48, 1e-11).solve(sigma)
    geom = extract_geometry(emb)
    total = calc.integrate(sigma, geom.mean_curvature)

    th_fine, mean_h_fine, total_oracle = revolution_mean_curvature(g_of_x, dg_dx)
    assert abs(total - total_oracle) <= 1e-8 * abs(total_oracle)
    sampled = np.interp(grid48.theta, th_fine, mean_h_fine)
    assert np.max(np.abs(geom.mean_curvature.values
                         - sampled[:, None])) < 1e-7


def test_minkowski_identity(grid32, solver32):
    assert minkowski_identity_residual(
        solver32.solve(Metric2.round(grid32, 1.5))) < 1e-10
    assert minkowski_identity_residual(
        solver32.solve(ellipsoid_metric(grid32, (1.0, 1.0, 1.2)))) < 1e-7
    tau = mode_field(grid32, 1, 0, 0, 0.1)
    sigma = Metric2.round(grid32, 1.0)
    sigma_hat = calc.metric_add_dtau(sigma, calc.gradient(sigma, tau))
    assert minkowski_identity_residual(
        WeylSolver(grid32).solve(sigma_hat)) < 1e-6


def test_area_invariance_and_area_form_relation(grid32, solver32):
    sigma = Metric2.round(grid32, 1.0)
    tau = mode_field(grid32, 2, 1, 0, 0.08)
    sigma_hat = calc.metric_add_dtau(sigma, calc.gradient(sigma, tau))
    emb = solver32.solve(sigma_hat)
    induced = emb.induced_metric()
    a1 = calc.area(induced)
    a2 = calc.area(sigma_hat)
    assert abs(a1 - a2) <= 1e-9 * a2
    ratio = np.sqrt(induced.det() / sigma.det())
    dtau = calc.gradient(sigma, tau)
    w = np.sqrt(1.0 + calc.form_dot(sigma, dtau, dtau))
    assert_allclose(ratio, w, atol=1e-10)


def test_rigid_motion_equivariance(grid32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.1, 1.2))
    emb = WeylSolver(grid32).solve(sigma)
    k = 6
    rolled = Metric2(grid32, np.roll(sigma.tt, k, axis=1),
                     np.roll(sigma.tp, k, axis=1),
                     np.roll(sigma.pp, k, axis=1))
    emb_roll = WeylSolver(grid32).solve(rolled)
    back = np.roll(emb_roll.xyz, -k, axis=2)
    assert align_rigid(back, emb.xyz, grid32.quad_weights) < 1e-7


def test_herglotz_uniqueness(grid32, lightcone32, monkeypatch):
    sigma = lightcone32.data.sigma
    emb1 = WeylSolver(grid32).solve(sigma)
    # Same metric from an independent degree path.
    with monkeypatch.context() as patch:
        patch.setattr(embedding, "L_START", 6)
        emb2 = WeylSolver(grid32).solve(sigma)
    d_int_h, _, max_dh, rms = herglotz_report(sigma, emb1, emb2)
    assert abs(d_int_h) < 1e-7
    assert max_dh < 1e-5
    assert rms < 1e-6

    ang = 0.6
    rot = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                    [np.sin(ang), np.cos(ang), 0.0],
                    [0.0, 0.0, 1.0]])
    emb_rot = EmbeddingR3(grid32, np.einsum("ij,jtk->itk", rot, emb1.xyz),
                          emb1.residual, emb1.l_max)
    d_int_h, rhs, max_dh, _ = herglotz_report(sigma, emb1, emb_rot)
    assert abs(d_int_h) < 1e-8
    assert abs(rhs) < 1e-8
    assert max_dh < 1e-8

    round_emb = WeylSolver(grid32).solve(Metric2.round(grid32, 1.0))
    with pytest.raises(PreconditionError):
        herglotz_report(sigma, emb1, round_emb)


def test_graph_embedding_reduces_at_zero_tau(grid32):
    sigma = Metric2.round(grid32, 4.0)
    graph = graph_embedding(sigma, ScalarField.constant(grid32, 0.0),
                            WeylSolver(grid32))
    geom = extract_geometry(graph.space)
    lap_x = calc.coordinate_laplacian(sigma, graph.space.tangents)
    assert_allclose(np.sqrt((lap_x * lap_x).sum(0)),
                    geom.mean_curvature.values, atol=1e-9)


def test_graph_embedding_induces_sigma_and_time_component(grid32):
    sigma = Metric2.round(grid32, 4.0)
    tau = mode_field(grid32, 1, 0, 0, 0.1)
    graph = graph_embedding(sigma, tau, WeylSolver(grid32))
    # Induced Lorentz metric <dX, dX> - dtau (x) dtau of X = (tau, space).
    ind = graph.space.induced_metric()
    a_t, a_p = graph.dtau.a_theta, graph.dtau.a_phi
    lorentz = (ind.tt - a_t * a_t - sigma.tt, ind.tp - a_t * a_p - sigma.tp,
               ind.pp - a_p * a_p - sigma.pp)
    assert embedding._max_rel(lorentz, sigma.components()) < 1e-8
    lap_tau = calc.laplacian(sigma, tau)
    assert_allclose(graph.lap_tau, lap_tau.values, atol=1e-10)


def test_nonconvex_precondition_names_node(grid32):
    th, _ = grid32.nodes
    waist = Metric2(grid32, np.ones(grid32.shape), np.zeros(grid32.shape),
                    (np.sin(th) * (1.0 + 0.9 * np.cos(th) ** 2)) ** 2)
    with pytest.raises(PreconditionError) as err:
        WeylSolver(grid32).solve(waist)
    assert err.value.node is not None


def test_stall_at_the_cap_carries_last_iterate(grid32, lightcone32):
    solver = WeylSolver(grid32, tol=1e-12)
    solver.l_cap = 2
    with pytest.raises(ConvergenceError) as err:
        solver.solve(lightcone32.data.sigma)
    diagnostics = err.value.diagnostics
    iterate = diagnostics["last_iterate"]
    assert isinstance(iterate, EmbeddingR3)
    assert iterate.l_max == diagnostics["l_cap"] == 2
    assert diagnostics["floor"] == iterate.residual > 1e-12


@pytest.fixture
def cho_calls(monkeypatch):
    """List that grows by one entry per Cholesky factorization: the order
    of the factored matrix."""
    import scipy.linalg

    calls = []
    original = scipy.linalg.cho_factor

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return original(matrix, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    return calls


def spot_cut_data(n_theta, height, steepness):
    """Surface data of the light-cone cut t = |x| = f on an n_theta grid,
    with f = exp(height exp(steepness (cos(theta) - 1)))."""
    grid = sphere_grid(n_theta, 2 * n_theta)
    f = np.exp(height * np.exp(steepness * (np.cos(grid.nodes[0]) - 1.0)))
    data, _ = surface_data_from_embedding(
        grid, np.concatenate([f[None], f * grid.unit_sphere]))
    return data


def test_warm_solves_reuse_the_factorization(grid32, cho_calls):
    solver = WeylSolver(grid32, tol=1e-10)
    factorizations, warm = [], []
    for axes in ((1.0, 1.0, 1.2), (1.0, 1.0, 1.2), (1.0, 1.0, 1.201)):
        before = len(cho_calls)
        emb = solver.solve(ellipsoid_metric(grid32, axes))
        assert emb.residual < 1e-10
        factorizations.append(len(cho_calls) - before)
        warm.append(emb.warm_start)
    # A cold solve, then a warm start already at its target, then a nearby
    # metric whose Gauss-Newton steps are preconditioned by the held factor.
    assert factorizations == [1, 0, 0]
    assert warm == [False, True, True]


def test_unrelated_metric_starts_from_the_round_sphere(grid32, cho_calls):
    # After the spot cut, which ends at the cap L=21, the round sphere fits
    # an ellipsoid better than the cut's iterate does: the solve is cold, at
    # the starting degree, and costs what it costs a fresh solver.
    solver = WeylSolver(grid32, tol=1e-9)
    assert solver.solve(spot_cut_data(32, 0.1, 4.0).sigma).l_max == 21
    sigma = ellipsoid_metric(grid32, (1.0, 1.0, 1.2))
    before = len(cho_calls)
    emb = solver.solve(sigma)
    shared = len(cho_calls) - before
    assert emb.residual < 1e-9
    assert emb.l_max == embedding.L_START
    assert not emb.warm_start
    assert type(emb.residual) is float

    before = len(cho_calls)
    WeylSolver(grid32, tol=1e-9).solve(sigma)
    assert shared == len(cho_calls) - before


def test_gauss_newton_stops_at_the_truncation_floor(cho_calls):
    # The stream opener cut needs degree 21, the cap at n=32. L=10 ends at
    # its truncation floor instead of taking steps that gain only rounding
    # noise, and the decay of its coefficients points past L=18 straight to
    # the cap: one factorization, at L=10. The cap is above L_P, so no
    # factor preconditions its steps.
    sigma = spot_cut_data(32, 0.1, 4.0).sigma
    emb = WeylSolver(sigma.grid, tol=1e-9).solve(sigma)
    assert emb.l_max == 21
    assert emb.residual < 1e-9
    assert cho_calls == [360]


def test_smooth_cut_climbs_through_the_factored_degree(grid32, cho_calls):
    # A smooth cut's coefficients at the L=10 floor predict a degree below
    # L_P, so the solve goes to L + 8 = 18, where a factor preconditions
    # its steps, and not past it.
    sigma = minkowski_surface_data(
        MinkowskiSurfaceSpec("lightcone_cut", log_modes={(2, 0, 0): 0.2}),
        grid32).data.sigma
    emb = WeylSolver(grid32, tol=1e-10).solve(sigma)
    assert emb.l_max == 18
    assert emb.residual < 1e-10
    assert cho_calls == [360, 1080]


def test_next_degree_follows_the_coefficient_decay(grid48):
    solver = WeylSolver(grid48, tol=1e-10)
    basis = grid48.basis(10, lmin=1)
    ells = basis.degrees
    # Degree l has 2l + 1 modes in each of 3 coordinates; its norm is e^(-l).
    decaying = np.exp(-ells) / np.sqrt(3.0 * (2.0 * ells + 1.0)) * np.ones(
        (3, 1))
    # Floor 1e-6 at L=10: reaching tol/10 = 1e-11 takes ln(1e5) = 11.5 more
    # degrees, so L=22.
    assert solver._next_degree(basis, decaying, 1e-6) == 22
    # Symmetric surfaces leave every odd degree zero: the envelope bridges
    # them and predicts the same degree.
    even = np.where(ells % 2 == 0, decaying, 0.0)
    assert solver._next_degree(basis, even, 1e-6) == 22
    # A flat spectrum shows no decay, and a floor already below tol/10
    # needs none: both grow by 8.
    assert solver._next_degree(basis, np.ones((3, basis.n_modes)), 1e-6) == 18
    assert solver._next_degree(basis, decaying, 1e-12) == 18
    # The prediction never passes the cap.
    assert solver._next_degree(basis, decaying, 1e3) == solver.l_cap


@pytest.fixture
def product_calls(monkeypatch):
    """List that grows by one entry per matrix-free normal-matrix product."""
    calls = []
    original = WeylSolver._normal_product

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(WeylSolver, "_normal_product", counted)
    return calls


def test_krylov_iterations_count_the_products(grid32, product_calls):
    # Every step is a conjugate-gradient solve: at an ellipsoid's degree
    # L=10, which is factored, as at the opener cut's last degree L=21,
    # which is above L_P.
    emb = WeylSolver(grid32, tol=1e-10).solve(
        ellipsoid_metric(grid32, (1.0, 1.0, 1.2)))
    assert emb.l_max <= embedding.L_P
    assert type(emb.krylov_iterations) is int
    assert emb.krylov_iterations == len(product_calls) > 0

    product_calls.clear()
    sigma = spot_cut_data(32, 0.1, 4.0).sigma
    emb = WeylSolver(sigma.grid, tol=1e-9).solve(sigma)
    assert emb.l_max > embedding.L_P
    assert type(emb.krylov_iterations) is int
    assert emb.krylov_iterations == len(product_calls) > 0


def test_nearby_warm_solve_steps_on_the_held_factor(grid32, cho_calls,
                                                   monkeypatch):
    # The cold solve leaves its factor held. The warm solve of a nearby
    # metric is preconditioned by it: no step needs more than K_REFACTOR
    # products, so none factors.
    solver = WeylSolver(grid32, tol=1e-10)
    solver.solve(ellipsoid_metric(grid32, (1.0, 1.0, 1.2)))
    products = []
    original = WeylSolver._krylov_step

    def counted(self, *args, **kwargs):
        before = self._krylov_iterations
        step = original(self, *args, **kwargs)
        products.append(self._krylov_iterations - before)
        return step
    monkeypatch.setattr(WeylSolver, "_krylov_step", counted)
    before = len(cho_calls)
    emb = solver.solve(ellipsoid_metric(grid32, (1.0, 1.0, 1.25)))
    assert emb.warm_start
    assert emb.residual < 1e-10
    assert len(cho_calls) == before
    assert 0 < len(products) and max(products) <= embedding.K_REFACTOR


def test_sharp_cut_at_the_cap_against_revolution_oracle(cho_calls):
    # The sharp_cut48 surface goes from its floor at L=10 straight to the
    # degree its coefficients predict, above L_P: the cap L=32 at n=48, and
    # L=33 below the cap at n=72. Its steps there are matrix-free, so the
    # only normal matrix formed is the one at L=10.
    from oracles import revolution_mean_curvature

    height, steepness = 0.2, 6.0
    # The cut's metric is f^2 times the round one, f = exp(g(cos(theta))).
    g_of_x = lambda x: height * np.exp(steepness * (x - 1.0))
    dg_dx = lambda x: steepness * g_of_x(x)
    _, _, total_oracle = revolution_mean_curvature(g_of_x, dg_dx)
    for n_theta, l_max in ((48, 32), (72, 33)):
        cho_calls.clear()
        sigma = spot_cut_data(n_theta, height, steepness).sigma
        emb = WeylSolver(sigma.grid, tol=1e-10).solve(sigma)
        assert emb.l_max == l_max
        assert emb.residual < 1e-10
        total = calc.integrate(sigma, extract_geometry(emb).mean_curvature)
        assert abs(total - total_oracle) <= 1e-12 * abs(total_oracle)
        assert cho_calls == [360]


def test_spot_cut_floor_at_the_cap_n40():
    # At n=40 the cap L=26 is above L_P: the matrix-free steps must find the
    # same residual floor that factored steps found there.
    sigma = spot_cut_data(40, 0.2, 6.0).sigma
    with pytest.raises(ConvergenceError) as err:
        WeylSolver(sigma.grid, tol=1e-10).solve(sigma)
    diagnostics = err.value.diagnostics
    assert diagnostics["l_cap"] == diagnostics["last_iterate"].l_max == 26
    assert abs(diagnostics["floor"] / 7.2357e-10 - 1.0) < 0.01
    assert diagnostics["krylov_iterations"] > 0


@pytest.mark.parametrize("spec, l_max, factorizations", [
    (MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 3.0)), 10, 6),
    (MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 0.35)), 10, 6),
    (MinkowskiSurfaceSpec("lightcone_cut", log_modes={(2, 0, 0): 0.4}), 21, 10),
])
def test_cold_solve_reaches_far_from_round_metrics(grid32, cho_calls, spec,
                                                    l_max, factorizations):
    # Far from round, yet reached by Gauss-Newton from the round sphere of
    # the same area, growing only the degree.
    sigma = minkowski_surface_data(spec, grid32).data.sigma
    emb = WeylSolver(grid32, tol=1e-10).solve(sigma)
    assert emb.residual < 1e-10
    assert emb.l_max == l_max
    assert len(cho_calls) <= factorizations


def test_stall_at_the_degree_cap_fails_fast(cho_calls):
    # At n=24 the spot cut's residual floor at the cap L=16 is far above
    # 1e-10: the solve must give up at the first floor there.
    sigma = spot_cut_data(24, 0.2, 6.0).sigma
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as err:
        WeylSolver(sigma.grid, tol=1e-10).solve(sigma)
    seconds = time.perf_counter() - start
    diagnostics = err.value.diagnostics
    assert diagnostics["l_cap"] == diagnostics["last_iterate"].l_max == 16
    assert diagnostics["floor"] > 1e-10
    assert len(cho_calls) <= 10
    assert seconds < 3.0


def test_degenerate_tangent_plane(grid32):
    flat = EmbeddingR3(grid32, np.ones((3,) + grid32.shape), 0.0, 1)
    with pytest.raises(GeometryError):
        extract_geometry(flat)


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n_theta", [16, 24])
@pytest.mark.parametrize("lmin", [0, 1])
def test_factored_kernels_match_dense_products(n_theta, lmin):
    grid = sphere_grid(n_theta, 2 * n_theta)
    solver = WeylSolver(grid)
    th, ph = grid.nodes
    # No symmetry axis: the azimuthal sums see every order.
    radius = (1.0 + 0.1 * np.sin(th) * np.cos(ph)
              + 0.08 * np.sin(th) ** 2 * np.sin(2.0 * ph) + 0.05 * np.cos(th))
    surface = radius * grid.unit_sphere
    target = np.stack(Metric2.round(grid, 1.0).components())
    weights = (solver._w_tt, solver._w_tp, solver._w_pp)
    for lmax in range(max(lmin, 1), solver.l_cap + 1):
        basis = grid.basis(lmax, lmin)
        flat = surface.reshape(3, -1)
        dense_coeffs = (basis.values.T @ (grid.quad_weights.ravel() * flat).T).T
        coeffs = basis.analyze(surface)
        assert _relative(coeffs, dense_coeffs) < 1e-13
        fields = solver._fields(basis, coeffs)
        for got, dense in zip(fields, (basis.values, basis.d_theta, basis.d_phi)):
            assert _relative(got, (dense @ coeffs.T).T.reshape(surface.shape)) < 1e-13
        x, xt, xp = fields

        res = solver._residual(xt, xp, target)
        u_tt, u_tp, u_pp = (w * r for w, r in zip(weights, res))
        a = (2.0 * u_tt * xt + u_tp * xp).reshape(3, -1)
        b = (u_tp * xt + 2.0 * u_pp * xp).reshape(3, -1)
        dense_grad = (basis.d_theta.T @ a.T + basis.d_phi.T @ b.T).T.ravel()
        assert _relative(solver._gradient(basis, xt, xp, res), dense_grad) < 1e-13

        # x = 0 zeroes the rotation-gauge rows.
        v = np.random.default_rng(lmax).standard_normal(3 * basis.n_modes)
        for gauge in (np.zeros_like(x), x):
            dense = dense_normal_matrix(basis, gauge, xt, xp, *weights)
            assert _relative(solver._normal_matrix(basis, gauge, xt, xp),
                             dense) < 1e-13
            diagonal, gamma2, rows = solver._normal_diagonal(basis, gauge, xt, xp)
            assert _relative(diagonal, np.diag(dense)) < 1e-12
            product = solver._normal_product(basis, xt, xp, gamma2, rows, v)
            assert _relative(product, dense @ v) < 1e-12
