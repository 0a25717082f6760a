import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_band_limited
from oracles import ellipsoid_area, ellipsoid_gauss_curvature
from qlm import calculus as calc
from qlm.embedding import WeylSolver
from qlm.errors import (GridMismatchError, InvalidFieldError,
                        InvalidMetricError)
from qlm.fields import Metric2, OneForm, ScalarField, worst_node
from qlm.grid import sphere_grid
from qlm.harmonics import legendre_functions, real_mode_table


def ellipsoid_metric(grid, axes):
    a, b, c = axes
    th, ph = grid.nodes
    s_t = np.stack([a * np.cos(th) * np.cos(ph), b * np.cos(th) * np.sin(ph),
                    -c * np.sin(th)])
    s_p = np.stack([-a * np.sin(th) * np.sin(ph), b * np.sin(th) * np.cos(ph),
                    0.0 * th])
    return Metric2(grid, (s_t * s_t).sum(0), (s_t * s_p).sum(0),
                   (s_p * s_p).sum(0))


def test_grid_quadrature_of_one():
    for n in (8, 24, 48):
        grid = sphere_grid(n, 2 * n)
        assert abs(grid.quad_weights.sum() - 4 * np.pi) < 1e-12 * 4 * np.pi


def test_grid_shape_constraints():
    with pytest.raises(InvalidFieldError):
        sphere_grid(3, 8)
    with pytest.raises(InvalidFieldError):
        sphere_grid(8, 7)
    with pytest.raises(InvalidFieldError):
        sphere_grid(8, 2)


def test_sphere_grid_interns_positional_calls_only():
    assert sphere_grid(16, 32) is sphere_grid(16, 32)
    # A keyword call would intern a second grid that same_grid rejects.
    with pytest.raises(TypeError):
        sphere_grid(n_theta=16, n_phi=32)


def test_stacked_derivatives_match_per_component_calls():
    grid = sphere_grid(16, 32)
    stack = np.random.default_rng(4).standard_normal((2, 3, 16, 32))
    for rank in (0, 1, 2):
        single = np.array([[grid.dtheta(c, rank) for c in row] for row in stack])
        assert np.array_equal(grid.dtheta(stack, rank), single)
    single = np.array([[grid.dphi(c) for c in row] for row in stack])
    assert np.array_equal(grid.dphi(stack), single)


def test_max_degree_is_the_basis_support_on_a_longitude_limited_grid():
    # 16 x 20 resolves degree 15 in colatitude but only order 9 in longitude.
    grid = sphere_grid(16, 20)
    assert grid.max_degree == 9
    assert grid.basis(grid.max_degree).lmax == grid.max_degree
    with pytest.raises(InvalidFieldError):
        grid.basis(grid.max_degree + 1)
    assert WeylSolver(grid).l_cap <= grid.max_degree


def test_integrate_round_spheres(grid32):
    one = ScalarField.constant(grid32, 1.0)
    assert abs(calc.integrate(Metric2.round(grid32, 1.0), one) - 4 * np.pi) < 1e-12
    r = 3.7
    assert_allclose(calc.integrate(Metric2.round(grid32, r), one),
                    4 * np.pi * r * r, rtol=1e-13)


def test_integrate_ellipsoid_vs_parametric_oracle(grid32):
    axes = (1.0, 1.0, 1.2)
    sigma = ellipsoid_metric(grid32, axes)
    area = calc.area(sigma)
    assert_allclose(area, ellipsoid_area(axes, 4 * grid32.n_theta), rtol=1e-8)


def test_integrate_grid_mismatch(grid32):
    other = sphere_grid(16, 32)
    with pytest.raises(GridMismatchError):
        calc.integrate(Metric2.round(grid32, 1.0), ScalarField.constant(other, 1.0))


def test_gradient_of_constant(grid32):
    sigma = Metric2.round(grid32, 1.0)
    df = calc.gradient(sigma, ScalarField.constant(grid32, 5.0))
    assert np.max(np.abs(df.a_theta)) < 1e-10
    assert np.max(np.abs(df.a_phi)) < 1e-10


def test_gradient_norm_of_cos_theta(grid32):
    th, _ = grid32.nodes
    sigma = Metric2.round(grid32, 1.0)
    df = calc.gradient(sigma, ScalarField(grid32, np.cos(th)))
    assert_allclose(calc.form_dot(sigma, df, df), np.sin(th) ** 2, atol=1e-10)


def test_gradient_raised_round(grid32):
    # On the unit round metric, raising df multiplies a_phi by 1/sin^2, so
    # |df|^2 = a_theta^2 + a_phi^2 / sin^2.
    th, ph = grid32.nodes
    sigma = Metric2.round(grid32, 1.0)
    df = calc.gradient(sigma, ScalarField(grid32, np.sin(th) * np.sin(ph)))
    assert_allclose(calc.form_dot(sigma, df, df),
                    df.a_theta ** 2 + df.a_phi ** 2 / np.sin(th) ** 2,
                    atol=1e-12)


def test_adjointness_random_fields(grid48):
    sigma = ellipsoid_metric(grid48, (1.0, 1.05, 1.2))
    f, g1, g2 = random_band_limited(grid48, 3, lmax=10, seed=11)
    omega = (calc.gradient(sigma, g1)
             + calc.hodge_star(sigma, calc.gradient(sigma, g2)))
    lhs = calc.integrate(sigma, f * calc.divergence(sigma, omega))
    rhs = -calc.integrate(sigma, ScalarField(
        grid48, calc.form_dot(sigma, calc.gradient(sigma, f), omega)))
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_divergence_of_zero_and_exact_forms(grid32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.0, 1.2))
    assert np.max(np.abs(calc.divergence(sigma, OneForm.zero(grid32)).values)) == 0.0
    (f,) = random_band_limited(grid32, 1, lmax=8, seed=2)
    div_df = calc.divergence(sigma, calc.gradient(sigma, f))
    lap = calc.laplacian(sigma, f)
    assert_allclose(div_df.values, lap.values, atol=1e-10)


def test_divergence_theorem(grid32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.1, 1.25))
    g1, g2 = random_band_limited(grid32, 2, lmax=9, seed=5)
    omega = (calc.gradient(sigma, g1)
             + calc.hodge_star(sigma, calc.gradient(sigma, g2)))
    assert abs(calc.integrate(sigma, calc.divergence(sigma, omega))) < 1e-10


def test_laplacian_eigenfunctions(grid32):
    basis = grid32.basis(6)
    sigma = Metric2.round(grid32, 1.0)
    for ell, m, kind in ((1, 0, 0), (2, 1, 0), (3, 3, 1), (5, 2, 0)):
        coeffs = np.zeros(basis.n_modes)
        coeffs[basis.mode_index(ell, m, kind)] = 1.0
        f = ScalarField(grid32, basis.synthesize(coeffs))
        lap = calc.laplacian(sigma, f)
        assert_allclose(lap.values, -ell * (ell + 1) * f.values, atol=1e-9)


def test_laplacian_radius_scaling(grid32):
    r = 2.5
    basis = grid32.basis(2)
    coeffs = np.zeros(basis.n_modes)
    coeffs[basis.mode_index(1, 0, 0)] = 1.0
    f = ScalarField(grid32, basis.synthesize(coeffs))
    lap = calc.laplacian(Metric2.round(grid32, r), f)
    assert_allclose(lap.values, -(2.0 / r ** 2) * f.values, atol=1e-12)


def test_laplacian_is_divergence_of_gradient_same_path(grid32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.0, 1.3))
    (f,) = random_band_limited(grid32, 1, lmax=7, seed=9)
    a = calc.laplacian(sigma, f).values
    b = calc.divergence(sigma, calc.gradient(sigma, f)).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_gauss_curvature_round(grid32):
    for r in (1.0, 4.0):
        k = calc.gauss_curvature(Metric2.round(grid32, r))
        assert_allclose(k.values, 1.0 / r ** 2, atol=1e-9)


def test_gauss_curvature_ellipsoid_pointwise(grid32):
    axes = (1.0, 1.0, 1.2)
    sigma = ellipsoid_metric(grid32, axes)
    th, ph = grid32.nodes
    assert_allclose(calc.gauss_curvature(sigma).values,
                    ellipsoid_gauss_curvature(axes, th, ph), atol=1e-7)


def test_gauss_bonnet(grid32, lightcone32, flat_ellipsoid32):
    for sigma in (Metric2.round(grid32, 2.0),
                  ellipsoid_metric(grid32, (1.0, 1.1, 1.2)),
                  lightcone32.data.sigma,
                  flat_ellipsoid32.data.sigma):
        total = calc.integrate(sigma, calc.gauss_curvature(sigma))
        assert abs(total - 4 * np.pi) < 1e-7


def test_metric_add_dtau(grid32):
    sigma = Metric2.round(grid32, 1.0)
    th, _ = grid32.nodes
    same = calc.metric_add_dtau(
        sigma, calc.gradient(sigma, ScalarField.constant(grid32, 2.0)))
    assert_allclose(same.tt, sigma.tt, atol=1e-13)
    assert_allclose(same.pp, sigma.pp, atol=1e-13)

    tau = ScalarField(grid32, 0.1 * np.cos(th))
    dtau = calc.gradient(sigma, tau)
    hat = calc.metric_add_dtau(sigma, dtau)
    k_hat = calc.gauss_curvature(hat)
    assert k_hat.values.min() > 0.0

    det_expected = sigma.det() * (1.0 + calc.form_dot(sigma, dtau, dtau))
    assert_allclose(hat.det(), det_expected, atol=1e-12)


def test_hessian_trace_equals_laplacian(grid32):
    sigma = ellipsoid_metric(grid32, (1.0, 1.05, 1.15))
    (f,) = random_band_limited(grid32, 1, lmax=8, seed=3)
    hess = calc.covariant_hessian(sigma, f)
    itt, itp, ipp = sigma.inverse_components()
    trace = itt * hess.tt + 2 * itp * hess.tp + ipp * hess.pp
    assert_allclose(trace, calc.laplacian(sigma, f).values, atol=1e-9)


def per_column_basis(grid, lmax, lmin):
    """(values, d_theta, d_phi) of the real harmonic basis, one outer product
    of a Legendre row and an azimuthal factor per column."""
    phi = 2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    norm = 1.0 / np.sqrt(np.pi)
    columns = []
    for ell, m, kind in real_mode_table(lmax, lmin):
        p, dp = (t[ell - m] for t in legendre_functions(m, lmax, grid.x))
        if m == 0:
            azim, dazim = np.full_like(phi, 1.0 / np.sqrt(2.0 * np.pi)), 0.0 * phi
        elif kind == 0:
            azim, dazim = np.cos(m * phi) * norm, -m * np.sin(m * phi) * norm
        else:
            azim, dazim = np.sin(m * phi) * norm, m * np.cos(m * phi) * norm
        columns.append([np.outer(a, b).ravel()
                        for a, b in ((p, azim), (dp, azim), (p, dazim))])
    return [np.stack(c, axis=1) for c in zip(*columns)]


def test_basis_matches_per_column_formula():
    grid = sphere_grid(16, 32)
    for lmin in (0, 1):
        basis = grid.basis(15, lmin)
        for got, want in zip((basis.values, basis.d_theta, basis.d_phi),
                             per_column_basis(grid, 15, lmin)):
            assert np.array_equal(got, want)
    with pytest.raises(InvalidFieldError):
        grid.basis(-1)


@pytest.mark.parametrize("n_theta, n_phi", [(16, 32), (17, 36), (12, 30),
                                            (16, 20)])
def test_padded_kernels_match_dense_and_are_adjoint(n_theta, n_phi):
    # Odd and non-2:1 grids, degrees up to the full support, 0-2 leading
    # axes: synthesize is the dense node product and project its adjoint.
    grid = sphere_grid(n_theta, n_phi)
    support = grid.max_degree
    rng = np.random.default_rng(n_theta * n_phi)
    for lmin in (0, 1):
        for lmax in (max(lmin, 2), support // 2, support):
            basis = grid.basis(lmax, lmin)
            dense = {None: basis.values, "theta": basis.d_theta,
                     "phi": basis.d_phi}
            for lead in ((), (3,), (2, 3)):
                coeffs = rng.standard_normal(lead + (basis.n_modes,))
                values = rng.standard_normal(lead + grid.shape)
                for derivative, matrix in dense.items():
                    got = basis.synthesize(coeffs, derivative)
                    want = (coeffs @ matrix.T).reshape(got.shape)
                    assert got.shape == lead + grid.shape
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    projected = basis.project(values, derivative)
                    assert projected.shape == coeffs.shape
                    # Relative to the sum of |terms|, the scale of the
                    # rounding in any order of summation.
                    terms = got * values
                    right = np.sum(coeffs * projected)
                    assert abs(terms.sum() - right) <= 1e-13 * np.abs(terms).sum()


def test_field_validation(grid32):
    with pytest.raises(InvalidFieldError):
        ScalarField(grid32, np.zeros((3, 3)))
    bad = np.zeros(grid32.shape)
    bad[0, 0] = np.nan
    with pytest.raises(InvalidFieldError):
        ScalarField(grid32, bad)
    with pytest.raises(InvalidMetricError):
        Metric2(grid32, -np.ones(grid32.shape), np.zeros(grid32.shape),
                np.ones(grid32.shape))
    bad_form = np.zeros(grid32.shape)
    bad_form[1, 1] = np.inf
    with pytest.raises(InvalidFieldError):
        OneForm(grid32, bad_form, np.zeros(grid32.shape))


def test_non_two_to_one_grid_aspect():
    # Nothing in the calculus depends on the default 2:1 longitude ratio.
    grid = sphere_grid(20, 56)
    sigma = ellipsoid_metric(grid, (1.0, 1.05, 1.2))
    total = calc.integrate(sigma, calc.gauss_curvature(sigma))
    assert abs(total - 4 * np.pi) < 1e-8
    basis = grid.basis(6)
    coeffs = np.zeros(basis.n_modes)
    coeffs[basis.mode_index(3, 2, 1)] = 1.0
    f = ScalarField(grid, basis.synthesize(coeffs))
    lap = calc.laplacian(Metric2.round(grid, 1.0), f)
    assert np.max(np.abs(lap.values + 12.0 * f.values)) < 1e-9


def test_worst_node_is_a_pair_of_python_ints():
    node = worst_node(np.array([[3.0, 2.0], [1.0, 4.0]]))
    assert node == (1, 0)
    assert all(type(i) is int for i in node)
