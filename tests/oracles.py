"""Independent oracles used by the test suite.

Everything here is deliberately built without the package's calculus or
embedding machinery: parametric-surface quantities come from hand-derived
closed-form derivatives on a quadrature grid constructed directly from
numpy's Gauss-Legendre nodes, and the axisymmetric Jang evaluator computes
its Christoffel symbols by finite differences of the metric components.
The one exception is :func:`resolving_hessian`, the package's second
variation computed the slow way: every probe re-solves the Weyl problem.
"""

import numpy as np


def quad_grid(n_theta):
    """Plain Gauss-Legendre x uniform-phi quadrature, independent of the package."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    n_phi = 2 * n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    weights = np.repeat(w[:, None] * (2.0 * np.pi / n_phi), n_phi, axis=1)
    return th, ph, weights


def ellipsoid_fundamental_forms(axes, th, ph):
    """First/second fundamental forms of an ellipsoid, closed-form derivatives.

    Second-form sign convention: positive for the outward normal, so the
    mean curvature of a round sphere of radius r is +2/r.
    """
    a, b, c = axes
    s_t = np.stack([a * np.cos(th) * np.cos(ph), b * np.cos(th) * np.sin(ph),
                    -c * np.sin(th)])
    s_p = np.stack([-a * np.sin(th) * np.sin(ph), b * np.sin(th) * np.cos(ph),
                    np.zeros_like(th)])
    s_tt = np.stack([-a * np.sin(th) * np.cos(ph), -b * np.sin(th) * np.sin(ph),
                     -c * np.cos(th)])
    s_tp = np.stack([-a * np.cos(th) * np.sin(ph), b * np.cos(th) * np.cos(ph),
                     np.zeros_like(th)])
    s_pp = np.stack([-a * np.sin(th) * np.cos(ph), -b * np.sin(th) * np.sin(ph),
                     np.zeros_like(th)])
    e = (s_t * s_t).sum(0)
    f = (s_t * s_p).sum(0)
    g = (s_p * s_p).sum(0)
    raw = np.cross(s_t, s_p, axis=0)
    nu = raw / np.sqrt((raw * raw).sum(0))
    ll = -(s_tt * nu).sum(0)
    mm = -(s_tp * nu).sum(0)
    nn = -(s_pp * nu).sum(0)
    return e, f, g, ll, mm, nn


def ellipsoid_area(axes, n_theta=192):
    th, ph, w = quad_grid(n_theta)
    e, f, g, *_ = ellipsoid_fundamental_forms(axes, th, ph)
    jac = np.sqrt(e * g - f * f) / np.sin(th)
    return float((w * jac).sum())


def ellipsoid_total_mean_curvature(axes, n_theta=192):
    th, ph, w = quad_grid(n_theta)
    e, f, g, ll, mm, nn = ellipsoid_fundamental_forms(axes, th, ph)
    mean_h = (g * ll - 2.0 * f * mm + e * nn) / (e * g - f * f)
    jac = np.sqrt(e * g - f * f) / np.sin(th)
    return float((w * mean_h * jac).sum())


def ellipsoid_gauss_curvature(axes, th, ph):
    e, f, g, ll, mm, nn = ellipsoid_fundamental_forms(axes, th, ph)
    return (ll * nn - mm * mm) / (e * g - f * f)


def ellipsoid_mean_curvature(axes, th, ph):
    e, f, g, ll, mm, nn = ellipsoid_fundamental_forms(axes, th, ph)
    return (g * ll - 2.0 * f * mm + e * nn) / (e * g - f * f)


def revolution_mean_curvature(g_of_x, dg_dx, n_fine=160000):
    """Mean curvature of the embedded metric exp(2 g(cos theta)) * round.

    Independent surface-of-revolution construction: for a zonal conformal
    factor the embedding is (rho(theta) cos phi, rho sin phi, z(theta)) with
    rho = f sin(theta) and z' = sin(theta) sqrt(q), where
    q = f^2 - f'^2 + 2 f^2 g'(x) cos(theta) stays positive for convex
    metrics (the factorization avoids the pole cancellation in f^2 - rho'^2).
    Returns (theta grid, mean curvature, total mean curvature integral): the
    grid and curvature at 2 n_fine nodes, and the total Richardson-
    extrapolated from n_fine and 2 n_fine nodes. Each total is second order
    in the node spacing, so the extrapolated one is fourth order.
    """
    _, _, coarse = _revolution_profile(g_of_x, dg_dx, n_fine)
    th, mean_h, fine = _revolution_profile(g_of_x, dg_dx, 2 * n_fine)
    return th, mean_h, fine + (fine - coarse) / 3.0


def _revolution_profile(g_of_x, dg_dx, n_fine):
    """``revolution_mean_curvature`` on one grid of n_fine nodes, without
    extrapolation."""
    th = np.linspace(1e-7, np.pi - 1e-7, n_fine)
    x = np.cos(th)
    f = np.exp(g_of_x(x))
    fp = -np.sin(th) * f * dg_dx(x)          # df / dtheta
    rho = f * np.sin(th)
    rho_p = fp * np.sin(th) + f * np.cos(th)
    q = f * f - fp * fp + 2.0 * f * f * dg_dx(x) * np.cos(th)
    assert q.min() > 0, "metric not convex enough for the revolution oracle"
    z_p = np.sin(th) * np.sqrt(q)

    h = th[1] - th[0]
    rho_pp = np.gradient(rho_p, h, edge_order=2)
    z_pp = np.gradient(z_p, h, edge_order=2)
    e_s = rho_p ** 2 + z_p ** 2
    assert np.max(np.abs(e_s - f * f)) < 1e-10 * np.max(f * f)
    h_tt = (z_pp * rho_p - rho_pp * z_p) / np.sqrt(e_s)
    mean_h = h_tt / e_s + z_p / (rho * np.sqrt(e_s))
    total = 2.0 * np.pi * np.trapezoid(mean_h * rho * np.sqrt(e_s), th)
    return th, mean_h, float(total)


def fd_jang_residual_3d(data, f, fp, r, theta, h=1e-4):
    """Jang-operator residual from the full 3D expression, axisymmetric grid.

    Metric diag(g_rr(r), r^2, r^2 sin^2 theta) with radial f. Christoffel
    symbols are formed from central finite differences of the metric
    components in (r, theta); nothing is taken from the hand-derived radial
    reduction.
    """

    def metric_diag(rr, th):
        return np.array([float(data.g_rr(rr)),
                         rr ** 2,
                         rr ** 2 * np.sin(th) ** 2])

    g_here = metric_diag(r, theta)
    g_inv = 1.0 / g_here

    # dg[k][i] = d g_ii / d coord_k with coords (r, theta); phi derivatives vanish.
    dg = np.zeros((2, 3))
    dg[0] = (metric_diag(r + h, theta) - metric_diag(r - h, theta)) / (2 * h)
    dg[1] = (metric_diag(r, theta + h) - metric_diag(r, theta - h)) / (2 * h)

    # Christoffels for a diagonal metric: Gamma^k_ij.
    gamma = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                term = 0.0
                if j == k and i < 2:
                    term += dg[i][k]
                if i == k and j < 2:
                    term += dg[j][k]
                if i == j and k < 2:
                    term -= dg[k][i]
                gamma[k, i, j] = 0.5 * g_inv[k] * term

    df = np.array([fp(r), 0.0, 0.0])
    fpp = (fp(r + h) - fp(r - h)) / (2 * h)
    hess = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            hess[i, j] = -sum(gamma[k, i, j] * df[k] for k in range(3))
    hess[0, 0] += fpp

    df_up = g_inv * df
    df_sq = float((df_up * df).sum())
    w = np.sqrt(1.0 + df_sq)
    p_diag = np.array([float(data.p_rr(r)),
                       float(data.p_tang(r)) * r ** 2,
                       float(data.p_tang(r)) * r ** 2 * np.sin(theta) ** 2])
    residual = 0.0
    for i in range(3):
        for j in range(3):
            inv_part = (g_inv[i] if i == j else 0.0)
            inv_part -= df_up[i] * df_up[j] / (1.0 + df_sq)
            p_ij = p_diag[i] if i == j else 0.0
            residual += inv_part * (hess[i, j] / w - p_ij)
    return residual


def dense_normal_matrix(basis, x, xt, xp, w_tt, w_tp, w_pp):
    """Gauss-Newton normal matrix of the Weyl residual from dense node matrices.

    The weighted Jacobian is built column block by column block from the
    n_nodes x M matrices ``basis.d_theta``/``d_phi``, and the rotation-gauge
    rows e_k x X are projected with ``basis.values``; ``x`` = 0 gives the
    matrix without gauge rows.
    """
    n_modes = basis.n_modes
    n_nodes = basis.values.shape[0]
    m3 = 3 * n_modes
    jtj = np.zeros((m3, m3))
    block = np.empty((n_nodes, m3))
    for comp, w in (("tt", w_tt), ("tp", w_tp), ("pp", w_pp)):
        scale = np.sqrt(w).ravel()[:, None]
        for i in range(3):
            dt = xt[i].ravel()[:, None]
            dp = xp[i].ravel()[:, None]
            cols = slice(i * n_modes, (i + 1) * n_modes)
            if comp == "tt":
                block[:, cols] = scale * (2.0 * dt * basis.d_theta)
            elif comp == "pp":
                block[:, cols] = scale * (2.0 * dp * basis.d_phi)
            else:
                block[:, cols] = scale * (dt * basis.d_phi + dp * basis.d_theta)
        jtj += block.T @ block

    node_weights = basis.quad_weights.ravel()
    gamma2 = np.trace(jtj) / m3
    for k in range(3):
        rot = np.cross(np.eye(3)[k], x.reshape(3, -1).T).T
        row = np.concatenate([basis.values.T @ (node_weights * rot[i])
                              for i in range(3)])
        jtj += gamma2 * np.outer(row, row)
    return jtj


def resolving_hessian(data, tau_star, n_modes, workspace, step=1e-4):
    """Eigenvalues of the reduced second variation at ``tau_star`` by full
    re-solves: central differences of the Euler-Lagrange residual at
    tau* +- step v, where each probe solves the Weyl problem of its own graph
    metric through ``workspace`` (and becomes its last state). The probes v are the
    first ``n_modes`` harmonics without constants, as in ``hessian_check``.
    """
    from qlm.fields import ScalarField
    from qlm.optimal import _gradient, _probe_degree

    grid = data.grid
    basis = grid.basis(_probe_degree(n_modes), lmin=1)

    def gradient_at(values):
        return _gradient(data, basis, ScalarField(grid, values), workspace)[0]

    cols = []
    for direction in basis.synthesize(np.eye(basis.n_modes)[:n_modes]):
        g_plus = gradient_at(tau_star.values + step * direction)
        g_minus = gradient_at(tau_star.values - step * direction)
        cols.append((g_plus - g_minus)[:n_modes] / (2.0 * step))
    raw = np.array(cols).T
    return np.linalg.eigvalsh(0.5 * (raw + raw.T))
