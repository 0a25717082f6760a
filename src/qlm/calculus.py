"""Covariant calculus on the sphere for an arbitrary Riemannian 2-metric.

All operators take the metric explicitly and act on the field containers of
:mod:`qlm.fields`. Derivatives are spectral (see :mod:`qlm.harmonics`);
everything else is pointwise algebra. The Laplacian is literally the
composition divergence(gradient(.)), so the two share one code path.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .fields import Metric2, OneForm, ScalarField, SymTensor2, same_grid, worst_node

__all__ = [
    "integrate",
    "area",
    "area_weights",
    "gradient",
    "divergence",
    "coordinate_laplacian",
    "laplacian",
    "gauss_curvature",
    "metric_add_dtau",
    "form_dot",
    "raise_form",
    "raise_indices",
    "covariant_hessian",
    "require_positive_curvature",
]


def integrate(sigma, f):
    """Integral of a scalar against the area measure of ``sigma``."""
    same_grid(sigma, f)
    return float(np.sum(area_weights(sigma) * f.values))


def area(sigma):
    return integrate(sigma, ScalarField.constant(sigma.grid, 1.0))


def area_weights(sigma):
    """Node weights of the area measure of ``sigma``: sum(weights * f) = integral."""
    grid = sigma.grid
    return grid.quad_weights * sigma.sqrt_det() / grid.sin_theta[:, None]


def gradient(sigma, f):
    """Differential df as a covariant one-form."""
    grid = same_grid(sigma, f)
    return OneForm(grid, grid.dtheta(f.values, 0), grid.dphi(f.values))


def raise_form(sigma, a_theta, a_phi):
    """Covector (a_theta, a_phi) raised by ``sigma``: (v^theta, v^phi)."""
    itt, itp, ipp = sigma.inverse_components()
    v_t = itt * a_theta + itp * a_phi
    v_p = itp * a_theta + ipp * a_phi
    return v_t, v_p


def coordinate_laplacian(sigma, tangents):
    """sigma-Laplacians of coordinate functions from their differentials.

    ``tangents`` is the pair (d/dtheta, d/dphi) of the coordinates, each an
    array whose last two axes are the grid's; a stack (k, n_theta, n_phi)
    gives the k Laplacians in one pass.
    """
    v_t, v_p = raise_form(sigma, *tangents)
    sq = sigma.sqrt_det()
    # Contravariant density sqrt(det) * v^theta carries theta-rank 2.
    return (sigma.grid.dtheta(sq * v_t, 2) + sigma.grid.dphi(sq * v_p)) / sq


def divergence(sigma, omega):
    """Covariant divergence of a one-form (index raised internally)."""
    grid = same_grid(sigma, omega)
    return ScalarField(grid, coordinate_laplacian(
        sigma, (omega.a_theta, omega.a_phi)))


def laplacian(sigma, f):
    """Laplace-Beltrami operator of ``sigma``."""
    return divergence(sigma, gradient(sigma, f))


def covariant_hessian(sigma, f):
    """Second covariant derivative of a scalar, as a SymTensor2."""
    grid = same_grid(sigma, f)
    # Connection coefficients: g_cab is Gamma^c_ab (symmetric in a, b).
    g_ttt, g_ttp, g_tpp, g_ptt, g_ptp, g_ppp = sigma.christoffel
    f_t = grid.dtheta(f.values, 0)
    f_p = grid.dphi(f.values)
    f_ttheta = grid.dtheta(f_t, 1)
    f_tphi = grid.dphi(f_t)
    f_pphi = grid.dphi(f_p)
    h_tt = f_ttheta - g_ttt * f_t - g_ptt * f_p
    h_tp = f_tphi - g_ttp * f_t - g_ptp * f_p
    h_pp = f_pphi - g_tpp * f_t - g_ppp * f_p
    return SymTensor2(grid, h_tt, h_tp, h_pp)


def gauss_curvature(sigma):
    """Intrinsic Gauss curvature via the Brioschi determinant formula."""
    grid = sigma.grid
    e, f, g = sigma.components()
    e_u = grid.dtheta(e, 2)
    e_v = grid.dphi(e)
    e_vv = grid.dphi(e_v)
    f_u = grid.dtheta(f, 1)
    f_v = grid.dphi(f)
    f_uv = grid.dphi(f_u)
    g_u = grid.dtheta(g, 0)
    g_v = grid.dphi(g)
    g_uu = grid.dtheta(g_u, 1)

    a00 = -0.5 * e_vv + f_uv - 0.5 * g_uu
    a01 = 0.5 * e_u
    a02 = f_u - 0.5 * e_v
    a10 = f_v - 0.5 * g_u
    b01 = 0.5 * e_v
    b02 = 0.5 * g_u

    det1 = (a00 * (e * g - f * f)
            - a01 * (a10 * g - f * 0.5 * g_v)
            + a02 * (a10 * f - e * 0.5 * g_v))
    det2 = -b01 * (b01 * g - f * b02) + b02 * (b01 * f - e * b02)
    det_sigma = sigma.det()
    return ScalarField(grid, (det1 - det2) / det_sigma ** 2)


def metric_add_dtau(sigma, dtau):
    """Graph metric sigma + dtau (x) dtau of the differential ``dtau``."""
    grid = same_grid(sigma, dtau)
    return Metric2(grid,
                   sigma.tt + dtau.a_theta ** 2,
                   sigma.tp + dtau.a_theta * dtau.a_phi,
                   sigma.pp + dtau.a_phi ** 2)


def hodge_star(sigma, omega):
    """Rotation of a one-form by 90 degrees in the oriented metric sense."""
    grid = same_grid(sigma, omega)
    v_t, v_p = raise_form(sigma, omega.a_theta, omega.a_phi)
    sq = sigma.sqrt_det()
    return OneForm(grid, -sq * v_p, sq * v_t)


def form_dot(sigma, omega, nu):
    """Pointwise pairing sigma^{ab} omega_a nu_b (raw array)."""
    same_grid(sigma, omega, nu)
    v_t, v_p = raise_form(sigma, omega.a_theta, omega.a_phi)
    return v_t * nu.a_theta + v_p * nu.a_phi


def raise_indices(sigma, t):
    """Both indices of the symmetric tensor ``t`` raised by ``sigma``.

    Returns the contravariant components (tt, tp, pp) as raw arrays.
    """
    itt, itp, ipp = sigma.inverse_components()
    return (itt * itt * t.tt + 2.0 * itt * itp * t.tp + itp * itp * t.pp,
            itt * itp * t.tt + (itt * ipp + itp * itp) * t.tp + itp * ipp * t.pp,
            itp * itp * t.tt + 2.0 * itp * ipp * t.tp + ipp * ipp * t.pp)


def require_positive_curvature(sigma, what="metric", err=PreconditionError):
    """Check pointwise positive Gauss curvature; returns the curvature field."""
    k = gauss_curvature(sigma)
    if np.any(k.values <= 0.0):
        node = worst_node(k.values)
        raise err(
            f"{what}: Gauss curvature not positive "
            f"(min {k.values[node]:.6e} at node {node})",
            node=node)
    return k
