"""Quasi-local mass and energy functionals of surface data.

The physical data of a spacelike 2-surface is the triple (metric, norm of the
mean-curvature vector, connection one-form of the normal frame in
mean-curvature gauge). This module evaluates on that triple:

* the Hawking mass,
* the Brown-York-Liu-Yau mass (reference: embedding into Euclidean 3-space),
* the Wang-Yau quasi-local energy of a candidate time function, its gauge
  functional, mass density, and the Euler-Lagrange residual that is the
  L2-gradient of the energy.

Geometric units G = c = 1 throughout; the classical 1/(8 pi) and 1/(16 pi)
normalizations are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .embedding import (EmbeddingR3, WeylSolver, admissible_graph_metric,
                        extract_geometry, graph_embedding, lift_graph)
from .errors import GeometryError, PreconditionError
from .fields import Metric2, OneForm, ScalarField, same_grid, worst_node

__all__ = [
    "SurfaceData",
    "TimeFunction",
    "EnergyBreakdown",
    "EnergyWorkspace",
    "check_admissible",
    "hawking_mass",
    "byly_mass",
    "boost_angle",
    "wang_yau_energy",
    "gauge_functional",
    "mass_density",
    "euler_lagrange_residual",
    "total_mean_curvature_variation",
]


@dataclass(frozen=True)
class SurfaceData:
    """Physical data (sigma, |H|, alpha) of a spacelike 2-surface.

    ``h_norm`` must be strictly positive: the mean-curvature vector is
    assumed spacelike everywhere.
    """

    sigma: Metric2
    h_norm: ScalarField
    alpha: OneForm

    def __post_init__(self):
        same_grid(self.sigma, self.h_norm, self.alpha)
        if np.any(self.h_norm.values <= 0.0):
            node = worst_node(self.h_norm.values)
            raise PreconditionError(
                f"|H| must be positive; min {self.h_norm.values[node]:.3e} "
                f"at node {node}", node=node)

    @property
    def grid(self):
        return self.sigma.grid


# A time function tau is a scalar field; the observer is fixed to (1,0,0,0).
TimeFunction = ScalarField


@dataclass(frozen=True)
class EnergyBreakdown:
    """Wang-Yau energy split into reference and physical Hamiltonian terms."""

    reference_term: float
    physical_term: float
    energy: float
    theta: ScalarField


def check_admissible(sigma, tau):
    """Graph metric of tau, raising AdmissibilityError if it loses convexity."""
    return admissible_graph_metric(sigma, calc.gradient(sigma, tau))


class EnergyWorkspace:
    """Shared embedding solver and last graph state for one grid.

    Every solve-backed evaluator takes one as its keyword-only ``workspace``.
    Energy, density and Euler-Lagrange evaluations at one (data, tau) pair
    share a single convex-embedding solve, made to the isometry tolerance
    ``weyl_tol``: the workspace keeps the graph state of its last
    (sigma, tau), and answers a request with equal arrays from it. Any other
    pair is solved, warm-started from the solver's last iterate. Like the
    solver it wraps, a workspace is not thread-safe: concurrent evaluations
    need separate instances.
    """

    def __init__(self, grid, weyl_tol=1e-10):
        self.solver = WeylSolver(grid, weyl_tol)
        self._last = None   # ((tt, tp, pp, tau) arrays, graph state)

    def graph_state(self, sigma, tau):
        arrays = (sigma.tt, sigma.tp, sigma.pp, tau.values)
        if self._last is not None and all(
                map(np.array_equal, arrays, self._last[0])):
            return self._last[1]
        # Raises AdmissibilityError on a non-convex graph metric.
        state = _lifted_state(sigma, graph_embedding(sigma, tau, self.solver))
        self._last = arrays, state
        return state

    def tangent_states(self, sigma, tau, directions, step):
        """Per row v of ``directions`` (K, n_theta, n_phi), the pairs
        (time function, graph state) at tau + ``step`` v and tau - ``step`` v.

        With X the embedding of the state at tau, the state at tau + s v is
        lifted from X + s dX, where dX is the :meth:`WeylSolver.tangent` for
        the graph-metric change dtau (x) dv + dv (x) dtau. Nothing is solved,
        so the probes' graph metrics are not checked for convexity, and these
        states neither replace the workspace's last state nor reach the
        solver.
        """
        graph = self.graph_state(sigma, tau)["graph"]
        a_t, a_p = graph.dtau.a_theta, graph.dtau.a_phi
        v_t, v_p = sigma.grid.dtheta(directions, 0), sigma.grid.dphi(directions)
        deltas = np.stack([2.0 * a_t * v_t, a_t * v_p + a_p * v_t,
                           2.0 * a_p * v_p], axis=1)
        space = graph.space
        for v, dx in zip(directions, self.solver.tangent(space, deltas)):
            yield tuple(_moved_state(sigma, tau + v * s,
                                     space.xyz + dx * s, space.l_max)
                        for s in (step, -step))


def _moved_state(sigma, tau, xyz, l_max):
    """(tau, graph state) on the spatial coordinates ``xyz``; nothing is
    solved on the graph metric, so its convexity goes unchecked."""
    dtau = calc.gradient(sigma, tau)
    sigma_hat = calc.metric_add_dtau(sigma, dtau)
    space = EmbeddingR3.approximating(sigma_hat, xyz, l_max)
    return tau, _lifted_state(sigma, lift_graph(sigma, dtau, sigma_hat, space))


def _lifted_state(sigma, graph):
    """The graph, its spatial geometry, w and total reference curvature."""
    geom = extract_geometry(graph.space)
    return {
        "graph": graph,
        "geom": geom,
        "w": _graph_w(sigma, graph.dtau),
        "reference": calc.integrate(graph.sigma_hat, geom.mean_curvature),
    }


def _newton_tensor(sigma_hat, geom):
    """h - H sigma_hat of the reference embedding, both indices raised.

    Returns the contravariant components (tt, tp, pp) as raw arrays.
    """
    itt, itp, ipp = sigma_hat.inverse_components()
    h_tt, h_tp, h_pp = calc.raise_indices(sigma_hat, geom.second_form)
    mean_h = geom.mean_curvature.values
    return h_tt - mean_h * itt, h_tp - mean_h * itp, h_pp - mean_h * ipp


def _graph_w(sigma, grad_tau):
    """sqrt(1 + |grad tau|^2), the area-form ratio of the graph metric."""
    return np.sqrt(1.0 + calc.form_dot(sigma, grad_tau, grad_tau))


def _canonical_angle(data, lap_tau, w):
    """Boost angle asinh(-lap tau / (|H| w)) of the canonical gauge."""
    return ScalarField(data.grid,
                       np.arcsinh(-lap_tau / (data.h_norm.values * w)))


def _physical_density(data, angle, w, grad_tau):
    """Physical Hamiltonian density at gauge angle ``angle`` (raw array)."""
    sigma = data.sigma
    grad_angle = calc.gradient(sigma, angle)
    return (w * np.cosh(angle.values) * data.h_norm.values
            - calc.form_dot(sigma, grad_tau, grad_angle)
            - calc.form_dot(sigma, data.alpha, grad_tau))


def hawking_mass(data):
    """sqrt(|Sigma| / 16 pi) * (1 - (1/16 pi) * integral of |H|^2)."""
    total_area = calc.area(data.sigma)
    flux = calc.integrate(data.sigma,
                          ScalarField(data.grid, data.h_norm.values ** 2))
    return float(np.sqrt(total_area / (16.0 * np.pi))
                 * (1.0 - flux / (16.0 * np.pi)))


def byly_mass(data, *, workspace):
    """(1/8 pi) * (total Euclidean reference mean curvature - total |H|).

    The reference is the convex embedding of the induced metric itself, so
    positive Gauss curvature of the data metric is required.
    """
    state = workspace.graph_state(data.sigma, ScalarField.zero(data.grid))
    int_h = calc.integrate(data.sigma, data.h_norm)
    return (state["reference"] - int_h) / (8.0 * np.pi)


def boost_angle(data, dtau):
    """Pointwise boost angle of the canonical gauge.

    asinh of -(Laplacian tau) / (|H| * sqrt(1 + |grad tau|^2)); finite
    everywhere since |H| > 0. ``dtau`` is the differential
    ``calc.gradient(data.sigma, tau)`` of the time function.
    """
    lap = calc.divergence(data.sigma, dtau)
    return _canonical_angle(data, lap.values, _graph_w(data.sigma, dtau))


def _physical_term(data, angle, w, grad_tau):
    """(1/8 pi) * integral of the gauge-dependent Hamiltonian density."""
    density = _physical_density(data, angle, w, grad_tau)
    return calc.integrate(data.sigma,
                          ScalarField(data.grid, density)) / (8.0 * np.pi)


def wang_yau_energy(data, tau, *, workspace):
    """Quasi-local energy of (data, tau): reference term minus physical term."""
    state = workspace.graph_state(data.sigma, tau)
    graph = state["graph"]
    angle = _canonical_angle(data, graph.lap_tau, state["w"])
    reference = state["reference"] / (8.0 * np.pi)
    physical = _physical_term(data, angle, state["w"], graph.dtau)
    return EnergyBreakdown(
        reference_term=reference,
        physical_term=physical,
        energy=reference - physical,
        theta=angle)


def gauge_functional(data, dtau, phi):
    """Physical Hamiltonian term with an arbitrary gauge angle field ``phi``.

    ``dtau`` is the differential of the time function, as in
    :func:`boost_angle`. At the canonical angle it reproduces the physical
    term of :func:`wang_yau_energy`; any other angle cannot decrease it.
    """
    return _physical_term(data, phi, _graph_w(data.sigma, dtau), dtau)


def mass_density(data, tau, *, workspace):
    """Pointwise quasi-local mass density of the pair (data, tau); needs a
    spacelike reference mean-curvature vector (Laplacians of tau and X)."""
    state = workspace.graph_state(data.sigma, tau)
    graph = state["graph"]
    lap_x = calc.coordinate_laplacian(data.sigma, graph.space.tangents)
    ref_norm_sq = (lap_x * lap_x).sum(0) - graph.lap_tau ** 2
    if np.any(ref_norm_sq <= 0.0):
        node = worst_node(ref_norm_sq)
        raise GeometryError(
            f"reference mean-curvature vector not spacelike: |H0|^2 = "
            f"{ref_norm_sq[node]:.3e} at node {node}", node=node)
    w = state["w"]
    common = graph.lap_tau ** 2 / w ** 2
    rho = (np.sqrt(ref_norm_sq + common)
           - np.sqrt(data.h_norm.values ** 2 + common)) / w
    return ScalarField(data.grid, rho)


def euler_lagrange_residual(data, tau, *, workspace):
    """L2-gradient density of 8 pi times the energy, as a scalar field.

    Vanishes at critical time functions; for data with divergence-free
    connection form it vanishes identically at tau = 0.
    """
    return _state_residual(data, tau, workspace.graph_state(data.sigma, tau))


def _state_residual(data, tau, state):
    """:func:`euler_lagrange_residual` of (data, tau) on the graph state
    ``state``, such as one of :meth:`EnergyWorkspace.tangent_states`."""
    sigma = data.sigma
    graph = state["graph"]
    w = state["w"]
    a_tt, a_tp, a_pp = _newton_tensor(graph.sigma_hat, state["geom"])
    hess = calc.covariant_hessian(sigma, tau)
    bulk = (a_tt * hess.tt + 2.0 * a_tp * hess.tp + a_pp * hess.pp) / w

    angle = _canonical_angle(data, graph.lap_tau, w)
    grad_angle = calc.gradient(sigma, angle)
    factor = np.cosh(angle.values) * data.h_norm.values / w
    flux_form = graph.dtau * factor - grad_angle - data.alpha
    return ScalarField(
        data.grid, bulk + calc.divergence(sigma, flux_form).values)


def total_mean_curvature_variation(sigma_hat, delta, *, workspace):
    """First variation of the total reference mean curvature.

    ``delta`` is a covariant symmetric perturbation of ``sigma_hat``; the
    variation is -(1/2) * integral of <h - H sigma_hat, delta> in the
    raised-index pairing, over the embedding of ``sigma_hat``.
    """
    grid = same_grid(sigma_hat, delta)
    geom = extract_geometry(workspace.solver.solve(sigma_hat))
    b_tt, b_tp, b_pp = _newton_tensor(sigma_hat, geom)
    pairing = b_tt * delta.tt + 2.0 * b_tp * delta.tp + b_pp * delta.pp
    return -0.5 * calc.integrate(sigma_hat, ScalarField(grid, pairing))
