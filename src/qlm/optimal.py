"""Critical time functions of the quasi-local energy.

``solve_optimal`` minimizes the energy over time functions expanded in real
harmonics (mean mode frozen at zero), using the Euler-Lagrange residual as
the exact gradient and a trust-region quasi-Newton iteration with symmetric
rank-two curvature updates. ``hessian_check`` assembles the reduced second
variation by differencing the residual; ``comparison_check`` evaluates the
energy-comparison inequality around a critical point with positive mass
density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .catalog import surface_data_from_embedding
from .errors import AdmissibilityError, ConvergenceError, PreconditionError
from .fields import ScalarField
from .functionals import (TimeFunction, euler_lagrange_residual, mass_density,
                          wang_yau_energy)

__all__ = [
    "OptimalSolveOptions",
    "OptimalSolveResult",
    "solve_optimal",
    "HessianReport",
    "hessian_check",
    "ComparisonReport",
    "comparison_check",
]

INITIAL_TRUST = 0.05    # trust radius of the first step
MIN_TRUST = 1e-6        # the descent gives up below this radius
FD_STEP = 1e-4          # central-difference step of hessian_check


@dataclass
class OptimalSolveOptions:
    """Termination and trust-region tuning for :func:`solve_optimal`."""

    tol: float = 1e-6            # L2 norm of the Euler-Lagrange residual
    max_iter: int = 200
    l_max_tau: int = 16


@dataclass(frozen=True)
class OptimalSolveResult:
    tau_star: TimeFunction
    energy: float
    el_residual_norm: float
    iterations: int
    converged: bool
    energy_path: tuple = ()


class _EnergyModel:
    """Energy and exact coefficient-space gradient over a tau basis."""

    def __init__(self, data, basis, workspace):
        self.data = data
        self.basis = basis
        self.workspace = workspace
        self._proj = calc.area_weights(data.sigma)

    def tau(self, coeffs):
        return TimeFunction(ScalarField(self.data.grid,
                                        self.basis.synthesize(coeffs)))

    def energy(self, coeffs):
        return wang_yau_energy(self.data, self.tau(coeffs),
                               workspace=self.workspace).energy

    def gradient(self, coeffs):
        return self.gradient_at(self.basis.synthesize(coeffs))

    def gradient_at(self, tau_values):
        """(coefficient-space gradient, L2 residual norm) at tau = tau_values."""
        tau = TimeFunction(ScalarField(self.data.grid, tau_values))
        residual = euler_lagrange_residual(self.data, tau,
                                           workspace=self.workspace)
        weighted = self._proj * residual.values
        grad = self.basis.project(weighted) / (8.0 * np.pi)
        norm = float(np.sqrt(np.sum(weighted * residual.values)))
        return grad, norm

    def hessian_seed(self):
        """Leading-order diagonal curvature model.

        The stiff part of the second variation is the boost-angle term,
        roughly (Laplacian delta-tau)^2 / (8 pi |H|); on a near-round metric of
        areal radius r this gives l^2 (l+1)^2 / (8 pi r^2 <|H|>) per
        orthonormal mode. Only the l-scaling matters: the secant updates
        refine the rest.
        """
        area = calc.area(self.data.sigma)
        r_sq = area / (4.0 * np.pi)
        inv_h = float(np.mean(1.0 / self.data.h_norm.values))
        ells = self.basis.degrees
        seed = (ells * (ells + 1.0)) ** 2 * inv_h / (8.0 * np.pi * r_sq)
        return np.maximum(seed, seed[0] * 0.05)


def _trust_step(b_mat, grad, radius):
    """Exact trust-region subproblem by eigendecomposition."""
    evals, evecs = np.linalg.eigh(b_mat)
    g_rot = evecs.T @ grad

    def step_norm(lam):
        return np.sqrt(np.sum((g_rot / (evals + lam)) ** 2))

    lam = max(0.0, -evals.min() + 1e-12)
    if evals.min() > 0 and step_norm(0.0) <= radius:
        p = -g_rot / evals
        return evecs @ p
    lo = lam
    hi = lam + max(1.0, np.abs(g_rot).max() / radius)
    while step_norm(hi) > radius:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if step_norm(mid) > radius:
            lo = mid
        else:
            hi = mid
    p = -g_rot / (evals + hi)
    return evecs @ p


def solve_optimal(data, tau0, opts=None, *, workspace):
    """Descend the energy to a critical time function.

    Starts from ``tau0`` (projected onto the optimization basis, mean mode
    dropped) and terminates when the L2 norm of the Euler-Lagrange residual
    falls below ``opts.tol``. Iterates whose graph metric loses convexity are
    rejected and the trust region shrunk; collapse of the trust region below
    ``MIN_TRUST`` raises :class:`ConvergenceError` with diagnostics. The
    stability of the result is checked separately, by :func:`hessian_check`.
    Every energy and residual evaluation goes through ``workspace``.
    """
    opts = opts or OptimalSolveOptions()
    grid = data.grid
    l_max = min(opts.l_max_tau, grid.n_theta - 2, grid.n_phi // 2 - 1)
    basis = grid.basis(l_max, lmin=1)
    model = _EnergyModel(data, basis, workspace)

    x = basis.analyze(tau0.tau.values)
    try:
        f = model.energy(x)
    except AdmissibilityError as exc:
        raise PreconditionError(f"starting time function inadmissible: {exc}")
    g, res_norm = model.gradient(x)
    b_mat = np.diag(model.hessian_seed())
    radius = INITIAL_TRUST
    energy_path = [f]

    iterations = 0
    while res_norm >= opts.tol and iterations < opts.max_iter:
        iterations += 1
        p = _trust_step(b_mat, g, radius)
        predicted = -(g @ p + 0.5 * p @ (b_mat @ p))
        noise = 1e-12 * (1.0 + abs(f))
        try:
            f_new = model.energy(x + p)
            g_new, res_new = model.gradient(x + p)
            if predicted > noise:
                ratio = (f - f_new) / predicted
                accept = ratio > 1e-3
            else:
                # Below the energy noise floor: judge by the gradient.
                ratio = 1.0 if res_new < res_norm else -1.0
                accept = res_new < res_norm
        except AdmissibilityError:
            accept, ratio = False, -1.0

        if accept:
            y = g_new - g
            sy = y @ p
            if sy > 1e-12 * np.linalg.norm(y) * np.linalg.norm(p):
                bp = b_mat @ p
                b_mat = (b_mat + np.outer(y, y) / sy
                         - np.outer(bp, bp) / (p @ bp))
            x, f, g, res_norm = x + p, f_new, g_new, res_new
            energy_path.append(f)
            if ratio > 0.75 and np.linalg.norm(p) > 0.8 * radius:
                radius *= 2.0
            elif ratio < 0.25:
                radius *= 0.5
        else:
            radius *= 0.25
        if radius < MIN_TRUST:
            raise ConvergenceError(
                "trust region collapsed before reaching tolerance",
                diagnostics={"residual_norm": res_norm, "energy": f,
                             "iterations": iterations, "trust_radius": radius})

    return OptimalSolveResult(
        tau_star=model.tau(x).mean_removed(),
        energy=f,
        el_residual_norm=res_norm,
        iterations=iterations,
        converged=bool(res_norm < opts.tol),
        energy_path=tuple(energy_path))


@dataclass(frozen=True)
class HessianReport:
    eigenvalues: np.ndarray
    symmetry_defect: float

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues.min())


def hessian_check(data, tau_star, n_modes=15, *, workspace,
                  residual_tol=1e-5):
    """Reduced second variation at a critical point by residual differencing.

    Central differences of the Euler-Lagrange residual along the first
    ``n_modes`` harmonic directions (constants excluded) are projected back
    onto the same directions; the symmetrized matrix and its spectrum are
    returned. The base point is ``tau_star`` itself, not its projection onto
    the probe basis, so critical points with content above the probe degree
    are differenced where they are actually critical.
    """
    if n_modes < 1:
        raise PreconditionError(f"hessian needs at least one mode, got {n_modes}")
    grid = data.grid
    l_needed = int(np.ceil(np.sqrt(n_modes + 1))) + 1
    basis = grid.basis(max(4, l_needed), lmin=1)
    model = _EnergyModel(data, basis, workspace)
    _, res0 = model.gradient_at(tau_star.tau.values)
    if res0 > residual_tol:
        raise PreconditionError(
            f"hessian requested away from a critical point "
            f"(residual {res0:.2e} > {residual_tol:.1e})")

    cols = []
    for direction in basis.synthesize(np.eye(basis.n_modes)[:n_modes]):
        g_plus, _ = model.gradient_at(tau_star.tau.values + FD_STEP * direction)
        g_minus, _ = model.gradient_at(tau_star.tau.values - FD_STEP * direction)
        cols.append((g_plus - g_minus)[:n_modes] / (2.0 * FD_STEP))
    raw = np.array(cols).T
    sym_defect = float(np.max(np.abs(raw - raw.T))
                       / max(np.max(np.abs(raw)), 1e-300))
    sym = 0.5 * (raw + raw.T)
    return HessianReport(eigenvalues=np.linalg.eigvalsh(sym),
                         symmetry_defect=sym_defect)


@dataclass(frozen=True)
class ComparisonReport:
    energy_at_tau: float
    energy_at_critical: float
    energy_of_reference_surface: float

    @property
    def slack(self):
        return (self.energy_at_tau - self.energy_at_critical
                - self.energy_of_reference_surface)


def comparison_check(data, tau_star, tau, *, workspace):
    """Energy-comparison inequality around a positive-density critical point.

    The third term re-reads the critical graph as a physical surface in
    Minkowski space and evaluates its energy at ``tau``; the reported slack
    is nonnegative up to solver error, vanishing when tau - tau_star is
    constant.
    """
    grid = data.grid
    rho = mass_density(data, tau_star, workspace=workspace)
    if rho.values.min() <= 0:
        raise PreconditionError(
            f"comparison inequality requires positive density "
            f"(min {rho.values.min():.3e})")
    e_tau = wang_yau_energy(data, tau, workspace=workspace).energy
    e_star = wang_yau_energy(data, tau_star, workspace=workspace).energy

    state = workspace.graph_state(data.sigma, tau_star)
    chart = np.concatenate([tau_star.tau.values[None],
                            state["graph"].space.xyz])
    ref_data, _ = surface_data_from_embedding(grid, chart)
    e_ref = wang_yau_energy(ref_data, tau, workspace=workspace).energy
    return ComparisonReport(
        energy_at_tau=e_tau,
        energy_at_critical=e_star,
        energy_of_reference_surface=e_ref)
