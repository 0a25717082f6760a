"""Critical time functions of the quasi-local energy.

``solve_optimal`` minimizes the energy over time functions expanded in real
harmonics (mean mode frozen at zero), using the Euler-Lagrange residual as
the exact gradient and a trust-region quasi-Newton iteration with symmetric
rank-two curvature updates. ``hessian_check`` assembles the reduced second
variation by central differences of the residual. Its probes do not re-solve
the Weyl problem: each moves the critical embedding along its tangent, so a
check costs one linear conjugate-gradient solve per direction and no
nonlinear solve. ``comparison_check`` evaluates the energy-comparison
inequality around a critical point with positive mass density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .catalog import surface_data_from_embedding
from .errors import AdmissibilityError, ConvergenceError, PreconditionError
from .fields import ScalarField
from .functionals import (_state_residual, euler_lagrange_residual,
                          mass_density, wang_yau_energy)

__all__ = [
    "OptimalSolveResult",
    "solve_optimal",
    "HessianReport",
    "hessian_check",
    "comparison_check",
]

INITIAL_TRUST = 0.05    # trust radius of the first step
MIN_TRUST = 1e-6        # the descent gives up below this radius
FD_STEP = 1e-4          # central-difference step of hessian_check


@dataclass(frozen=True)
class OptimalSolveResult:
    tau_star: ScalarField
    energy: float
    el_residual_norm: float
    iterations: int
    converged: bool
    energy_path: tuple = ()


def _gradient(data, basis, tau, workspace):
    """(Coefficient-space gradient, L2 residual norm) of the energy at tau."""
    return _projected(data, basis,
                      euler_lagrange_residual(data, tau, workspace=workspace))


def _projected(data, basis, residual):
    """(Coefficient-space gradient, L2 norm) of an Euler-Lagrange residual."""
    weighted = calc.area_weights(data.sigma) * residual.values
    grad = basis.project(weighted) / (8.0 * np.pi)
    norm = float(np.sqrt(np.sum(weighted * residual.values)))
    return grad, norm


def _probe_degree(n_modes):
    """Degree of the smallest basis holding ``n_modes`` probe directions;
    degree L holds (L+1)^2 - 1 of them, constants excluded."""
    return math.isqrt(n_modes)


def _trust_step(b_mat, grad, radius):
    """Exact trust-region subproblem by eigendecomposition."""
    evals, evecs = np.linalg.eigh(b_mat)
    g_rot = evecs.T @ grad

    def step_norm(lam):
        return np.sqrt(np.sum((g_rot / (evals + lam)) ** 2))

    if evals.min() > 0 and step_norm(0.0) <= radius:
        return evecs @ (-g_rot / evals)
    lo = max(0.0, -evals.min() + 1e-12)
    hi = lo + max(1.0, np.abs(g_rot).max() / radius)
    while step_norm(hi) > radius:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if step_norm(mid) > radius:
            lo = mid
        else:
            hi = mid
    return evecs @ (-g_rot / (evals + hi))


def solve_optimal(data, tau0, *, workspace, tol=1e-6, max_iter=200,
                  l_max_tau=16):
    """Descend the energy to a critical time function.

    Starts from ``tau0`` projected onto the degrees 1..``l_max_tau`` (clipped
    to the grid) and stops when the L2 norm of the Euler-Lagrange residual
    falls below ``tol``, or after ``max_iter`` steps with ``converged`` false.
    Iterates whose graph metric loses convexity are rejected and the trust
    region shrunk; collapse of the trust region below ``MIN_TRUST`` raises
    :class:`ConvergenceError` with diagnostics. Stability is checked
    separately, by :func:`hessian_check`. Every evaluation goes through
    ``workspace``.
    """
    grid = data.grid
    l_max = min(l_max_tau, grid.n_theta - 2, grid.max_degree)
    basis = grid.basis(l_max, lmin=1)

    def evaluate(coeffs):
        """Energy, gradient and residual norm at tau = synthesize(coeffs)."""
        tau = ScalarField(grid, basis.synthesize(coeffs))
        energy = wang_yau_energy(data, tau, workspace=workspace).energy
        return (energy, *_gradient(data, basis, tau, workspace))

    x = basis.analyze(tau0.values)
    try:
        f, g, res_norm = evaluate(x)
    except AdmissibilityError as exc:
        raise PreconditionError(f"starting time function inadmissible: {exc}")
    # Leading-order diagonal curvature model. The stiff part of the second
    # variation is the boost-angle term, roughly (Laplacian delta-tau)^2 /
    # (8 pi |H|); on a near-round metric of areal radius r this gives
    # l^2 (l+1)^2 / (8 pi r^2 <|H|>) per orthonormal mode. Only the l-scaling
    # matters: the secant updates refine the rest.
    r_sq = calc.area(data.sigma) / (4.0 * np.pi)
    inv_h = float(np.mean(1.0 / data.h_norm.values))
    ells = basis.degrees
    seed = (ells * (ells + 1.0)) ** 2 * inv_h / (8.0 * np.pi * r_sq)
    b_mat = np.diag(np.maximum(seed, seed[0] * 0.05))
    radius = INITIAL_TRUST
    energy_path = [f]

    iterations = 0
    while res_norm >= tol and iterations < max_iter:
        iterations += 1
        p = _trust_step(b_mat, g, radius)
        predicted = -(g @ p + 0.5 * p @ (b_mat @ p))
        noise = 1e-12 * (1.0 + abs(f))
        try:
            f_new, g_new, res_new = evaluate(x + p)
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

    tau_star = ScalarField(grid, basis.synthesize(x))
    return OptimalSolveResult(
        tau_star=tau_star.mean_removed(), energy=f, el_residual_norm=res_norm,
        iterations=iterations, converged=bool(res_norm < tol),
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

    The probe at tau* + s v, s = +-``FD_STEP``, is evaluated on the
    embedding X* + s dX, where dX is the tangent of the Weyl solution map
    (:meth:`EnergyWorkspace.tangent_states`), instead of on a re-solved
    X(tau* + s v). The two differ by the same O(s^2) term for both signs,
    which the central difference cancels, so the error stays O(FD_STEP^2).
    Each tangent is a conjugate-gradient solve at X*, preconditioned by the
    Weyl solver's held factor (degree <= ``L_P``); no Weyl solve runs
    beyond the one for tau* itself, and the probes leave the workspace's
    last state and warm start untouched.
    """
    if n_modes < 1:
        raise PreconditionError(f"hessian needs at least one mode, got {n_modes}")
    basis = data.grid.basis(_probe_degree(n_modes), lmin=1)
    _, res0 = _gradient(data, basis, tau_star, workspace)
    if res0 > residual_tol:
        raise PreconditionError(
            f"hessian requested away from a critical point "
            f"(residual {res0:.2e} > {residual_tol:.1e})")

    directions = basis.synthesize(np.eye(basis.n_modes)[:n_modes])
    cols = []
    for plus, minus in workspace.tangent_states(data.sigma, tau_star,
                                                directions, FD_STEP):
        g_plus, g_minus = (_projected(data, basis, _state_residual(data, *p))[0]
                           for p in (plus, minus))
        cols.append((g_plus - g_minus)[:n_modes] / (2.0 * FD_STEP))
    raw = np.array(cols).T
    return HessianReport(
        eigenvalues=np.linalg.eigvalsh(0.5 * (raw + raw.T)),
        symmetry_defect=float(np.max(np.abs(raw - raw.T))
                              / max(np.max(np.abs(raw)), 1e-300)))


def comparison_check(data, tau_star, taus, *, workspace):
    """Energy-comparison inequality around a positive-density critical point.

    Returns the slacks E(tau) - E(tau_star) - E_ref(tau), one per tau in
    ``taus``. The third term re-reads the critical graph as a physical
    surface in Minkowski space and evaluates its energy at tau; each slack is
    nonnegative up to solver error, vanishing when tau - tau_star is constant.
    The density, E(tau_star) and the reference surface are computed once.
    """
    rho = mass_density(data, tau_star, workspace=workspace)
    if rho.values.min() <= 0:
        raise PreconditionError(
            f"comparison inequality requires positive density "
            f"(min {rho.values.min():.3e})")
    e_star = wang_yau_energy(data, tau_star, workspace=workspace).energy

    state = workspace.graph_state(data.sigma, tau_star)
    chart = np.concatenate([tau_star.values[None],
                            state["graph"].space.xyz])
    ref_data, _ = surface_data_from_embedding(data.grid, chart)
    slacks = []
    for tau in taus:
        e_tau = wang_yau_energy(data, tau, workspace=workspace).energy
        e_ref = wang_yau_energy(ref_data, tau, workspace=workspace).energy
        slacks.append(e_tau - e_star - e_ref)
    return slacks
