"""Acceptance-check registry.

Each check computes one scalar outcome, compares it against an expected value
at a declared tolerance, and yields a CSV-friendly row. The CLI `validate`
command and the test suite both run this registry, so the pass/fail logic
lives in exactly one place.

Checks are grouped by the physics they exercise: closed-form masses on
spherically symmetric spheres, rigidity of surfaces in flat space, vanishing
energy on Minkowski data, gradient consistency and optimality of the energy,
stability spectra, the comparison inequality, the quasi-spherical monotone
chain, the radial Jang reduction, and the spectral-infrastructure identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                      lightcone_rigidity_report, mass_relation_check,
                      minkowski_surface_data, schwarzschild_sphere_data,
                      surface_data_from_embedding)
from .errors import QlmError
from .fields import Metric2, ScalarField
from .functionals import (EnergyWorkspace, boost_angle, byly_mass,
                          euler_lagrange_residual, gauge_functional,
                          hawking_mass, wang_yau_energy)
from .grid import sphere_grid
from .optimal import comparison_check, hessian_check, solve_optimal
from .radial import (adm_energy_radial, e_of_r, hyperboloid_height,
                     hyperboloid_radial_data, jang_residual_radial,
                     flat_radial_data, shi_tam_flow, RadialFunction)

__all__ = ["CheckResult", "ValidationContext", "run_validation", "check_ids",
           "results_to_csv"]

BYLY_M1_R4 = 4.0 * (1.0 - np.sqrt(0.5))
CUT_BUMP = {(2, 0, 0): 0.12, (1, 0, 0): 0.05}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: float
    actual: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""


class ValidationContext:
    """Shared lazily-built artifacts for one validation run."""

    def __init__(self, resolution=48, seed=42):
        self.resolution = resolution
        self.grid = sphere_grid(resolution, 2 * resolution)
        self.seed = seed
        # Embedding tolerance sets the consistency floor of the
        # finite-difference gradient checks; keep it well under their 1e-5.
        self.workspace = EnergyWorkspace(self.grid, weyl_tol=1e-11)
        self._cache = {}
        # Tolerances that depend on spectral resolution are relaxed on
        # coarse grids.
        self.relax = 1.0 if resolution >= 40 else 100.0

    def memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # Shared datasets -------------------------------------------------------

    def schwarzschild(self, r):
        return self.memo(("schw", r), lambda: schwarzschild_sphere_data(
            SphericalSphereSpec(1.0, r), self.grid))

    def lightcone(self):
        return self.memo("cut", lambda: minkowski_surface_data(
            MinkowskiSurfaceSpec("lightcone_cut", log_modes=CUT_BUMP), self.grid))

    def boosted(self):
        return self.memo("boosted", lambda: minkowski_surface_data(
            MinkowskiSurfaceSpec("boosted_sphere", radius=1.0, velocity=0.3),
            self.grid))

    def graph_surface(self):
        return self.memo("graph", lambda: minkowski_surface_data(
            MinkowskiSurfaceSpec("graph", radius=1.0,
                                 tau_modes={(2, 0, 0): 0.12, (2, 1, 1): 0.06}),
            self.grid))

    def flat_round(self):
        return self.memo("flat_round", lambda: minkowski_surface_data(
            MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.0)), self.grid))

    def schwarzschild_tau_star(self):
        def build():
            data = self.schwarzschild(4.0).data
            tau0 = ScalarField.from_modes(self.grid, {(1, 0, 0): 0.05})
            return solve_optimal(data, tau0, workspace=self.workspace,
                                 tol=1e-8, l_max_tau=10)
        return self.memo("schw_tau_star", build)

    def shi_tam_state(self):
        return self.memo("shi_tam", lambda: shi_tam_flow(
            4.0, 1.0 / np.sqrt(0.5), r_max=2048.0))

    def cut_rigidity(self):
        return self.memo("cut_rigidity", lambda: lightcone_rigidity_report(
            self.lightcone().data, workspace=self.workspace))


def _random_fields(grid, rng, lmax, count):
    """``count`` fields of degree 1..lmax, coefficients N(0, 1) * exp(-0.7 l)."""
    basis = grid.basis(lmax, lmin=1)
    decay = np.exp(-0.7 * basis.degrees)
    return [ScalarField(grid, basis.synthesize(
        rng.standard_normal(basis.n_modes) * decay)) for _ in range(count)]


def _el_gradient_defect(ctx, data, tau):
    """Worst residual-vs-finite-difference defect over 5 random directions.

    Relative to the largest directional derivative in the batch: a random
    direction can land nearly orthogonal to the gradient, and a per-direction
    quotient would then compare two numbers at the probe's noise floor.
    """
    # The central difference has O(eps^2) truncation error, but each energy
    # carries Weyl-solve noise of about 1e-10, which it divides by 2 eps: at
    # eps = 1e-5 that noise reaches the 1e-5 tolerance for some directions.
    eps = 1e-4
    ws = ctx.workspace
    res = euler_lagrange_residual(data, tau, workspace=ws)
    jac = calc.area_weights(data.sigma)
    pairs = []
    rng = np.random.default_rng(ctx.seed)
    for delta in _random_fields(ctx.grid, rng, 5, 5):
        e_plus = wang_yau_energy(data, tau + delta * eps, workspace=ws).energy
        e_minus = wang_yau_energy(data, tau + delta * (-eps),
                                  workspace=ws).energy
        fd = (e_plus - e_minus) / (2.0 * eps)
        predicted = float(np.sum(jac * res.values * delta.values)) / (8.0 * np.pi)
        pairs.append((fd, predicted))
    scale = max(max(abs(fd) for fd, _ in pairs), 1e-14)
    return max(abs(fd - predicted) for fd, predicted in pairs) / scale


def _gauge_defect(ctx, data, tau):
    """min over eps of F(theta + eps Y20) - F(theta); negative = violation."""
    dtau = calc.gradient(data.sigma, tau)
    theta = boost_angle(data, dtau)
    base = gauge_functional(data, dtau, theta)
    bump = ScalarField.from_modes(ctx.grid, {(2, 0, 0): 1.0})
    return min(gauge_functional(data, dtau, theta + eps * bump) - base
               for eps in (1e-2, -1e-2))


def _sharp_cut_metric(n_theta):
    """Metric of a light-cone cut with a localized spot on an n_theta grid.

    The spot's harmonic spectrum decays slowly enough that a 24-point grid is
    genuinely under-resolved; it feeds the convergence-ratio check.
    """
    grid = sphere_grid(n_theta, 2 * n_theta)
    f = np.exp(0.25 * np.exp(12.0 * (np.cos(grid.nodes[0]) - 1.0)))
    data, _ = surface_data_from_embedding(
        grid, np.concatenate([f[None], f * grid.unit_sphere]))
    return data.sigma


def _spectral_errors(sigma):
    """(gauss-bonnet defect, adjointness defect) on the metric ``sigma``."""
    grid = sigma.grid
    gb = abs(calc.integrate(sigma, calc.gauss_curvature(sigma)) - 4.0 * np.pi)
    f, g1, g2 = _random_fields(grid, np.random.default_rng(7), 8, 3)
    omega = (calc.gradient(sigma, g1)
             + calc.hodge_star(sigma, calc.gradient(sigma, g2)))
    lhs = calc.integrate(sigma, f * calc.divergence(sigma, omega))
    df = calc.gradient(sigma, f)
    pair = calc.form_dot(sigma, df, omega)
    rhs = -calc.integrate(sigma, ScalarField(grid, pair))
    adj = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return gb, adj


# ---------------------------------------------------------------------------
# Check table
# ---------------------------------------------------------------------------

def _checks():
    """List of (check_id, runner). Runners return (expected, actual, tol, detail)."""
    table = []

    def add(check_id):
        def wrap(fn):
            table.append((check_id, fn))
            return fn
        return wrap

    # 1. Hawking mass constancy on Schwarzschild spheres.
    for r in (3.0, 4.0, 10.0):
        @add(f"schwarzschild-hawking-r{r:g}")
        def _(ctx, r=r):
            value = hawking_mass(ctx.schwarzschild(r).data)
            return 1.0, value, 1e-7, "closed-form mass parameter"

    # 2. BYLY closed form + embedding sanity.
    @add("byly-closed-form-m1-r4")
    def _(ctx):
        value = byly_mass(ctx.schwarzschild(4.0).data, workspace=ctx.workspace)
        return BYLY_M1_R4, value, 1e-6, "r (1 - sqrt(1 - 2m/r))"

    @add("weyl-round-sanity")
    def _(ctx):
        state = ctx.workspace.graph_state(
            ctx.schwarzschild(4.0).data.sigma, ScalarField.zero(ctx.grid))
        return 0.0, state["graph"].space.residual, 1e-10, "round-metric isometry residual"

    @add("ellipsoid-total-mean-curvature")
    def _(ctx):
        axes = (1.0, 1.0, 1.2)
        surface = minkowski_surface_data(
            MinkowskiSurfaceSpec("flat_r3", axes=axes), ctx.grid)
        state = ctx.workspace.graph_state(surface.data.sigma,
                                          ScalarField.zero(ctx.grid))
        value = calc.integrate(surface.data.sigma, state["geom"].mean_curvature)
        oracle = _ellipsoid_total_mean_curvature(axes, 4 * ctx.resolution)
        return oracle, value, 1e-6 * abs(oracle), "vs 4x-resolution parametric quadrature"

    # 3. Mass relation.
    for r in (3.0, 4.0, 10.0):
        @add(f"mass-relation-r{r:g}")
        def _(ctx, r=r):
            return 0.0, mass_relation_check(SphericalSphereSpec(1.0, r)), 1e-10, \
                "m = M - M^2 / 2r"

    # 4. Light-cone rigidity.
    @add("lightcone-hawking-zero")
    def _(ctx):
        return 0.0, hawking_mass(ctx.lightcone().data), 1e-7, "cut of the light cone"

    @add("lightcone-byly-positive")
    def _(ctx):
        rep = ctx.cut_rigidity()
        ok = rep.byly > 1e-8
        return 1.0, 1.0 if ok else 0.0, 0.5, f"byly = {rep.byly:.3e} > 0"

    @add("lightcone-byly-principal-formula")
    def _(ctx):
        return 0.0, ctx.cut_rigidity().mismatch, 1e-6, "byly vs principal-curvature integral"

    # 5. Vanishing energy on Minkowski surfaces at their own time function.
    for name, getter in (("lightcone", "lightcone"), ("boosted", "boosted"),
                         ("graph", "graph_surface")):
        @add(f"minkowski-vanishing-{name}")
        def _(ctx, getter=getter):
            surface = getattr(ctx, getter)()
            e = wang_yau_energy(surface.data, surface.tau_bar,
                                workspace=ctx.workspace).energy
            return 0.0, e, 1e-6, "energy at the surface's own time function"

    # 6. Euler-Lagrange residual is the energy gradient.
    @add("el-gradient-schwarzschild")
    def _(ctx):
        tau = ScalarField.from_modes(ctx.grid, {(1, 0, 0): 0.03, (2, 1, 1): 0.02})
        defect = _el_gradient_defect(ctx, ctx.schwarzschild(4.0).data, tau)
        return 0.0, defect, 1e-5, "5 random directions, central differences"

    @add("el-gradient-lightcone")
    def _(ctx):
        surface = ctx.lightcone()
        tau = surface.tau_bar + ScalarField.from_modes(ctx.grid, {(2, 1, 0): 0.03})
        defect = _el_gradient_defect(ctx, surface.data, tau)
        return 0.0, defect, 1e-5, "5 random directions, central differences"

    # 7. Canonical gauge minimizes the physical term.
    @add("gauge-optimality-schwarzschild")
    def _(ctx):
        tau = ScalarField.from_modes(ctx.grid, {(1, 0, 0): 0.04})
        worst = _gauge_defect(ctx, ctx.schwarzschild(4.0).data, tau)
        return 0.0, min(worst, 0.0), 1e-12, f"min gauge increment {worst:.3e}"

    @add("gauge-optimality-lightcone")
    def _(ctx):
        surface = ctx.lightcone()
        worst = _gauge_defect(ctx, surface.data, surface.tau_bar)
        return 0.0, min(worst, 0.0), 1e-12, f"min gauge increment {worst:.3e}"

    # 8. Optimal embedding solve on Schwarzschild data.
    @add("optimal-solve-tau-sup")
    def _(ctx):
        result = ctx.schwarzschild_tau_star()
        return 0.0, float(np.max(np.abs(result.tau_star.values))), 1e-5, \
            f"converged = {result.converged}, iters = {result.iterations}"

    @add("optimal-solve-energy")
    def _(ctx):
        result = ctx.schwarzschild_tau_star()
        return BYLY_M1_R4, result.energy, 1e-5, "energy at the critical point"

    # 9. Stability spectra.
    @add("hessian-schwarzschild-positive")
    def _(ctx):
        rep = hessian_check(ctx.schwarzschild(4.0).data,
                            ctx.schwarzschild_tau_star().tau_star,
                            n_modes=15, workspace=ctx.workspace)
        ok = rep.min_eigenvalue > 0
        return 1.0, 1.0 if ok else 0.0, 0.5, f"min eig {rep.min_eigenvalue:.3e}"

    @add("hessian-flat-nonnegative")
    def _(ctx):
        rep = hessian_check(ctx.flat_round().data, ScalarField.zero(ctx.grid),
                            n_modes=15, workspace=ctx.workspace)
        return 0.0, min(rep.min_eigenvalue, 0.0), 1e-7, \
            f"min eig {rep.min_eigenvalue:.3e} (boost directions)"

    # 10. Comparison inequality.
    @add("comparison-slack-nonnegative")
    def _(ctx):
        data = ctx.schwarzschild(4.0).data
        tau_star = ctx.schwarzschild_tau_star().tau_star
        worst = min(comparison_check(
            data, tau_star,
            [ScalarField.from_modes(ctx.grid, modes)
             for modes in ({(2, 0, 0): 0.05}, {(1, 1, 1): 0.05},
                           {(2, 1, 0): 0.05}, {(3, 0, 0): 0.04})],
            workspace=ctx.workspace))
        return 0.0, min(worst, 0.0), 1e-6, f"min slack {worst:.3e}"

    @add("comparison-equality-constant")
    def _(ctx):
        data = ctx.schwarzschild(4.0).data
        tau_star = ctx.schwarzschild_tau_star().tau_star
        tau = tau_star + 0.3
        [slack] = comparison_check(data, tau_star, [tau],
                                   workspace=ctx.workspace)
        return 0.0, slack, 1e-6, "tau = tau* + const"

    # 11. Quasi-spherical chain.
    @add("shitam-monotone-decreasing")
    def _(ctx):
        state = ctx.shi_tam_state()
        table = e_of_r(state, np.geomspace(4.0, 1000.0, 128))
        worst = float(np.max(np.diff(table[:, 1])))
        return 0.0, max(worst, 0.0), 1e-12, f"max increment {worst:.3e}"

    @add("shitam-far-value")
    def _(ctx):
        state = ctx.shi_tam_state()
        return 1.0, float(state.mass_aspect(1000.0)), 3e-3, "e(1000) vs ADM energy"

    @add("shitam-e0-equals-byly")
    def _(ctx):
        state = ctx.shi_tam_state()
        return BYLY_M1_R4, float(state.mass_aspect(4.0)), 1e-8, \
            "cross-module closed form"

    @add("adm-flux-quadrature")
    def _(ctx):
        value = adm_energy_radial(ctx.shi_tam_state(), 1000.0)
        return 1.0, value, 1e-3, "large-sphere flux, Richardson in 1/r"

    # 12. Radial Jang reduction.
    @add("jang-hyperboloid-residual")
    def _(ctx):
        data = hyperboloid_radial_data(1.0, 8.0)
        res = jang_residual_radial(data, hyperboloid_height())
        rs = np.linspace(1.0, 8.0, 200)
        return 0.0, float(np.max(np.abs(res(rs)))), 1e-8, "closed-form solution"

    @add("jang-time-symmetric-constant")
    def _(ctx):
        data = flat_radial_data(1.0, 10.0)
        res = jang_residual_radial(data, RadialFunction.constant(2.5))
        rs = np.linspace(1.0, 10.0, 50)
        return 0.0, float(np.max(np.abs(res(rs)))), 1e-14, "constants solve p = 0"

    # 13. Spectral infrastructure.
    @add("gauss-bonnet")
    def _(ctx):
        worst = 0.0
        metrics = [ctx.schwarzschild(4.0).data.sigma,
                   ctx.lightcone().data.sigma,
                   ctx.graph_surface().data.sigma,
                   ctx.flat_round().data.sigma]
        s_t, s_p = _ellipsoid_tangents((1.0, 1.0, 1.2), *ctx.grid.nodes)
        metrics.append(Metric2(ctx.grid, (s_t * s_t).sum(0),
                               (s_t * s_p).sum(0), (s_p * s_p).sum(0)))
        for sigma in metrics:
            total = calc.integrate(sigma, calc.gauss_curvature(sigma))
            worst = max(worst, abs(total - 4.0 * np.pi))
        return 0.0, worst, 1e-7 * ctx.relax, \
            f"max defect over {len(metrics)} catalog metrics"

    @add("adjointness")
    def _(ctx):
        _, adj = _spectral_errors(ctx.lightcone().data.sigma)
        return 0.0, adj, 1e-9 * ctx.relax, "divergence vs gradient pairing"

    @add("spectral-convergence-ratio")
    def _(ctx):
        gb24, adj24 = _spectral_errors(_sharp_cut_metric(24))
        gb48, adj48 = _spectral_errors(_sharp_cut_metric(48))
        floor = 1e-12
        ratios = []
        for coarse, fine in ((gb24, gb48), (adj24, adj48)):
            ratios.append(0.0 if fine < floor else fine / max(coarse, floor))
        return 0.0, max(ratios), 0.1, \
            f"gb {gb24:.1e}->{gb48:.1e}, adj {adj24:.1e}->{adj48:.1e}"

    return table


def _ellipsoid_tangents(axes, th, ph):
    """Chart derivatives (d/dtheta, d/dphi) of the ellipsoid with ``axes``."""
    a, b, c = axes
    return (np.stack([a * np.cos(th) * np.cos(ph), b * np.cos(th) * np.sin(ph),
                      -c * np.sin(th)]),
            np.stack([-a * np.sin(th) * np.sin(ph), b * np.sin(th) * np.cos(ph),
                      0.0 * th]))


def _ellipsoid_total_mean_curvature(axes, n_theta):
    """Independent parametric quadrature of the total mean curvature."""
    a, b, c = axes
    grid = sphere_grid(n_theta, 2 * n_theta)
    th, ph = grid.nodes
    s_t, s_p = _ellipsoid_tangents(axes, th, ph)
    s_tt = np.stack([-a * np.sin(th) * np.cos(ph), -b * np.sin(th) * np.sin(ph),
                     -c * np.cos(th)])
    s_tp = np.stack([-a * np.cos(th) * np.sin(ph), b * np.cos(th) * np.cos(ph),
                     0.0 * th])
    s_pp = np.stack([-a * np.sin(th) * np.cos(ph), -b * np.sin(th) * np.sin(ph),
                     0.0 * th])
    e = (s_t * s_t).sum(0)
    f = (s_t * s_p).sum(0)
    g = (s_p * s_p).sum(0)
    raw = np.cross(s_t, s_p, axis=0)
    nu = raw / np.sqrt((raw * raw).sum(0))
    ll = -(s_tt * nu).sum(0)
    mm = -(s_tp * nu).sum(0)
    nn = -(s_pp * nu).sum(0)
    mean_h = (g * ll - 2.0 * f * mm + e * nn) / (e * g - f * f)
    jac = np.sqrt(e * g - f * f) / np.sin(th)
    return float((grid.quad_weights * mean_h * jac).sum())


def check_ids():
    return [check_id for check_id, _ in _checks()]


def run_validation(resolution=48, only=None, seed=42):
    """Run the registry; returns a list of CheckResult."""
    ctx = ValidationContext(resolution=resolution, seed=seed)
    wanted = None if only is None else set(only)
    results = []
    for check_id, fn in _checks():
        if wanted is not None and check_id not in wanted:
            continue
        start = time.perf_counter()
        try:
            expected, actual, tol, detail = fn(ctx)
            passed = abs(actual - expected) <= tol
        except QlmError as exc:
            expected, actual, tol = 0.0, float("nan"), 0.0
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(
            check_id=check_id, expected=float(expected), actual=float(actual),
            tolerance=float(tol), passed=passed,
            seconds=time.perf_counter() - start, detail=detail))
    return results


def results_to_csv(results):
    # Timing stays out of the CSV: validate output is byte-reproducible.
    lines = ["check_id,expected,actual,tolerance,pass,detail"]
    for r in results:
        detail = r.detail.replace(",", ";")
        lines.append(f"{r.check_id},{r.expected:.12g},{r.actual:.12g},"
                     f"{r.tolerance:.3g},{int(r.passed)},{detail}")
    return "\n".join(lines) + "\n"
