"""Rotationally symmetric reductions: Jang equation and quasi-spherical flow.

Everything here lives on radial profiles in the areal radius r. The metric of
the initial data is g_rr(r) dr^2 + r^2 dOmega^2 with second fundamental form
p_rr(r) dr^2 + p_tang(r) r^2 dOmega^2.

The Jang operator reduces to a second-order ODE in f(r) that depends on f
only through its derivatives; the solver integrates v = f' inward from the
far-end slope. The scalar-flat quasi-spherical extension of a round sphere
reduces to a linear first-order ODE for h = 1/u^2 whose conserved quantity is
the ADM energy; the monotone mass aspect e(r) = r (1 - 1/u) decreases to that
energy. An independent large-sphere flux evaluation of the ADM energy
(Cartesian finite differences on coordinate spheres) closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError, QlmError
from .grid import sphere_grid

__all__ = [
    "RadialInitialData",
    "RadialFunction",
    "flat_radial_data",
    "hyperboloid_radial_data",
    "hyperboloid_height",
    "jang_residual_radial",
    "jang_rhs",
    "solve_jang_radial",
    "JangSolution",
    "QuasiSphericalState",
    "shi_tam_flow",
    "e_of_r",
    "adm_energy_radial",
]

_ODE_TOL = 1e-10
JANG_SAMPLES = 400      # radii at which solve_jang_radial reports f and its residual
ADM_N_THETA = 16        # colatitude nodes of the ADM flux spheres
ADM_FD_SCALE = 1e-4     # Cartesian difference step of the ADM flux, per unit radius


@dataclass(frozen=True)
class RadialFunction:
    """A radial profile with its first two derivatives, all callables."""

    value: Callable
    first: Callable
    second: Callable

    @classmethod
    def constant(cls, c):
        return cls(lambda r: c + 0.0 * np.asarray(r, dtype=float),
                   lambda r: 0.0 * np.asarray(r, dtype=float),
                   lambda r: 0.0 * np.asarray(r, dtype=float))


@dataclass(frozen=True)
class RadialInitialData:
    """Rotationally symmetric initial data on [r_min, r_max]."""

    r_min: float
    r_max: float
    g_rr: Callable
    p_rr: Callable
    p_tang: Callable
    dg_rr: Callable

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise DomainError("need 0 < r_min < r_max")
        sample = np.linspace(self.r_min, self.r_max, 64)
        if np.any(np.asarray(self.g_rr(sample)) <= 0):
            raise DomainError("g_rr must be positive on the domain")


def flat_radial_data(r_min=1.0, r_max=10.0):
    """Time-symmetric flat data: g_rr = 1, p = 0."""
    zero = lambda r: 0.0 * np.asarray(r, dtype=float)
    one = lambda r: 1.0 + 0.0 * np.asarray(r, dtype=float)
    return RadialInitialData(r_min, r_max, one, zero, zero, dg_rr=zero)


def hyperboloid_radial_data(r_min=1.0, r_max=10.0):
    """Data induced on the unit hyperboloid t = sqrt(1 + |x|^2).

    The slice is umbilic (p = g); its defining function solves the Jang
    equation exactly.
    """
    return RadialInitialData(
        r_min, r_max,
        g_rr=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2),
        p_rr=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2),
        p_tang=lambda r: 1.0 + 0.0 * np.asarray(r, dtype=float),
        dg_rr=lambda r: -2.0 * np.asarray(r, dtype=float)
        / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2)


def hyperboloid_height():
    """Closed-form defining function of the hyperboloid slice."""
    return RadialFunction(
        value=lambda r: np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2),
        first=lambda r: np.asarray(r, dtype=float)
        / np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2),
        second=lambda r: (1.0 + np.asarray(r, dtype=float) ** 2) ** -1.5)


def jang_residual_radial(data, fn):
    """Pointwise Jang-operator residual of a radial function.

    Returns a callable of r. The reduction of the graph-trace operator to
    radial symmetry is

        (1/(g W^2)) [ (f'' - g' f' / 2g)/W - p_rr ]
        + 2 [ f'/(r g W) - p_tang ],          W = sqrt(1 + f'^2 / g),

    which is (f'' - jang_rhs(r, f')) / (g W^3).
    """

    def residual(r):
        r = np.asarray(r, dtype=float)
        g = np.asarray(data.g_rr(r))
        v = np.asarray(fn.first(r))
        w = np.sqrt(1.0 + v * v / g)
        return (np.asarray(fn.second(r)) - jang_rhs(data, r, v)) / (g * w ** 3)

    return residual


def jang_rhs(data, r, v):
    """f'' solved from the radial Jang equation at (r, f' = v), elementwise."""
    g = np.asarray(data.g_rr(r))
    gp = np.asarray(data.dg_rr(r))
    w_sq = 1.0 + v * v / g
    w = np.sqrt(w_sq)
    return (gp * v / (2.0 * g) + w * np.asarray(data.p_rr(r))
            + 2.0 * g * w ** 3 * np.asarray(data.p_tang(r))
            - 2.0 * w_sq * v / r)


@dataclass(frozen=True)
class JangSolution:
    r: np.ndarray
    f: np.ndarray
    residual_sup: float


def solve_jang_radial(data, tau0, far_slope=0.0):
    """Solve the radial Jang equation with slope ``far_slope`` at r_max.

    The equation only involves f through v = f', and v(r_max) = ``far_slope``
    (zero for asymptotically flat decay) fixes v, so (v, f) is integrated
    once, inward from (``far_slope``, 0) at r_max to r_min; f is then shifted
    so that f(r_min) = tau0. Slope blow-up along the way is reported as a
    trapped-region obstruction.
    """
    r0, r1 = data.r_min, data.r_max

    def rhs(r, y):
        return [jang_rhs(data, r, y[0]), y[0]]

    def explode(r, y):
        return abs(y[0]) - 1e8
    explode.terminal = True
    sol = solve_ivp(rhs, (r1, r0), [far_slope, 0.0], rtol=1e-10, atol=_ODE_TOL,
                    dense_output=True, events=explode)
    if sol.t[-1] > r0:
        raise ConvergenceError(f"Jang slope blow-up at r = {sol.t[-1]:.6g}")
    shift = tau0 - sol.y[1, -1]

    def slope(r):
        return sol.sol(np.asarray(r, dtype=float))[0]

    def value(r):
        return sol.sol(np.asarray(r, dtype=float))[1] + shift

    # Quality measure with an independent second derivative: differencing the
    # dense slope keeps the residual from being the solved-for identity.
    h_fd = 1e-5 * (r1 - r0)

    def second_fd(r):
        r = np.asarray(r, dtype=float)
        return (slope(r + h_fd) - slope(r - h_fd)) / (2.0 * h_fd)

    rs = np.linspace(r0, r1, JANG_SAMPLES)
    interior = np.linspace(r0 + 2 * h_fd, r1 - 2 * h_fd, JANG_SAMPLES)
    res = jang_residual_radial(
        data, RadialFunction(value, slope, second_fd))(interior)
    return JangSolution(r=rs, f=value(rs),
                        residual_sup=float(np.max(np.abs(res))))


# ---------------------------------------------------------------------------
# Quasi-spherical scalar-flat extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiSphericalState:
    """Scalar-flat rotationally symmetric extension u^2 dr^2 + r^2 dOmega^2."""

    r0: float
    r_max: float
    energy: float
    _h: Callable                 # dense 1/u^2 profile from the flow ODE

    def u(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r0 - 1e-12) or np.any(r > self.r_max + 1e-12):
            raise DomainError("radius outside the extension domain")
        return 1.0 / np.sqrt(self._h(r))

    def mass_aspect(self, r):
        """e(r) = r (1 - 1/u(r)), normalized so its limit is the ADM energy."""
        return np.asarray(r, dtype=float) * (1.0 - 1.0 / self.u(r))


def _require_below_horizon(energy, r0):
    """DomainError unless the extension of ADM energy ``energy`` from the
    sphere of radius r0 stays outside its horizon: energy < r0/2."""
    if energy >= r0 / 2.0:
        raise DomainError(
            f"extension forms a horizon: energy {energy:.6g} >= r0/2")


def shi_tam_flow(r0, u0, r_max=2048.0):
    """Integrate the scalar-flat condition outward from u(r0) = u0.

    In rotational symmetry the vanishing of the scalar curvature of
    u^2 dr^2 + r^2 dOmega^2 is the linear flow h' = (1 - h)/r for h = 1/u^2,
    whose conserved combination r (1 - h)/2 is the ADM energy of the
    extension. The numerical flow is checked against that closed form.
    """
    if u0 <= 0 or not np.isfinite(u0):
        raise DomainError("boundary lapse u0 must be positive and finite")
    if r_max <= r0:
        raise DomainError("r_max must exceed r0")
    h0 = 1.0 / (u0 * u0)
    energy = 0.5 * r0 * (1.0 - h0)
    _require_below_horizon(energy, r0)

    sol = solve_ivp(lambda r, y: [(1.0 - y[0]) / r], (r0, r_max), [h0],
                    method="DOP853", rtol=1e-13, atol=1e-13,
                    dense_output=True)

    def h_dense(r):
        return np.clip(sol.sol(np.asarray(r, dtype=float))[0], 1e-300, None)

    drift = abs(float(h_dense(r_max)) - (1.0 - 2.0 * energy / r_max))
    if drift > 1e-8:
        raise ConvergenceError(f"scalar-flat flow drifted by {drift:.3e}")
    return QuasiSphericalState(r0=r0, r_max=r_max, energy=energy, _h=h_dense)


def e_of_r(state, r_values):
    """Monotone mass-aspect table [(r, e(r))] at the radii ``r_values``.

    Raises if monotonicity fails or if the far value misses the ADM energy by
    more than the 2 E^2 / r tail bound.
    """
    r_values = np.asarray(r_values, dtype=float)
    e_vals = state.mass_aspect(r_values)
    table = np.column_stack([r_values, e_vals])
    slack = 1e-12 * max(1.0, np.abs(e_vals).max())
    if np.any(np.diff(e_vals) > slack):
        raise QlmError("mass aspect e(r) is not non-increasing")
    r_far = r_values[-1]
    bound = 2.0 * state.energy ** 2 / r_far + 1e-10
    if abs(e_vals[-1] - state.energy) > bound:
        raise QlmError(
            f"far mass aspect {e_vals[-1]:.8g} misses ADM energy "
            f"{state.energy:.8g} beyond the tail bound {bound:.2e}")
    return table


def adm_energy_radial(state, r_eval=1000.0):
    """ADM energy by large-sphere flux quadrature, extrapolated in 1/r.

    Evaluates the asymptotic flux integral of the metric-derivative
    combination (d_j g_ij - d_i g_jj) nu^i over coordinate spheres at
    ``r_eval`` and 2 * ``r_eval`` with Cartesian central differences, and
    removes the leading 1/r tail by Richardson extrapolation (the defining
    expression is a limit; a single finite radius carries an O(E^2/r) bias).
    """
    if 2.0 * r_eval > state.r_max:
        raise DomainError("state does not extend to 2 * r_eval")

    def phi(r):
        u = state.u(r)
        return u * u - 1.0

    def flux(radius):
        grid = sphere_grid(ADM_N_THETA, 2 * ADM_N_THETA)
        pts = (radius * grid.unit_sphere).reshape(3, -1)
        h = ADM_FD_SCALE * radius

        def metric(x):
            r = np.sqrt((x * x).sum(0))
            n = x / r
            p = phi(r)
            return (np.eye(3)[:, :, None]
                    + p * n[:, None, :] * n[None, :, :])

        d_g = np.empty((3, 3, 3, pts.shape[1]))
        for j in range(3):
            step = np.zeros((3, 1))
            step[j] = h
            d_g[j] = (metric(pts + step) - metric(pts - step)) / (2.0 * h)
        nu = pts / np.sqrt((pts * pts).sum(0))
        integrand = np.zeros(pts.shape[1])
        for i in range(3):
            for j in range(3):
                integrand += d_g[j, i, j] * nu[i]
                integrand -= d_g[i, j, j] * nu[i]
        w = grid.quad_weights.ravel() * radius ** 2
        return float((w * integrand).sum()) / (16.0 * np.pi)

    f1 = flux(r_eval)
    f2 = flux(2.0 * r_eval)
    return 2.0 * f2 - f1
