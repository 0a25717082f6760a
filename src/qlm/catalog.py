"""Exact surface-data generators with closed-form reference values.

Two families:

* spheres of symmetry in spherically symmetric spacetimes (static slice),
  where both classical masses have closed forms in the areal radius and the
  radial lapse of r;
* explicit spacelike surfaces in Minkowski space (flat 3-space surfaces,
  light-cone cuts, boosted spheres, graphs over a round base), whose physical
  data is computed from the embedding derivatives and whose quasi-local
  energy must vanish at the surface's own time function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import calculus as calc
from .errors import DomainError, GenerationError, QlmError
from .fields import Metric2, OneForm, ScalarField, worst_node
from .functionals import SurfaceData, byly_mass, hawking_mass

__all__ = [
    "SphericalSphereSpec",
    "SchwarzschildSphere",
    "schwarzschild_sphere_data",
    "symmetric_sphere_data",
    "mass_relation_check",
    "MinkowskiSurfaceSpec",
    "MinkowskiSurface",
    "minkowski_surface_data",
    "surface_data_from_embedding",
    "LightconeRigidityReport",
    "lightcone_rigidity_report",
]

MINKOWSKI_SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Spherically symmetric spacetimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalSphereSpec:
    """Sphere of symmetry on the static slice: areal radius r, mass m >= 0."""

    mass_param: float
    r: float

    def __post_init__(self):
        # NaN makes every comparison below false, so none would refuse it.
        if not (np.isfinite(self.mass_param) and np.isfinite(self.r)):
            raise DomainError(f"m = {self.mass_param} and r = {self.r} must be finite")
        if self.mass_param < 0:
            raise DomainError("mass parameter must be >= 0")
        if self.r <= 0:
            raise DomainError("areal radius must be positive")
        if self.r < 2.0 * self.mass_param:
            raise DomainError(
                f"r = {self.r} lies inside the horizon 2m = {2 * self.mass_param}")

    @property
    def grad_r_sq(self):
        return 1.0 - 2.0 * self.mass_param / self.r


@dataclass(frozen=True)
class SchwarzschildSphere:
    """Generated data plus closed-form reference values.

    ``data`` is None exactly at the horizon, where |H| = 0 makes the triple
    unusable for the spacelike-mean-curvature functionals; the reference
    values are still exported there.
    """

    data: Optional[SurfaceData]
    refs: dict


def symmetric_sphere_data(grid, r, grad_r_sq):
    """Surface data of a symmetry sphere with prescribed |grad r|^2.

    The static slice carries no momentum, so the connection form vanishes
    and |H| = (2/r) |grad r|.
    """
    if grad_r_sq < 0:
        raise DomainError(f"|grad r|^2 = {grad_r_sq} is negative")
    sigma = Metric2.round(grid, r)
    h = ScalarField.constant(grid, (2.0 / r) * np.sqrt(grad_r_sq))
    return SurfaceData(sigma, h, OneForm.zero(grid))


def schwarzschild_sphere_data(spec, grid):
    """Data and references for a Schwarzschild symmetry sphere."""
    m, r = spec.mass_param, spec.r
    refs = {
        "m_hawking": m,
        "M_byly": r * (1.0 - np.sqrt(spec.grad_r_sq)),
        "h_norm": (2.0 / r) * np.sqrt(spec.grad_r_sq),
        "area": 4.0 * np.pi * r * r,
    }
    if spec.grad_r_sq == 0.0:
        return SchwarzschildSphere(None, refs)
    return SchwarzschildSphere(
        symmetric_sphere_data(grid, r, spec.grad_r_sq), refs)


def mass_relation_check(spec):
    """|m - (M - M^2 / 2r)| for the closed-form masses of ``spec``."""
    m = spec.mass_param
    big_m = spec.r * (1.0 - np.sqrt(spec.grad_r_sq))
    return abs(m - (big_m - big_m ** 2 / (2.0 * spec.r)))


# ---------------------------------------------------------------------------
# Explicit surfaces in Minkowski space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinkowskiSurfaceSpec:
    """Closed spacelike surface in Minkowski space, by closed-form chart.

    variant:
        'flat_r3'       ellipsoid (axes) in the t = 0 slice
        'lightcone_cut' cut t = |x| = f(theta, phi), log f given by modes
        'boosted_sphere' round sphere seen by a boosted observer (velocity
                         along the polar axis)
        'graph'         graph t = tau(theta, phi) over a round sphere
    Mode dictionaries map (l, m, kind) to amplitudes in the orthonormal real
    harmonic basis.
    """

    variant: str
    radius: float = 1.0
    axes: tuple = (1.0, 1.0, 1.2)
    log_modes: dict = field(default_factory=dict)
    tau_modes: dict = field(default_factory=dict)
    velocity: float = 0.0

    def __post_init__(self):
        if self.variant not in ("flat_r3", "lightcone_cut", "boosted_sphere", "graph"):
            raise GenerationError(f"unknown surface variant {self.variant!r}")
        if abs(self.velocity) >= 1.0:
            raise GenerationError("velocity must satisfy |v| < 1")
        if self.radius <= 0 or min(self.axes) <= 0:
            raise GenerationError("radii must be positive")


@dataclass(frozen=True)
class MinkowskiSurface:
    """Generated physical data plus the surface's own time function."""

    data: SurfaceData
    tau_bar: ScalarField
    chart: np.ndarray          # (4, n_theta, n_phi) embedding, time first


def _chart(spec, grid):
    unit = grid.unit_sphere
    if spec.variant == "flat_r3":
        a, b, c = spec.axes
        space = np.stack([a * unit[0], b * unit[1], c * unit[2]])
        return np.concatenate([np.zeros((1,) + grid.shape), space])
    if spec.variant == "lightcone_cut":
        log_f = ScalarField.from_modes(grid, spec.log_modes).values
        f = np.exp(log_f) * spec.radius
        return np.concatenate([f[None], f * unit])
    if spec.variant == "boosted_sphere":
        v = spec.velocity
        gam = 1.0 / np.sqrt(1.0 - v * v)
        r = spec.radius
        return np.stack([-gam * v * r * unit[2],
                         r * unit[0], r * unit[1], gam * r * unit[2]])
    # graph over a round base
    tau = ScalarField.from_modes(grid, spec.tau_modes).values
    return np.concatenate([tau[None], spec.radius * unit])


def _mink_dot(a, b):
    return (MINKOWSKI_SIGNATURE[:, None, None] * a * b).sum(0)


def surface_data_from_embedding(grid, chart):
    """Physical data (sigma, |H|, alpha) of an explicit spacelike surface.

    ``chart`` is the (4, n_theta, n_phi) array of coordinate functions, time
    component first. The connection form is computed in the mean-curvature
    gauge: the normal frame is (outward leg opposite to H, future leg given
    by the light-cone reflection of H), and alpha measures the rotation of
    that frame along the surface.
    """
    chart = np.asarray(chart, dtype=float)
    tan_t = grid.dtheta(chart, 0)
    tan_p = grid.dphi(chart)
    try:
        sigma = Metric2(grid,
                        _mink_dot(tan_t, tan_t),
                        _mink_dot(tan_t, tan_p),
                        _mink_dot(tan_p, tan_p))
    except QlmError as exc:
        raise GenerationError(f"induced metric not spacelike: {exc}") from exc

    lap = calc.coordinate_laplacian(sigma, (tan_t, tan_p))
    # Remove the (numerically tiny) tangential part of the position Laplacian.
    h_t, h_p = calc.raise_form(sigma, _mink_dot(lap, tan_t),
                               _mink_dot(lap, tan_p))
    h_vec = lap - (h_t * tan_t + h_p * tan_p)

    h_sq = _mink_dot(h_vec, h_vec)
    if np.any(h_sq <= 0.0):
        node = worst_node(h_sq)
        raise GenerationError(
            f"mean-curvature vector not spacelike: |H|^2 = {h_sq[node]:.3e} "
            f"at node {node}")
    h_norm = np.sqrt(h_sq)

    # Future timelike unit normal from the static observer, made normal.
    u = np.zeros_like(chart)
    u[0] = 1.0
    u_t, u_p = calc.raise_form(sigma, -tan_t[0], -tan_p[0])
    u_perp = u - (u_t * tan_t + u_p * tan_p)
    n_sq = _mink_dot(u_perp, u_perp)
    if np.any(n_sq >= 0.0):
        raise GenerationError("static observer projection is not timelike")
    e4 = u_perp / np.sqrt(-n_sq)

    h4 = _mink_dot(h_vec, e4)
    e3_dir = h_vec + h4 * e4
    e3_norm = np.sqrt(_mink_dot(e3_dir, e3_dir))
    e3 = -e3_dir / e3_norm
    h3 = _mink_dot(h_vec, e3)

    # Light-cone reflection of H, normalized to the future unit leg.
    frame4 = (h4 * e3 - h3 * e4) / h_norm
    d_t = grid.dtheta(frame4, 0)
    d_p = grid.dphi(frame4)
    alpha = OneForm(grid,
                    _mink_dot(d_t, h_vec) / h_norm,
                    _mink_dot(d_p, h_vec) / h_norm)

    data = SurfaceData(sigma, ScalarField(grid, h_norm), alpha)
    tau_bar = ScalarField(grid, chart[0]).mean_removed()
    return data, tau_bar


def minkowski_surface_data(spec, grid):
    """Generate a :class:`MinkowskiSurface` from a closed-form spec."""
    chart = _chart(spec, grid)
    data, tau_bar = surface_data_from_embedding(grid, chart)
    if spec.variant in ("lightcone_cut", "graph"):
        calc.require_positive_curvature(
            data.sigma, f"{spec.variant} induced metric", GenerationError)
    return MinkowskiSurface(data, tau_bar, chart)


@dataclass(frozen=True)
class LightconeRigidityReport:
    hawking: float
    byly: float
    byly_from_principal_curvatures: float

    @property
    def mismatch(self):
        return abs(self.byly - self.byly_from_principal_curvatures)


def lightcone_rigidity_report(data, *, workspace):
    """Evaluate the rigidity pattern of the data of a light-cone cut.

    The Hawking mass of a positive-curvature cut vanishes, while the
    Brown-York-Liu-Yau mass equals (1/8 pi) times the integrated squared
    difference of the square roots of the principal curvatures of the
    Euclidean reference embedding.
    """
    grid = data.grid
    byly = byly_mass(data, workspace=workspace)
    state = workspace.graph_state(data.sigma, ScalarField.zero(grid))
    geom = state["geom"]
    lam1 = geom.lambda1.values
    lam2 = geom.lambda2.values
    if lam2.min() <= 0:
        raise GenerationError("reference embedding is not convex")
    integrand = ScalarField(grid, (np.sqrt(lam1) - np.sqrt(lam2)) ** 2)
    formula = calc.integrate(data.sigma, integrand) / (8.0 * np.pi)
    return LightconeRigidityReport(
        hawking=hawking_mass(data),
        byly=byly,
        byly_from_principal_curvatures=formula)
