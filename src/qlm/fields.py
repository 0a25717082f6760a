"""Field containers: scalars, one-forms and symmetric 2-tensors on a grid.

Components are stored in the fixed (theta, phi) chart as (n_theta, n_phi)
arrays. Containers are immutable; all algebra that mixes fields checks that
the operands share one grid object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, InvalidMetricError
from .grid import SphereGrid

__all__ = [
    "ScalarField",
    "OneForm",
    "SymTensor2",
    "Metric2",
    "same_grid",
    "worst_node",
]


def _frozen(grid, values, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise InvalidFieldError(
            f"{name}: expected shape {grid.shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidFieldError(f"{name}: non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def worst_node(values):
    """(i, j) index of the smallest entry, in Python ints, for messages."""
    return tuple(map(int, np.unravel_index(np.argmin(values), values.shape)))


def same_grid(*objs):
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid is not grid:
            raise GridMismatchError(
                f"fields live on different grids: {grid} vs {o.grid}")
    return grid


@dataclass(frozen=True)
class ScalarField:
    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.grid, self.values, "ScalarField"))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zero(cls, grid):
        return cls.constant(grid, 0.0)

    @classmethod
    def from_modes(cls, grid, modes):
        """Field of {(l, m, kind): amplitude} in the orthonormal basis."""
        if not modes:
            return cls.zero(grid)
        basis = grid.basis(max(ell for ell, _, _ in modes))
        coeffs = np.zeros(basis.n_modes)
        for key, amp in modes.items():
            coeffs[basis.mode_index(*key)] = amp
        return cls(grid, basis.synthesize(coeffs))

    def mean_removed(self):
        """This field minus its average against the round measure."""
        return self - self.grid.integrate_round(self.values) / (4.0 * np.pi)

    def _operand(self, other):
        """Values of a field on this grid, or ``other`` itself."""
        if isinstance(other, ScalarField):
            same_grid(self, other)
            return other.values
        return other

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._operand(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._operand(other))

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._operand(other))

    __rmul__ = __mul__


@dataclass(frozen=True)
class OneForm:
    """Covariant components (a_theta, a_phi) in the fixed chart."""

    grid: SphereGrid
    a_theta: np.ndarray
    a_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_theta", _frozen(self.grid, self.a_theta, "OneForm.a_theta"))
        object.__setattr__(self, "a_phi", _frozen(self.grid, self.a_phi, "OneForm.a_phi"))

    @classmethod
    def zero(cls, grid):
        z = np.zeros(grid.shape)
        return cls(grid, z, z)

    def __add__(self, other):
        same_grid(self, other)
        return OneForm(self.grid, self.a_theta + other.a_theta, self.a_phi + other.a_phi)

    def __sub__(self, other):
        same_grid(self, other)
        return OneForm(self.grid, self.a_theta - other.a_theta, self.a_phi - other.a_phi)

    def __mul__(self, scalar):
        values = scalar.values if isinstance(scalar, ScalarField) else scalar
        return OneForm(self.grid, self.a_theta * values, self.a_phi * values)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric (0,2)-tensor components (tt, tp, pp) in the fixed chart."""

    grid: SphereGrid
    tt: np.ndarray
    tp: np.ndarray
    pp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tt", _frozen(self.grid, self.tt, f"{type(self).__name__}.tt"))
        object.__setattr__(self, "tp", _frozen(self.grid, self.tp, f"{type(self).__name__}.tp"))
        object.__setattr__(self, "pp", _frozen(self.grid, self.pp, f"{type(self).__name__}.pp"))

    def det(self):
        return self.tt * self.pp - self.tp ** 2

    def components(self):
        return self.tt, self.tp, self.pp


@dataclass(frozen=True)
class Metric2(SymTensor2):
    """Riemannian 2-metric: a SymTensor2 that is pointwise positive definite."""

    def __post_init__(self):
        super().__post_init__()
        det = self.det()
        if np.any(self.tt <= 0) or np.any(det <= 0):
            bad = worst_node(np.minimum(self.tt, det))
            raise InvalidMetricError(
                f"metric not positive definite at node {bad}: "
                f"tt={self.tt[bad]:.3e}, det={det[bad]:.3e}")

    @classmethod
    def round(cls, grid, radius=1.0):
        r2 = float(radius) ** 2
        return cls(grid,
                   np.full(grid.shape, r2),
                   np.zeros(grid.shape),
                   r2 * np.sin(grid.nodes[0]) ** 2)

    def inverse_components(self):
        """Contravariant components (tt, tp, pp)."""
        det = self.det()
        return self.pp / det, -self.tp / det, self.tt / det

    def sqrt_det(self):
        return np.sqrt(self.det())

    @cached_property
    def christoffel(self):
        """Connection coefficients (G^t_tt, G^t_tp, G^t_pp, G^p_tt, G^p_tp,
        G^p_pp), computed once per metric."""
        tt, tp, pp = self.components()
        itt, itp, ipp = self.inverse_components()
        dt_tt, dt_tp, dt_pp = (self.grid.dtheta(c, 2 - k)
                               for k, c in enumerate((tt, tp, pp)))
        dp_tt, dp_tp, dp_pp = self.grid.dphi(np.stack((tt, tp, pp)))
        return (0.5 * (itt * dt_tt + itp * (2.0 * dt_tp - dp_tt)),
                0.5 * (itt * dp_tt + itp * dt_pp),
                0.5 * (itt * (2.0 * dp_tp - dt_pp) + itp * dp_pp),
                0.5 * (itp * dt_tt + ipp * (2.0 * dt_tp - dp_tt)),
                0.5 * (itp * dp_tt + ipp * dt_pp),
                0.5 * (itp * (2.0 * dp_tp - dt_pp) + ipp * dp_pp))
