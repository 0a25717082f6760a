"""Collocation grids on the 2-sphere.

A grid couples Gauss-Legendre colatitude nodes with uniform longitudes and
carries the quadrature weights of the round measure sin(theta) dtheta dphi.
Grids are immutable and interned: requesting the same resolution twice
returns the same object, so field containers can check compatibility with an
identity comparison.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidFieldError
from .harmonics import RealHarmonicBasis, SphereTransform

__all__ = ["SphereGrid", "sphere_grid"]


class SphereGrid(SphereTransform):
    """Gauss-Legendre x uniform-phi collocation grid.

    The grid is its own :class:`~qlm.harmonics.SphereTransform`, which owns
    the colatitude nodes, ``dtheta``, ``dphi``, ``integrate_round`` and the
    degree support ``max_degree``. The grid checks its node counts, adds the
    longitudes and round-measure weights, and interns its harmonic bases.

    Attributes
    ----------
    phi : 1D longitudes
    quad_weights : (n_theta, n_phi) weights for the round measure; they sum
        to 4*pi to near machine precision
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 4:
            raise InvalidFieldError("n_theta must be >= 4")
        if n_phi < 4 or n_phi % 2:
            raise InvalidFieldError("n_phi must be even and >= 4")
        super().__init__(n_theta, n_phi)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.quad_weights = np.repeat(
            self.w[:, None] * (2.0 * np.pi / self.n_phi), self.n_phi, axis=1)
        total = self.quad_weights.sum()
        if abs(total - 4.0 * np.pi) > 1e-12 * 4.0 * np.pi:
            raise InvalidFieldError(f"round quadrature defect: {total - 4 * np.pi:g}")
        self._bases = {}
        for arr in (self.theta, self.x, self.w, self.sin_theta, self.phi,
                    self.quad_weights):
            arr.setflags(write=False)

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @property
    def nodes(self):
        """Meshgrid pair (THETA, PHI), each (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    @property
    def unit_sphere(self):
        """Node positions on the unit sphere in R^3: (3, n_theta, n_phi)."""
        th, ph = self.nodes
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)])

    def basis(self, lmax, lmin=0):
        """Interned real harmonic basis up to degree ``lmax``."""
        key = (lmax, lmin)
        if key not in self._bases:
            self._bases[key] = RealHarmonicBasis(self, lmax, lmin)
        return self._bases[key]

    def __repr__(self):
        return f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi})"


@functools.lru_cache(maxsize=None)
def sphere_grid(n_theta, n_phi, /):
    """Interned grid factory; positional-only, since the cache keys on the
    form of the call and a keyword call would intern a second, equal grid."""
    return SphereGrid(n_theta, n_phi)
