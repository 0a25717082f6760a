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
from .harmonics import RealHarmonicBasis, SphereTransform, gauss_legendre_colatitude

__all__ = ["SphereGrid", "sphere_grid"]


class SphereGrid:
    """Gauss-Legendre x uniform-phi collocation grid.

    Attributes
    ----------
    n_theta, n_phi : node counts
    theta, phi : 1D node coordinates
    quad_weights : (n_theta, n_phi) weights for the round measure; they sum
        to 4*pi to near machine precision
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 4:
            raise InvalidFieldError("n_theta must be >= 4")
        if n_phi < 4 or n_phi % 2:
            raise InvalidFieldError("n_phi must be even and >= 4")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.theta, self.x, self.glw = gauss_legendre_colatitude(self.n_theta)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.quad_weights = np.repeat(
            self.glw[:, None] * (2.0 * np.pi / self.n_phi), self.n_phi, axis=1)
        total = self.quad_weights.sum()
        if abs(total - 4.0 * np.pi) > 1e-12 * 4.0 * np.pi:
            raise InvalidFieldError(f"round quadrature defect: {total - 4 * np.pi:g}")
        self.transform = SphereTransform(self.theta, self.x, self.glw, self.n_phi)
        self._bases = {}
        for arr in (self.theta, self.x, self.glw, self.phi, self.quad_weights):
            arr.setflags(write=False)

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @property
    def nodes(self):
        """Meshgrid pair (THETA, PHI), each (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    @property
    def sin_theta(self):
        return self.transform.sin_theta

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
            self._bases[key] = RealHarmonicBasis(self.transform, lmax, lmin)
        return self._bases[key]

    def integrate_round(self, values):
        return self.transform.integrate_round(values)

    def __repr__(self):
        return f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi})"


@functools.lru_cache(maxsize=None)
def sphere_grid(n_theta, n_phi, /):
    """Interned grid factory; positional-only, since the cache keys on the
    form of the call and a keyword call would intern a second, equal grid."""
    return SphereGrid(n_theta, n_phi)
