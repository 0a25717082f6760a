"""Spectral differentiation and synthesis on Gauss-Legendre x uniform-phi grids.

Fields live on a tensor grid: Gauss-Legendre nodes in x = cos(theta) and
equispaced longitudes. Longitudinal derivatives are Fourier; colatitude
derivatives are computed by projecting each azimuthal Fourier mode onto a
normalized Legendre basis and differentiating the basis analytically.

The colatitude projection has to respect the pole behaviour of the quantity
being differentiated. The azimuthal mode m of a smooth *scalar* behaves like
sin(theta)^m near the poles when m is even, sin(theta)^(m-1)*sin(theta) when
odd; a tensor component with k theta-indices has that exponent shifted by k.
Only the parity (m + k) mod 2 matters: even-parity modes are exactly spanned
by Legendre polynomials P_l(x), odd-parity modes by the order-1 associated
functions P^1_l(x) (each times a polynomial). Using the matching family makes
the mode projection exact for band-limited fields, so derivatives of smooth
tensor components converge spectrally instead of stalling on sqrt(1-x^2)
endpoint singularities.

Callers therefore pass ``theta_rank``, the number of theta-indices carried by
the array being differentiated (a plain scalar has rank 0, the theta-component
of a one-form rank 1, and each d/dtheta raises the rank by one).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidFieldError

__all__ = [
    "legendre_functions",
    "SphereTransform",
    "RealHarmonicBasis",
    "real_mode_table",
]


def legendre_functions(m, lmax, x):
    """Normalized associated Legendre functions and their theta-derivatives.

    Returns ``P[k]`` and ``dP[k]`` sampled at ``x`` for degree l = m + k up to
    ``lmax``.  Normalization is orthonormal on [-1, 1]:
    integral of P_l^m * P_l'^m dx = delta.  The derivative is with respect to
    theta (x = cos(theta)), evaluated through the stable two-term recurrence
    sin(theta) * dP_l^m/dtheta = l*x*P_l^m - c(l, m)*P_(l-1)^m.
    """
    if lmax < m:
        raise ValueError("lmax must be >= m")
    x = np.asarray(x, dtype=float)
    sin_theta = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    n_l = lmax - m + 1
    p = np.zeros((n_l,) + x.shape)
    dp = np.zeros_like(p)

    # Seed P_m^m by the diagonal recurrence from P_0^0 = 1/sqrt(2).
    pmm = np.full_like(x, 1.0 / np.sqrt(2.0))
    for mu in range(1, m + 1):
        pmm = np.sqrt((2 * mu + 1) / (2.0 * mu)) * sin_theta * pmm
    p[0] = pmm
    if n_l > 1:
        p[1] = np.sqrt(2 * m + 3.0) * x * pmm
    for k in range(2, n_l):
        ell = m + k
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = np.sqrt(((2.0 * ell + 1.0) * ((ell - 1.0) ** 2 - m * m))
                    / ((2.0 * ell - 3.0) * (ell * ell - m * m)))
        p[k] = a * x * p[k - 1] - b * p[k - 2]

    inv_sin = 1.0 / sin_theta
    for k in range(n_l):
        ell = m + k
        if ell == 0:
            continue
        c = np.sqrt((ell * ell - m * m) * (2.0 * ell + 1.0) / (2.0 * ell - 1.0))
        below = p[k - 1] if k >= 1 else np.zeros_like(x)
        dp[k] = (ell * x * p[k] - c * below) * inv_sin
    return p, dp


class SphereTransform:
    """Gauss-Legendre x uniform-phi nodes with their derivatives and quadrature.

    Owns the colatitudes ``theta`` in (0, pi), increasing from the north
    pole, ``x`` = cos(theta) and the Gauss weights ``w`` for integration in
    dx = sin(theta) dtheta, and the two dense colatitude
    differentiation matrices (one per pole parity), built on first use.
    ``dtheta`` and ``dphi`` act on the last two axes: ``values`` is one
    (n_theta, n_phi) array or a stack of them along leading axes, which
    gives the same bits as one call per component. ``n_phi`` is even.
    ``max_degree`` is the one statement of the degree the nodes resolve.
    """

    def __init__(self, n_theta, n_phi):
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = np.polynomial.legendre.leggauss(self.n_theta)
        order = np.argsort(-x)
        self.x, self.w = x[order], w[order]
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sin(self.theta)
        # Longitude wavenumbers for the real FFT layout.
        self._m = np.arange(self.n_phi // 2 + 1)

    @property
    def max_degree(self):
        """Highest harmonic degree the nodes resolve: n_theta - 1 in
        colatitude, order n_phi / 2 - 1 below the longitudinal Nyquist."""
        return min(self.n_theta - 1, self.n_phi // 2 - 1)

    @cached_property
    def _dtheta_matrices(self):
        """d/dtheta on modes of pole parity 0 and 1: analysis by Gauss
        quadrature, synthesis with the derivative."""
        tables = (legendre_functions(parity, self.n_theta - 1, self.x)
                  for parity in (0, 1))
        return [dp.T @ (p * self.w) for p, dp in tables]

    def dtheta(self, values, theta_rank):
        """d/dtheta of tensor-component arrays carrying ``theta_rank`` indices."""
        f_hat = np.fft.rfft(values, axis=-1)
        out = np.empty_like(f_hat)
        even_cols = (self._m + theta_rank) % 2 == 0
        even, odd = self._dtheta_matrices
        out[..., even_cols] = even @ f_hat[..., even_cols]
        out[..., ~even_cols] = odd @ f_hat[..., ~even_cols]
        return np.fft.irfft(out, n=self.n_phi, axis=-1)

    def dphi(self, values):
        """d/dphi by Fourier differentiation (Nyquist mode dropped)."""
        f_hat = np.fft.rfft(values, axis=-1)
        f_hat *= 1j * self._m
        f_hat[..., -1] = 0.0
        return np.fft.irfft(f_hat, n=self.n_phi, axis=-1)

    def integrate_round(self, values):
        """Integral against sin(theta) dtheta dphi."""
        return float(2.0 * np.pi / self.n_phi * (self.w @ values.sum(axis=1)))


def real_mode_table(lmax, lmin=0):
    """Mode list [(l, m, kind)] for the real harmonic basis.

    ``kind`` is 0 for the cos(m phi) branch (and the m = 0 zonal modes),
    1 for sin(m phi).
    """
    table = []
    for ell in range(lmin, lmax + 1):
        table.append((ell, 0, 0))
        for m in range(1, ell + 1):
            table.append((ell, m, 0))
            table.append((ell, m, 1))
    return table


class RealHarmonicBasis:
    """Real spherical-harmonic basis on a grid, kept in factored form.

    Column c is the mode ``modes[c]`` = (l, m, kind) of
    :func:`real_mode_table`, sampled on the grid nodes (theta-major). It is
    the product of a colatitude row P_l^m(theta) and an azimuthal function
    E_q(phi), q = ``azimuth[c]``: q = 0 is the constant of m = 0, q = 2m - 1
    is cos(m phi) and q = 2m is sin(m phi). The basis keeps only these
    factors: the rows ``p`` and their theta-derivatives ``dp``, each
    n_theta x M, and the functions ``azim`` and their phi-derivatives
    ``dazim``, each n_phi x Q with Q = 2 lmax + 1. The rows are kept a
    second time, zero-padded, as slabs Q x G x n_theta with
    G = lmax - lmin + 1: column c sits in slot (q, l - lmin). Synthesis
    scatters the coefficients into the slots, takes one batched product
    with the slabs (O(Q G n_theta) per field) and one product with the
    azimuthal functions (O(n_theta Q n_phi)); projection is the same two
    products transposed, then a gather by slot. Neither forms an
    n_nodes x M matrix. The basis is orthonormal for the round measure, so
    analysis is a weighted projection.

    The node matrices ``values``, ``d_theta`` and ``d_phi`` are built on
    first access only; the package never reads them.

    ``grid`` is a :class:`~qlm.grid.SphereGrid`, and ``lmax`` is at most its
    ``max_degree``. The basis keeps the grid's ``quad_weights`` for
    :meth:`analyze`, not the grid: a grid interns its bases, and a reference
    back would make a cycle that only the garbage collector frees.
    """

    def __init__(self, grid, lmax, lmin=0):
        if lmax < lmin:
            raise InvalidFieldError(
                f"basis degree {lmax} is below its lowest degree {lmin}")
        if lmax > grid.max_degree:
            raise InvalidFieldError(
                f"basis degree {lmax} exceeds grid support {grid.max_degree}")
        self.lmax = lmax
        self.lmin = lmin
        self.quad_weights = grid.quad_weights
        self.modes = real_mode_table(lmax, lmin)

        tables = [legendre_functions(m, lmax, grid.x)
                  for m in range(lmax + 1)]
        self.p = np.stack([tables[m][0][ell - m] for ell, m, _ in self.modes], axis=1)
        self.dp = np.stack([tables[m][1][ell - m] for ell, m, _ in self.modes], axis=1)
        ell, m, kind = np.array(self.modes).T
        self.azimuth = np.where(m == 0, 0, 2 * m - 1 + kind)

        # Azimuthal function q has order (q + 1) // 2; odd q is the cosine.
        q = np.arange(2 * lmax + 1)
        order = (q + 1) // 2
        m_phi = order * (2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi)[:, None]
        cos, sin = np.cos(m_phi), np.sin(m_phi)
        inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
        cosine = q % 2 == 1
        self.azim = np.where(cosine, cos, sin) * inv_sqrt_pi
        self.dazim = np.where(cosine, -order * sin, order * cos) * inv_sqrt_pi
        self.azim[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
        self.dazim[:, 0] = 0.0

        # Columns grouped by azimuthal function, each group in degree order,
        # and each column's slot in the padded slabs.
        self._columns = [np.flatnonzero(self.azimuth == k) for k in q]
        width = lmax - lmin + 1
        self._slot = self.azimuth * width + ell - lmin
        slabs = []
        for rows in (self.p, self.dp):
            slab = np.zeros((len(q) * width, grid.n_theta))
            slab[self._slot] = rows.T
            slabs.append(slab.reshape(len(q), width, -1))
        self._factors = {None: (slabs[0], self.azim),
                         "theta": (slabs[1], self.azim),
                         "phi": (slabs[0], self.dazim)}

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def degrees(self):
        """Degree l of each column, as floats."""
        return np.array([ell for ell, _, _ in self.modes], dtype=float)

    def mode_index(self, ell, m=0, kind=0):
        if (ell, m, kind) not in self.modes:
            raise InvalidFieldError(f"mode (l={ell}, m={m}, kind={kind}) is not "
                                    f"in the degree {self.lmin}..{self.lmax} basis")
        return self.modes.index((ell, m, kind))

    def synthesize(self, coeffs, derivative=None):
        """Field values (..., n_theta, n_phi) from coefficients (..., M).

        ``derivative`` is None for the field itself, "theta" or "phi" for
        that partial derivative of it.
        """
        slabs, azimuthal = self._factors[derivative]
        n_azim, width, n_theta = slabs.shape
        flat = coeffs.reshape(-1, coeffs.shape[-1])
        padded = np.zeros((n_azim * width, len(flat)))
        padded[self._slot] = flat.T
        # rows[q, k, t]: field k's colatitude row of azimuthal function q.
        rows = padded.reshape(n_azim, width, -1).swapaxes(1, 2) @ slabs
        fields = rows.transpose(1, 2, 0) @ azimuthal.T
        return fields.reshape(coeffs.shape[:-1] + (n_theta, -1))

    def project(self, values, derivative=None):
        """Transpose of :meth:`synthesize`: node sums of each column times
        ``values`` (..., n_theta, n_phi), with no quadrature weights."""
        slabs, azimuthal = self._factors[derivative]
        rows = values.reshape((-1,) + values.shape[-2:]) @ azimuthal
        # sums[q, g, k]: slot (q, g) against field k.
        sums = slabs @ rows.transpose(2, 1, 0)
        return sums.reshape(-1, sums.shape[-1])[self._slot].T.reshape(
            values.shape[:-2] + (-1,))

    def analyze(self, values):
        """Round-measure projection of fields (..., n_theta, n_phi) onto the basis."""
        return self.project(self.quad_weights * values)

    def derivative_gram(self, c_tt, c_tp, c_pt, c_pp):
        """Weighted Gram matrix of the basis derivatives, M x M.

        Entry (a, b) is the node sum of sum_(i, j) c_ij D_i[a] D_j[b] over
        i, j in (theta, phi), where D_theta and D_phi are the columns'
        partial derivatives and each weight c_ij is an (n_theta, n_phi)
        field. The azimuthal sums are taken once per colatitude row; then
        the rows of each azimuthal function q take one matrix product with
        the Legendre rows of their own columns.
        """
        azimuthal = (self.azim, self.dazim)
        n_azim = self.azim.shape[1]
        # sums[q, r, i, j, t] = sum over phi of azim_i[q] * c_ij[t] * azim_j[r],
        # with azim_theta = azim and azim_phi = dazim.
        sums = np.empty((n_azim, n_azim, 2, 2, len(self.p)))
        for i, j, weight in ((0, 0, c_tt), (0, 1, c_tp), (1, 0, c_pt), (1, 1, c_pp)):
            sums[:, :, i, j] = np.moveaxis(
                azimuthal[i].T @ (weight[:, :, None] * azimuthal[j]), 0, -1)
        # right[b, j, t]: Legendre factor of column b in channel j;
        # left[a, (i, j, t)]: that of column a in channel i, once per j.
        right = np.stack([self.dp.T, self.p.T], axis=1)
        left = np.repeat(right[:, :, None], 2, axis=2).reshape(self.n_modes, -1)
        out = np.empty((self.n_modes, self.n_modes))
        for q, cols in enumerate(self._columns):
            terms = sums[q].take(self.azimuth, axis=0)
            terms *= right[:, None]
            out[cols] = left[cols] @ terms.reshape(self.n_modes, -1).T
        return out

    def derivative_gram_diagonal(self, c_tt, c_tp, c_pt, c_pp):
        """Diagonal of :meth:`derivative_gram` with the same weights.

        The weights may carry leading axes (..., n_theta, n_phi); the result
        is (..., M). Each column's entry is one azimuthal sum per colatitude
        row, so the cost after those sums is O(n_theta M).
        """
        q = self.azimuth
        sums = [(c @ a)[..., q] for c, a in ((c_tt, self.azim ** 2),
                                             (c_tp + c_pt, self.azim * self.dazim),
                                             (c_pp, self.dazim ** 2))]
        return (self.dp ** 2 * sums[0] + self.dp * self.p * sums[1]
                + self.p ** 2 * sums[2]).sum(axis=-2)

    def _on_nodes(self, colatitude, azimuthal):
        return (colatitude[:, None] * azimuthal[:, self.azimuth]).reshape(
            self.quad_weights.size, -1)

    @cached_property
    def values(self):
        """Dense node matrix, n_nodes x M."""
        return self._on_nodes(self.p, self.azim)

    @cached_property
    def d_theta(self):
        """Dense node matrix of d/dtheta, n_nodes x M."""
        return self._on_nodes(self.dp, self.azim)

    @cached_property
    def d_phi(self):
        """Dense node matrix of d/dphi, n_nodes x M."""
        return self._on_nodes(self.p, self.dazim)
