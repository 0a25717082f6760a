"""Isometric embedding of convex 2-metrics into Euclidean 3-space.

``WeylSolver`` finds coordinate functions X with <dX, dX> = sigma_hat for a
positive-curvature metric by Gauss-Newton iteration on real harmonic
coefficients, started from an area-matched round sphere or, when it fits
the metric better, from the previous solution. Each step is a
conjugate-gradient solve, preconditioned by a held Cholesky factor of the
normal matrix up to a small degree and by its diagonal above it. The
rigid-motion kernel is removed by excluding the degree-0 modes
(translations) and penalizing the three infinitesimal rotations of the
current iterate.

``extract_geometry`` recovers outward normal, second fundamental form, mean
and principal curvatures from an embedding, and ``lift_graph`` lifts an
embedding to a spacelike surface in Minkowski space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import calculus as calc
from .errors import (AdmissibilityError, ConvergenceError, GeometryError,
                     PreconditionError)
from .fields import (Metric2, OneForm, ScalarField, SymTensor2, same_grid,
                     worst_node)
from .grid import SphereGrid

__all__ = [
    "EmbeddingR3",
    "EmbeddedGeometry",
    "GraphEmbedding",
    "WeylSolver",
    "admissible_graph_metric",
    "extract_geometry",
    "graph_embedding",
    "lift_graph",
]


@dataclass(frozen=True)
class EmbeddingR3:
    """Solved embedding: three coordinate functions on the grid."""

    grid: SphereGrid
    xyz: np.ndarray          # (3, n_theta, n_phi)
    residual: float          # max-node isometry residual, relative
    l_max: int
    warm_start: bool = False  # reached from the previous solve's iterate
    krylov_iterations: int = 0  # conjugate-gradient products of the solve

    def __post_init__(self):
        arr = np.asarray(self.xyz, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "xyz", arr)

    @cached_property
    def tangents(self):
        """Tangent vectors (X_theta, X_phi), each (3, n_theta, n_phi)."""
        return self.grid.dtheta(self.xyz, 0), self.grid.dphi(self.xyz)

    def induced_metric(self):
        xt, xp = self.tangents
        return Metric2(self.grid,
                       (xt * xt).sum(0), (xt * xp).sum(0), (xp * xp).sum(0))

    @classmethod
    def approximating(cls, sigma_hat, xyz, l_max):
        """Coordinates ``xyz`` with their own isometry residual to sigma_hat."""
        emb = cls(sigma_hat.grid, xyz, float("nan"), l_max)
        target = sigma_hat.components()
        res = np.subtract(emb.induced_metric().components(), target)
        object.__setattr__(emb, "residual", float(_max_rel(res, target)))
        return emb


@dataclass(frozen=True)
class EmbeddedGeometry:
    """Extrinsic geometry of an embedding (outward-normal convention)."""

    normal: np.ndarray            # (3, n_theta, n_phi), unit outward
    mean_curvature: ScalarField   # positive on convex surfaces
    second_form: SymTensor2
    lambda1: ScalarField          # principal curvatures, lambda1 >= lambda2
    lambda2: ScalarField


L_START = 10              # harmonic degree a cold solve starts from
MAX_GN_ITER = 25          # Gauss-Newton steps per degree
FLOOR_GAIN = 1e-3         # a step gaining less than this share of the
                          # objective has reached the truncation floor
L_P = 18                  # highest degree whose normal matrix is factored
K_REFACTOR = 8            # products past which a solve factors at its point
KRYLOV_FORCING = 1e-3     # relative residual of a conjugate-gradient step
TANGENT_FORCING = 1e-10   # relative residual of a conjugate-gradient tangent


def _max_rel(res, target):
    """Max-node metric residual ``res`` relative to the diagonal of ``target``."""
    scale = max(np.max(np.abs(target[0])), np.max(np.abs(target[2])))
    return max(np.max(np.abs(r)) for r in res) / scale


def _area_centroid(xyz, sigma):
    """Centroid of the coordinate functions ``xyz`` under the area of sigma."""
    jac = calc.area_weights(sigma)
    return np.array([(jac * c).sum() for c in xyz]) / calc.area(sigma)


class WeylSolver:
    """Stateful isometric-embedding solver with warm restarts.

    One instance per grid. A solve starts from the previous solution only
    when that iterate fits the new metric better than the round sphere
    does: warm starts pay off for nearby metrics, and unrelated ones solve
    cold. Instances are single-threaded state machines: share inputs and
    outputs freely (both are immutable), but give each concurrent solve its
    own instance.

    ``tol`` is the relative max-node isometry residual to reach. Cold solves
    start at degree ``L_START``; the degree cap ``l_cap``, 2/3 of the grid
    degree (at least 8), leaves an anti-aliasing margin, and never exceeds
    the grid's ``max_degree``, the highest degree its nodes resolve.

    Every Gauss-Newton step, and every ``tangent`` direction, is one
    preconditioned conjugate-gradient solve of the normal equations built
    from matrix-free products, to a relative residual of ``KRYLOV_FORCING``
    (``TANGENT_FORCING`` for a tangent). ``krylov_iterations`` of the result
    counts those products. The preconditioner is a held Cholesky factor of
    the normal matrix when one of the step's degree is held, and the Jacobi
    diagonal otherwise. Up to degree ``L_P``, a solve that needs more than
    ``K_REFACTOR`` products factors the normal matrix at its point; the
    factor is kept across steps and solves until a step of another degree
    drops it. Above ``L_P`` the (3M)^2 matrix is never formed.

    Gauss-Newton stops at a truncation floor: once a step lowers the
    objective by less than ``FLOOR_GAIN`` of itself, the degree cannot do
    better. A floor below the cap grows the degree, by at least 8 and as
    far as the decay of the iterate's coefficients says is needed (see
    ``_next_degree``); a floor at the cap fails the solve at once.
    """

    def __init__(self, grid, tol=1e-8):
        self.grid = grid
        self.tol = tol
        self.l_cap = min(max(8, (2 * grid.n_theta) // 3), grid.max_degree)
        self._warm = None           # (basis, coefficients) of the last solve
        self._factor = None         # (degree, Cholesky factor) preconditioner
        self._krylov_iterations = 0
        w = grid.quad_weights
        sin2 = grid.sin_theta[:, None] ** 2
        self._w_tt = w
        self._w_tp = 2.0 * w / sin2
        self._w_pp = w / sin2 ** 2

    # -- residual machinery -------------------------------------------------

    def _fields(self, basis, coeffs):
        return (basis.synthesize(coeffs), basis.synthesize(coeffs, "theta"),
                basis.synthesize(coeffs, "phi"))

    def _residual(self, xt, xp, target):
        r_tt = (xt * xt).sum(0) - target[0]
        r_tp = (xt * xp).sum(0) - target[1]
        r_pp = (xp * xp).sum(0) - target[2]
        return r_tt, r_tp, r_pp

    def _objective(self, res):
        r_tt, r_tp, r_pp = res
        return float(np.sum(self._w_tt * r_tt ** 2)
                     + np.sum(self._w_tp * r_tp ** 2)
                     + np.sum(self._w_pp * r_pp ** 2))

    def _gradient(self, basis, xt, xp, res):
        """Exact J^T r for the weighted least-squares functional; residual
        components (..., n_theta, n_phi) give (..., 3M)."""
        r_tt, r_tp, r_pp = (r[..., None, :, :] for r in res)
        u_tt = self._w_tt * r_tt
        u_tp = self._w_tp * r_tp
        u_pp = self._w_pp * r_pp
        a = 2.0 * u_tt * xt + u_tp * xp
        b = u_tp * xt + 2.0 * u_pp * xp
        jtr = basis.project(a, "theta") + basis.project(b, "phi")
        return jtr.reshape(jtr.shape[:-2] + (-1,))

    def _normal_matrix(self, basis, x, xt, xp):
        """Gauss-Newton normal matrix with rotation-gauge penalty rows.

        Block (i, j) couples coordinate functions i and j. It is the weighted
        Gram of the basis derivatives with theta-theta weight A_ij,
        phi-phi weight B_ij and cross weights C_ij, C_ji, where
        A_ij = 4 w_tt xt_i xt_j + w_tp xp_i xp_j,
        B_ij = 4 w_pp xp_i xp_j + w_tp xt_i xt_j and C_ij = w_tp xp_i xt_j.
        The upper blocks are assembled and the lower ones mirrored.
        """
        n_modes = basis.n_modes
        blocks = [slice(i * n_modes, (i + 1) * n_modes) for i in range(3)]
        jtj = np.empty((3 * n_modes, 3 * n_modes))
        for i in range(3):
            for j in range(i, 3):
                block = basis.derivative_gram(
                    *self._gram_weights(xt[i], xt[j], xp[i], xp[j]))
                jtj[blocks[i], blocks[j]] = block
                if j > i:
                    jtj[blocks[j], blocks[i]] = block.T

        # Rotation gauge: penalize motion along e_k x X, as one rank-3
        # update added a block of rows at a time.
        gamma2 = np.trace(jtj) / jtj.shape[0]
        rows = self._rotation_rows(basis, x)
        for part in blocks:
            jtj[part] += (gamma2 * rows[:, part]).T @ rows
        return jtj

    def _gram_weights(self, ti, tj, pi, pj):
        """Weights (A_ij, C_ij, C_ji, B_ij) of ``_normal_matrix`` for the
        tangents (ti, pi) of coordinate i and (tj, pj) of coordinate j."""
        w_tt, w_tp, w_pp = self._w_tt, self._w_tp, self._w_pp
        return (4.0 * w_tt * ti * tj + w_tp * pi * pj, w_tp * pi * tj,
                w_tp * ti * pj, 4.0 * w_pp * pi * pj + w_tp * ti * tj)

    def _rotation_rows(self, basis, x):
        """Gauge rows R, 3 x 3M: the coefficients of e_k x X."""
        rot = np.stack([np.cross(e[:, None, None], x, axis=0) for e in np.eye(3)])
        return basis.analyze(rot).reshape(3, -1)

    def _normal_diagonal(self, basis, x, xt, xp):
        """Diagonal of the gauged normal matrix, its gauge weight gamma^2
        (the mean diagonal of J^T W J) and the gauge rows R."""
        jtj = basis.derivative_gram_diagonal(
            *self._gram_weights(xt, xt, xp, xp)).ravel()
        gamma2 = jtj.mean()
        rows = self._rotation_rows(basis, x)
        return jtj + gamma2 * (rows * rows).sum(0), gamma2, rows

    def _normal_product(self, basis, xt, xp, gamma2, rows, v):
        """(J^T W J + gamma^2 R^T R) v without forming the matrix: the
        linearized residual of the step v, pulled back by ``_gradient``."""
        dt, dp = (basis.synthesize(v.reshape(3, -1), derivative)
                  for derivative in ("theta", "phi"))
        lin = (2.0 * (xt * dt).sum(0), (xt * dp + xp * dt).sum(0),
               2.0 * (xp * dp).sum(0))
        return (self._gradient(basis, xt, xp, lin)
                + gamma2 * (rows.T @ (rows @ v)))

    def _krylov_step(self, basis, xt, xp, normal, g, forcing=KRYLOV_FORCING):
        """Preconditioned CG for the normal equations with right-hand side
        ``g``, to a residual of ``forcing`` times |g|. ``normal`` is the
        ``_normal_diagonal`` at (x, xt, xp). The preconditioner is the held
        Cholesky factor when it is of this degree, else the Jacobi diagonal."""
        diag, gamma2, rows = normal
        if self._factor is not None and self._factor[0] == basis.lmax:
            factor = self._factor[1]

            def precondition(r):
                return scipy.linalg.cho_solve(factor, r, check_finite=False)
        else:
            def precondition(r):
                return r / diag
        step, r = np.zeros_like(g), g.copy()
        d = precondition(r)
        rz = r @ d
        stop = forcing * np.linalg.norm(g)
        for _ in range(g.size):         # the exact-arithmetic bound
            if np.linalg.norm(r) <= stop:
                break
            q = self._normal_product(basis, xt, xp, gamma2, rows, d)
            self._krylov_iterations += 1
            alpha = rz / (d @ q)
            step += alpha * d
            r -= alpha * q
            z = precondition(r)
            rz, rz_old = r @ z, rz
            d = z + (rz / rz_old) * d
        return step

    def _step(self, basis, x, xt, xp, normal, g, forcing=KRYLOV_FORCING):
        """``_krylov_step`` under the refactor rule. A held factor of another
        degree is dropped first; at degree <= ``L_P``, a solve that needs
        more than ``K_REFACTOR`` products factors the normal matrix at x,
        and that factor preconditions the solves after it."""
        if self._factor is not None and self._factor[0] != basis.lmax:
            self._factor = None
        before = self._krylov_iterations
        step = self._krylov_step(basis, xt, xp, normal, g, forcing)
        if (basis.lmax <= L_P
                and self._krylov_iterations - before > K_REFACTOR):
            self._factor = None         # free the old factor first
            self._factor = (basis.lmax, self._factorize(
                self._normal_matrix(basis, x, xt, xp)))
        return step

    def _factorize(self, jtj):
        """Cholesky factor of ``jtj`` plus a 1e-14 relative diagonal shift,
        computed in the memory of ``jtj``."""
        diagonal = np.diag_indices_from(jtj)
        jtj[diagonal] += 1e-14 * jtj[diagonal].max()
        # jtj.T is the Fortran-ordered view of the same symmetric matrix.
        return scipy.linalg.cho_factor(jtj.T, lower=False, overwrite_a=True,
                                       check_finite=False)

    # -- Gauss-Newton core ---------------------------------------------------

    def _gauss_newton(self, coeffs, basis, target, tol):
        """Iterate to ``tol``; returns (coeffs, coordinates x, rel, ok).

        Each step is one ``_step``. Ends early, with ``ok`` false unless
        ``tol`` is met, when six dampings of a step all fail or when a step
        gains less than ``FLOOR_GAIN`` of the objective (the truncation
        floor).
        """
        x, xt, xp = self._fields(basis, coeffs)
        res = self._residual(xt, xp, target)
        obj = self._objective(res)
        rel = _max_rel(res, target)
        for _ in range(MAX_GN_ITER):
            if rel < tol:
                break
            step = self._step(basis, x, xt, xp,
                              self._normal_diagonal(basis, x, xt, xp),
                              self._gradient(basis, xt, xp, res)).reshape(3, -1)
            for damp in 0.25 ** np.arange(6):
                trial = coeffs - damp * step
                x2, xt2, xp2 = self._fields(basis, trial)
                res2 = self._residual(xt2, xp2, target)
                obj2 = self._objective(res2)
                if np.isfinite(obj2) and obj2 < obj:
                    break
            else:
                break
            flat = obj2 > (1.0 - FLOOR_GAIN) * obj
            coeffs, x, xt, xp, res, obj = trial, x2, xt2, xp2, res2, obj2
            rel = _max_rel(res, target)
            if flat:
                break
        return coeffs, x, rel, rel < tol

    def solve(self, sigma_hat, check_curvature=True):
        """Solve <dX, dX> = sigma_hat; returns an :class:`EmbeddingR3`.

        Starts from the better, by max-node relative residual, of the
        previous solution and the area-matched round sphere at ``L_START``.
        Gauss-Newton from the previous solution keeps its degree; if it
        misses ``tol``, or the round sphere fits better, the solve is cold:
        Gauss-Newton from the round sphere, growing the degree on each floor
        below the cap to the one its coefficients predict (``_next_degree``).
        A floor at the cap raises :class:`ConvergenceError` carrying the last
        iterate (``diagnostics["last_iterate"]``), the cap (``"l_cap"``) and
        the residual floor (``"floor"``).
        """
        grid = self.grid
        if sigma_hat.grid is not grid:
            raise PreconditionError("metric grid does not match solver grid")
        if check_curvature:
            calc.require_positive_curvature(
                sigma_hat, "isometric embedding target", PreconditionError)
        target = np.stack(sigma_hat.components())
        self._krylov_iterations = 0

        def start_rel(basis, coeffs):
            _, xt, xp = self._fields(basis, coeffs)
            return _max_rel(self._residual(xt, xp, target), target)

        basis = grid.basis(min(L_START, self.l_cap), lmin=1)
        radius = np.sqrt(calc.area(sigma_hat) / (4.0 * np.pi))
        coeffs = basis.analyze(radius * grid.unit_sphere)
        if self._warm is not None:
            warm_basis, warm = self._warm
            if start_rel(warm_basis, warm) < start_rel(basis, coeffs):
                warm, x, rel, ok = self._gauss_newton(
                    warm, warm_basis, target, self.tol)
                if ok:
                    return self._package(warm_basis, warm, x, rel,
                                         warm_start=True)

        while True:
            coeffs, x, rel, ok = self._gauss_newton(
                coeffs, basis, target, self.tol)
            if ok:
                return self._package(basis, coeffs, x, rel)
            if basis.lmax == self.l_cap:
                raise ConvergenceError(
                    f"embedding residual floor {rel:.3e} at the degree cap "
                    f"L={self.l_cap} exceeds tolerance {self.tol:.1e}",
                    diagnostics={
                        "last_iterate": self._package(basis, coeffs, x, rel),
                        "l_cap": self.l_cap, "floor": float(rel),
                        "krylov_iterations": self._krylov_iterations})
            # Truncation-limited: enlarge the basis, keeping the coefficients.
            basis = grid.basis(self._next_degree(basis, coeffs, rel), lmin=1)
            coeffs = np.pad(coeffs,
                            ((0, 0), (0, basis.n_modes - coeffs.shape[1])))

    def _next_degree(self, basis, coeffs, floor):
        """Degree after a truncation floor ``floor`` of the iterate ``coeffs``
        at degree L = ``basis.lmax`` below the cap.

        Spectral coefficients decay geometrically, so the norms e_l of the
        degree-l coefficients of all three coordinates say how far to go.
        max(e_(l-1), e_l) bridges the degrees that symmetric surfaces leave
        zero; its logarithm, fitted linearly over the degrees above L/2,
        falls with slope s. For s < 0 the next degree is the one at which
        ``floor``, falling at that rate, reaches ``tol``/10, at least L + 8
        and at most the cap; when no decay shows, it is L + 8.
        """
        lmax = basis.lmax
        norms = np.sqrt(np.bincount(basis.degrees.astype(int),
                                    weights=(coeffs * coeffs).sum(0)))
        ells = np.arange(lmax // 2 + 1, lmax + 1)     # the degrees above L/2
        envelope = np.maximum(norms[ells], norms[ells - 1])
        slope = np.polyfit(ells, np.log(envelope), 1)[0]
        grow = 8
        if slope < 0:
            grow = max(grow, int(np.ceil(np.log(self.tol / 10 / floor)
                                         / slope)))
        return min(lmax + grow, self.l_cap)

    def tangent(self, space, deltas):
        """Shifts dX (K, 3, n_theta, n_phi) of the embedding ``space`` for K
        changes ``deltas`` (K, 3, n_theta, n_phi) of its metric's (tt, tp, pp).

        Each solves the linearized isometry equation in ``space``'s degree:
        (J^T W J + gamma^2 R^T R) dc = J^T W delta at ``space``, by one
        ``_step`` to ``TANGENT_FORCING``. The directions share one Jacobi
        diagonal and the held factor; the warm iterate is kept.
        """
        basis = self.grid.basis(space.l_max, lmin=1)
        x = space.xyz
        xt, xp = space.tangents
        rhs = self._gradient(basis, xt, xp, deltas.swapaxes(0, 1))
        normal = self._normal_diagonal(basis, x, xt, xp)
        steps = np.stack([self._step(basis, x, xt, xp, normal, g,
                                     TANGENT_FORCING) for g in rhs])
        return basis.synthesize(steps.reshape(len(rhs), 3, -1))

    def _package(self, basis, coeffs, x, rel, warm_start=False):
        self._warm = (basis, coeffs.copy())
        rel = float(rel)
        emb = EmbeddingR3(self.grid, x, rel, basis.lmax)
        # Pin the induced-measure centroid at the origin.
        offset = -_area_centroid(emb.xyz, emb.induced_metric())
        return EmbeddingR3(self.grid, emb.xyz + offset[:, None, None], rel,
                           basis.lmax, warm_start, self._krylov_iterations)


def extract_geometry(emb):
    """Outward normal, second fundamental form and curvatures of ``emb``."""
    grid = emb.grid
    xt, xp = emb.tangents

    raw = np.cross(xt, xp, axis=0)
    norm = np.sqrt((raw * raw).sum(0))
    scale = np.max((xt * xt).sum(0)) * np.max(np.abs(grid.sin_theta))
    if np.any(norm < 1e-12 * scale):
        raise GeometryError(
            f"degenerate tangent plane at node {worst_node(norm)}")
    sigma = emb.induced_metric()
    nu = raw / norm
    x = emb.xyz - _area_centroid(emb.xyz, sigma)[:, None, None]
    if np.sum(grid.quad_weights * (x * nu).sum(0)) < 0:
        nu = -nu

    xtt = grid.dtheta(xt, 1)
    xtp = grid.dphi(xt)
    xpp = grid.dphi(xp)
    h = SymTensor2(grid,
                   -(xtt * nu).sum(0), -(xtp * nu).sum(0), -(xpp * nu).sum(0))
    itt, itp, ipp = sigma.inverse_components()
    mean_h = itt * h.tt + 2.0 * itp * h.tp + ipp * h.pp
    k_ext = h.det() / sigma.det()
    disc = np.sqrt(np.clip(mean_h ** 2 / 4.0 - k_ext, 0.0, None))
    return EmbeddedGeometry(
        normal=nu,
        mean_curvature=ScalarField(grid, mean_h),
        second_form=h,
        lambda1=ScalarField(grid, mean_h / 2.0 + disc),
        lambda2=ScalarField(grid, mean_h / 2.0 - disc),
    )


@dataclass(frozen=True)
class GraphEmbedding:
    """Spacelike graph X = (tau, ``space``) in Minkowski space.

    ``space`` embeds the graph metric ``sigma_hat``, ``dtau`` is the
    differential of tau and ``lap_tau`` its sigma-Laplacian (raw array), the
    time component of the mean-curvature vector.
    """

    space: EmbeddingR3
    sigma_hat: Metric2
    dtau: OneForm
    lap_tau: np.ndarray


def admissible_graph_metric(sigma, dtau):
    """Graph metric sigma + dtau (x) dtau; AdmissibilityError unless convex."""
    sigma_hat = calc.metric_add_dtau(sigma, dtau)
    calc.require_positive_curvature(
        sigma_hat, "time function (graph metric)", AdmissibilityError)
    return sigma_hat


def graph_embedding(sigma, tau, solver):
    """Lift (sigma, tau) to X = (tau, X_space) in Minkowski space.

    The spatial part isometrically embeds sigma + dtau (x) dtau with the
    :class:`WeylSolver` ``solver``; see :func:`lift_graph`. Raises
    :class:`AdmissibilityError` when the graph metric is not strictly convex.
    """
    dtau = calc.gradient(sigma, tau)
    sigma_hat = admissible_graph_metric(sigma, dtau)
    return lift_graph(sigma, dtau, sigma_hat,
                      solver.solve(sigma_hat, check_curvature=False))


def lift_graph(sigma, dtau, sigma_hat, space):
    """Graph X = (tau, ``space``) for an embedding ``space`` of the graph
    metric ``sigma_hat`` = sigma + dtau (x) dtau; its induced Lorentz metric
    is sigma up to the isometry residual of ``space``."""
    same_grid(sigma, dtau, sigma_hat)
    return GraphEmbedding(space=space, sigma_hat=sigma_hat, dtau=dtau,
                          lap_tau=calc.divergence(sigma, dtau).values)
