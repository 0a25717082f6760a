"""Cold Weyl solves over a fixed sweep of metrics, one line per case.

    python3 tools/solve_sweep.py TREE > sweep.txt

TREE is a checkout of this repository; ``qlm`` is imported from TREE/src.
Each case is one ``WeylSolver(grid, tol).solve`` on a fresh solver:

* at n = 24 and 32 and tol = 1e-8 and 1e-10: ellipsoids, light-cone cuts,
  spot cuts t = |x| = f with f = exp(h exp(s (cos(theta) - 1))), boosted
  spheres, and graph metrics round + dtau (x) dtau;
* the spot cut (h, s) = (0.2, 6) at n = 40, 48 and 72 and tol 1e-10.

Each line gives the case, the outcome (``ok``, or ``fail`` for a
``ConvergenceError``), the final degree L, the residual reached (the floor,
for a failure), the number of Cholesky factorizations and the number of
conjugate-gradient iterations (``-`` for a tree that does not count them).
``diff`` of the output for two trees shows every solve a change to the
degree path or the step moves. The total time goes to standard error, with
the case count by outcome and the total factorizations and iterations. BLAS
is pinned to one thread before numpy loads.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ELLIPSOIDS = [(1.0, 1.0, c) for c in (1.2, 1.5, 2.0, 2.5, 3.0, 0.5, 0.35)] + [
    (0.6, 1.0, 1.6), (0.5, 1.0, 2.0)]
CUTS = [{(2, 0, 0): 0.2}, {(2, 0, 0): 0.4}, {(1, 0, 0): 0.3, (2, 1, 0): 0.2}]
SPOTS = [(0.1, 4.0), (0.2, 6.0), (0.3, 8.0), (0.5, 4.0)]
VELOCITIES = [0.3, 0.6, 0.8, 0.9]
GRAPH_AMPLITUDES = [0.1, 0.2, 0.3, 0.45]
LARGE_SPOT = ((0.2, 6.0), (40, 48, 72), 1e-10)


def metrics(n):
    """(name, sigma) of every sweep metric on the n x 2n grid."""
    from qlm import calculus as calc
    from qlm.catalog import MinkowskiSurfaceSpec, minkowski_surface_data
    from qlm.fields import Metric2, ScalarField
    from qlm.grid import sphere_grid

    grid = sphere_grid(n, 2 * n)
    for axes in ELLIPSOIDS:
        spec = MinkowskiSurfaceSpec("flat_r3", axes=axes)
        yield f"ellipsoid{axes}", minkowski_surface_data(spec, grid).data.sigma
    for modes in CUTS:
        spec = MinkowskiSurfaceSpec("lightcone_cut", log_modes=modes)
        yield f"cut{sorted(modes.items())}", minkowski_surface_data(spec, grid).data.sigma
    for height, steepness in SPOTS:
        yield f"spot{(height, steepness)}", spot_metric(grid, height, steepness)
    for v in VELOCITIES:
        spec = MinkowskiSurfaceSpec("boosted_sphere", velocity=v)
        yield f"boosted{v}", minkowski_surface_data(spec, grid).data.sigma
    round_metric = Metric2.round(grid, 1.0)
    for a in GRAPH_AMPLITUDES:
        tau = ScalarField.from_modes(
            grid, {(2, 0, 0): a, (2, 1, 1): a / 2, (3, 1, 0): a / 3})
        yield f"graph{a}", calc.metric_add_dtau(
            round_metric, calc.gradient(round_metric, tau))


def spot_metric(grid, height, steepness):
    """Induced metric of the light-cone cut t = |x| = f."""
    import numpy as np
    from qlm.catalog import surface_data_from_embedding

    f = np.exp(height * np.exp(steepness * (np.cos(grid.nodes[0]) - 1.0)))
    data, _ = surface_data_from_embedding(
        grid, np.concatenate([f[None], f * grid.unit_sphere]))
    return data.sigma


def run_case(label, sigma, tol, factorizations):
    """Solve one case and print its line; returns (outcome, factorizations,
    iterations)."""
    from qlm.embedding import WeylSolver
    from qlm.errors import ConvergenceError

    before = len(factorizations)
    try:
        emb = WeylSolver(sigma.grid, tol).solve(sigma)
        outcome, l_max, rel = "ok", emb.l_max, emb.residual
        krylov = getattr(emb, "krylov_iterations", "-")
    except ConvergenceError as err:
        outcome, l_max, rel = ("fail", err.diagnostics["l_cap"],
                               err.diagnostics["floor"])
        krylov = err.diagnostics.get("krylov_iterations", "-")
    factored = len(factorizations) - before
    print(f"{label} tol={tol:.0e} {outcome} L={l_max} residual={rel:.4e} "
          f"factorizations={factored} krylov={krylov}", flush=True)
    return outcome, factored, krylov


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    import scipy.linalg
    from qlm.grid import sphere_grid

    factorizations = []
    original = scipy.linalg.cho_factor

    def counted(*args, **kwargs):
        factorizations.append(1)
        return original(*args, **kwargs)
    scipy.linalg.cho_factor = counted

    start = time.perf_counter()
    cases = []
    for n in (24, 32):
        for tol in (1e-8, 1e-10):
            for name, sigma in metrics(n):
                cases.append(run_case(f"n={n} {name}", sigma, tol,
                                      factorizations))
    (height, steepness), sizes, tol = LARGE_SPOT
    for n in sizes:
        sigma = spot_metric(sphere_grid(n, 2 * n), height, steepness)
        cases.append(run_case(f"n={n} spot{(height, steepness)}", sigma, tol,
                              factorizations))
    seconds = time.perf_counter() - start
    outcomes, factored, iterations = zip(*cases)
    counts = " ".join(f"{name}={outcomes.count(name)}"
                      for name in sorted(set(outcomes)))
    products = "-" if "-" in iterations else sum(iterations)
    print(f"sweep took {seconds:.1f} s: {len(cases)} cases ({counts}), "
          f"factorizations={sum(factored)} krylov={products}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
