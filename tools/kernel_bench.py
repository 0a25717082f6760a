"""Median time per call of the harmonic kernels at n = 48, one line per degree.

    python3 tools/kernel_bench.py TREE > kernels.txt

TREE is a checkout of this repository; ``qlm`` is imported from TREE/src.
On the 48 x 96 grid and at each degree L in (10, 18, 26, 32), with lmin = 1
as in the Weyl solver, the columns are milliseconds per call of

* ``RealHarmonicBasis.synthesize`` of three coordinate functions (3, M),
  for the field, its theta and its phi derivative;
* ``RealHarmonicBasis.project`` of three fields (3, n_theta, n_phi), for
  the same three derivatives;
* one ``derivative_gram`` block with the normal matrix's weights;
* one ``WeylSolver._normal_product``, the conjugate-gradient product.

The inputs are the coefficients and fields of a smooth star-shaped surface
with no symmetry axis. Each figure is the median of seven timed batches,
each of at least 50 ms. BLAS is pinned to one thread before numpy loads, so
the outputs for two trees compare the kernels layer by layer.
"""

import os
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

N = 48
DEGREES = (10, 18, 26, 32)
DERIVATIVES = (None, "theta", "phi")
BATCHES = 7
BATCH_SECONDS = 0.05


def per_call_ms(call):
    """Median over ``BATCHES`` timed batches of milliseconds per call."""
    call()
    count, start = 0, time.perf_counter()
    while time.perf_counter() - start < BATCH_SECONDS:
        call()
        count += 1
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(count):
            call()
        times.append((time.perf_counter() - start) / count)
    return 1e3 * statistics.median(times)


def kernels(grid, solver, lmax):
    """(column name, zero-argument call) of every timed kernel at ``lmax``."""
    import numpy as np

    th, ph = grid.nodes
    radius = (1.0 + 0.1 * np.sin(th) * np.cos(ph)
              + 0.08 * np.sin(th) ** 2 * np.sin(2.0 * ph) + 0.05 * np.cos(th))
    basis = grid.basis(lmax, lmin=1)
    coeffs = basis.analyze(radius * grid.unit_sphere)
    x, xt, xp = (basis.synthesize(coeffs, d) for d in DERIVATIVES)
    _, gamma2, rows = solver._normal_diagonal(basis, x, xt, xp)
    weights = solver._gram_weights(xt[0], xt[1], xp[0], xp[1])
    v = np.random.default_rng(lmax).standard_normal(3 * basis.n_modes)
    for d in DERIVATIVES:
        yield f"synth_{d or 'f'}", lambda d=d: basis.synthesize(coeffs, d)
    for d in DERIVATIVES:
        yield f"proj_{d or 'f'}", lambda d=d: basis.project(x, d)
    yield "gram", lambda: basis.derivative_gram(*weights)
    yield "normal_product", lambda: solver._normal_product(
        basis, xt, xp, gamma2, rows, v)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    from qlm.embedding import WeylSolver
    from qlm.grid import sphere_grid

    grid = sphere_grid(N, 2 * N)
    solver = WeylSolver(grid)
    for lmax in DEGREES:
        row = [f"{name}={per_call_ms(call):.4f}"
               for name, call in kernels(grid, solver, lmax)]
        print(f"n={N} L={lmax} ms/call " + " ".join(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
