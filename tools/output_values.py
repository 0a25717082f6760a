"""Print every numeric output the benchmark checks, for bit-identity diffs.

    python3 tools/output_values.py TREE > values.txt

TREE is a checkout of this repository: ``qlm`` is imported from TREE/src and
``perfbench.workloads`` from TREE. The output lists

* the SHA-256 of the acceptance-registry CSV at resolution 48 and seed 42,
  then each row's ``actual``;
* the SHA-256 of the ``mass_density`` values of the registry's
  Schwarzschild r = 4 sphere at tau = 0 and of its light-cone cut at the
  cut's own time function;
* the outputs of one ``sharp_cut48`` unit;
* the outputs of one ``surface_stream32`` unit at seed 1;

each other value as a ``repr`` float. ``diff`` of the output for two trees shows
every value a change moves. BLAS is pinned to one thread before numpy loads,
as in the test suite and the CLI, so the output is reproducible.
"""

import hashlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _unit(workload, workloads):
    """Set up ``workload`` in a temporary directory and run one unit."""
    with tempfile.TemporaryDirectory() as directory:
        workloads.fresh_grids()
        workload.setup(directory)
        workloads.fresh_grids()
        return workload.run_unit()


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[1])
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from perfbench import workloads
    from qlm import validate
    from qlm.fields import ScalarField
    from qlm.functionals import mass_density

    workloads.fresh_grids()
    results = validate.run_validation(workloads.VALIDATE_N,
                                      seed=workloads.REGISTRY_SEED)
    csv = validate.results_to_csv(results).encode()
    print(f"registry.csv sha256 {hashlib.sha256(csv).hexdigest()}")
    for r in results:
        print(f"registry.{r.check_id} {r.actual!r}")
    workloads.fresh_grids()
    ctx = validate.ValidationContext(workloads.VALIDATE_N,
                                     seed=workloads.REGISTRY_SEED)
    schw, cut = ctx.schwarzschild(4.0), ctx.lightcone()
    for name, data, tau in (
            ("schwarzschild-r4-tau0", schw.data, ScalarField.zero(ctx.grid)),
            ("lightcone-cut-tau-bar", cut.data, cut.tau_bar)):
        rho = mass_density(data, tau, workspace=ctx.workspace).values
        print(f"mass_density.{name} sha256 "
              f"{hashlib.sha256(rho.tobytes()).hexdigest()}")
    for name, workload in (("sharp_cut48", workloads.SharpCut()),
                           ("surface_stream32", workloads.SurfaceStream(1))):
        for i, value in enumerate(_unit(workload, workloads).values):
            print(f"{name}[{i}] {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
