"""Command-line front end.

Subcommands: compute, catalog, optimal, validate, plotdata. Exit codes:
0 success, 1 validation failure, 2 input error, 3 solver failure. The
QLM_THREADS environment variable (default 1) pins the linear-algebra thread
count before the numerical stack is imported, which keeps outputs
byte-reproducible for a fixed thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Bounds of --resolution n, for an n x 2n grid. n = 9 is the coarsest grid
# whose harmonic support n - 1 holds the Weyl solver's full degree floor of 8
# (embedding.WeylSolver.l_cap); coarser data files still solve, with the cap
# clipped to n - 1, but the CLI does not generate them. The largest matrix the
# Weyl solver forms is the (3M)^2 normal matrix of degree 18, M = 360 (9 MiB);
# above it the solver holds only vectors and grid fields. A sharp light-cone
# cut peaks at 82 MiB at n = 48 (L = 32) and 89 MiB at n = 72 (L = 34).
RESOLUTION_MIN = 9
RESOLUTION_MAX = 72


def _setup_threads():
    n = os.environ.get("QLM_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _fmt(x):
    return format(float(x), ".17g")


def _emit_json(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _modes(spec):
    """argparse type: 'l,m,kind:amp;l,m,kind:amp' as a mode dictionary."""
    modes = {}
    try:
        for chunk in filter(None, spec.split(";")):
            key, amp = chunk.split(":")
            ell, m, kind = (int(v) for v in key.split(","))
            modes[(ell, m, kind)] = _finite_float(amp)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'l,m,kind:amp;...', got {spec!r}") from None
    return modes


def _r_range(text):
    """argparse type: 'lo:hi[:num]' as (lo, hi, num); num >= 1, default 32."""
    parts = text.split(":") + ["32"]
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected 'lo:hi[:num]', got {text!r}")
    return (*map(_finite_float, parts[:2]), _positive_int(parts[2]))


def _number(convert, holds, requirement):
    """argparse type: ``convert`` the text, then require ``holds`` of it."""
    kind = "an integer" if convert is int else "a number"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind}, got {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    return parse


_finite_float = _number(float, math.isfinite, "must be finite")
_positive_float = _number(float, lambda v: v > 0.0 and math.isfinite(v),
                          "must be positive and finite")
_positive_int = _number(int, lambda v: v >= 1, "must be at least 1")
_nonnegative_int = _number(int, lambda v: v >= 0, "must be at least 0")
_resolution = _number(int, lambda n: RESOLUTION_MIN <= n <= RESOLUTION_MAX,
                      f"must lie in [{RESOLUTION_MIN}, {RESOLUTION_MAX}]")


def _axes(text):
    """argparse type: 'a,b,c' as three positive semi-axes."""
    axes = tuple(_positive_float(v) for v in text.split(","))
    if len(axes) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {text!r}")
    return axes


def _require_converged(result, tol):
    """Refuse a critical-point solve that stopped at its iteration cap."""
    from .errors import ConvergenceError

    if not result.converged:
        raise ConvergenceError(
            f"optimizer hit the iteration cap at residual "
            f"{result.el_residual_norm:.3e} (tol {tol:.1e})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args):
    import numpy as np
    from .datafile import load_surface_data
    from .errors import QlmError
    from .fields import ScalarField
    from .functionals import (EnergyWorkspace, byly_mass, hawking_mass,
                              wang_yau_energy)

    loaded = load_surface_data(args.input)
    data = loaded.data
    report = {
        "input": args.input,
        "which": args.which,
        "grid": {"n_theta": data.grid.n_theta, "n_phi": data.grid.n_phi},
    }
    workspace = EnergyWorkspace(data.grid, weyl_tol=args.weyl_tol)
    if args.which == "hawking":
        report["value"] = hawking_mass(data)
    elif args.which == "byly":
        tau = ScalarField.zero(data.grid)
        report["value"] = byly_mass(data, workspace=workspace)
    else:
        if loaded.tau is not None:
            tau = loaded.tau
        elif args.tau_zero:
            tau = ScalarField.zero(data.grid)
        else:
            raise QlmError("wangyau requires a tau array in the file "
                           "or the --tau-zero flag")
        breakdown = wang_yau_energy(data, tau, workspace=workspace)
        report["value"] = breakdown.energy
        report["reference_term"] = breakdown.reference_term
        report["physical_term"] = breakdown.physical_term
        report["theta_sup"] = float(np.max(np.abs(breakdown.theta.values)))
    if args.which != "hawking":
        report["weyl_residual"] = workspace.graph_state(
            data.sigma, tau)["graph"].space.residual
    _emit_json(report, args.out)
    return 0


def cmd_catalog(args):
    from .catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                          minkowski_surface_data, schwarzschild_sphere_data)
    from .datafile import save_surface_data
    from .grid import sphere_grid

    grid = sphere_grid(args.resolution, 2 * args.resolution)
    refs = {}
    if args.kind == "schwarzschild":
        sphere = schwarzschild_sphere_data(SphericalSphereSpec(args.m, args.r), grid)
        data, tau = sphere.data, None
        refs = {k: float(v) for k, v in sphere.refs.items()}
        meta = {"kind": "schwarzschild", "m": args.m, "r": args.r}
    else:
        if args.kind == "lightcone":
            spec = MinkowskiSurfaceSpec(
                "lightcone_cut",
                log_modes=args.modes or {(args.bump_l, 0, 0): args.bump})
            meta = {"kind": args.kind,
                    "log_modes": {f"{k[0]},{k[1]},{k[2]}": v
                                  for k, v in spec.log_modes.items()}}
        elif args.kind == "flat":
            spec = MinkowskiSurfaceSpec("flat_r3", axes=args.axes)
            meta = {"kind": args.kind, "axes": list(args.axes)}
        elif args.kind == "boosted":
            spec = MinkowskiSurfaceSpec("boosted_sphere", radius=args.r,
                                        velocity=args.v)
            meta = {"kind": args.kind, "r": args.r, "v": args.v}
        else:
            spec = MinkowskiSurfaceSpec("graph", radius=args.r,
                                        tau_modes=args.modes)
            meta = {"kind": args.kind, "r": args.r,
                    "tau_modes": {f"{k[0]},{k[1]},{k[2]}": v
                                  for k, v in spec.tau_modes.items()}}
        surface = minkowski_surface_data(spec, grid)
        data, tau = surface.data, surface.tau_bar
        refs = {"wang_yau_energy_at_tau_bar": 0.0, "hawking_upper_bound": 0.0}
    save_surface_data(args.out, data, tau=tau, metadata=meta)
    with open(args.out + ".refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def cmd_optimal(args):
    import numpy as np
    from .datafile import load_surface_data
    from .errors import PreconditionError
    from .fields import ScalarField
    from .functionals import EnergyWorkspace
    from .optimal import _probe_degree, hessian_check, solve_optimal

    loaded = load_surface_data(args.input)
    data = loaded.data
    grid = data.grid
    if args.hessian:
        # Refuse a probe basis the grid cannot hold before the solve.
        degree = _probe_degree(args.hessian)
        if degree > grid.max_degree:
            raise PreconditionError(
                f"--hessian {args.hessian} needs probe degree {degree}, "
                f"above the grid's {grid.max_degree}")
    if args.tau0_y10 is not None:
        tau0 = ScalarField.from_modes(grid, {(1, 0, 0): args.tau0_y10})
    elif loaded.tau is not None:
        tau0 = loaded.tau
    else:
        tau0 = ScalarField.zero(grid)
    workspace = EnergyWorkspace(grid, weyl_tol=args.weyl_tol)
    result = solve_optimal(data, tau0, workspace=workspace, tol=args.tol,
                           l_max_tau=args.l_max_tau, max_iter=args.max_iter)
    _require_converged(result, args.tol)
    report = {
        "input": args.input,
        "converged": result.converged,
        "iterations": result.iterations,
        "energy": result.energy,
        "el_residual_norm": result.el_residual_norm,
        "tau_star_sup": float(np.max(np.abs(result.tau_star.values))),
        "tau_star": result.tau_star.values.ravel().tolist(),
    }
    if args.hessian:
        rep = hessian_check(data, result.tau_star, n_modes=args.hessian,
                            workspace=workspace,
                            residual_tol=max(1e-5, 10 * args.tol))
        report["hessian_eigenvalues"] = [float(v) for v in rep.eigenvalues]
        report["hessian_min_eigenvalue"] = rep.min_eigenvalue
    _emit_json(report, args.out)
    return 0


def cmd_validate(args):
    from .validate import check_ids, results_to_csv, run_validation

    only = None
    if args.only is not None:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        if not only or set(only) - set(check_ids()):
            print(f"--only must name known check ids, got {args.only!r}",
                  file=sys.stderr)
            return 2
    results = run_validation(resolution=args.resolution, only=only,
                             seed=args.seed)
    csv_text = results_to_csv(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAIL {r.check_id}: |{r.actual:.6g} - {r.expected:.6g}| "
              f"> {r.tolerance:.3g}", file=sys.stderr)
    return 1 if failed else 0


def cmd_plotdata(args):
    import numpy as np

    os.makedirs(args.outdir, exist_ok=True)
    if args.kind == "mass-curves":
        from .catalog import SphericalSphereSpec, schwarzschild_sphere_data
        from .functionals import EnergyWorkspace, byly_mass, hawking_mass
        from .grid import sphere_grid

        lo, hi, num = args.r_range
        grid = sphere_grid(args.resolution, 2 * args.resolution)
        workspace = EnergyWorkspace(grid)
        rows = ["r,hawking,byly"]
        for r in np.linspace(lo, hi, num):
            data = schwarzschild_sphere_data(
                SphericalSphereSpec(args.m, float(r)), grid).data
            rows.append(f"{_fmt(r)},{_fmt(hawking_mass(data))},"
                        f"{_fmt(byly_mass(data, workspace=workspace))}")
        path = os.path.join(args.outdir, "mass_curves.csv")
    elif args.kind == "shi-tam":
        from .radial import _require_below_horizon, e_of_r, shi_tam_flow

        _require_below_horizon(args.E, args.r0)
        u0 = 1.0 / np.sqrt(1.0 - 2.0 * args.E / args.r0)
        state = shi_tam_flow(args.r0, u0, r_max=max(2048.0, 2.5 * args.r_far))
        table = e_of_r(state, np.geomspace(args.r0, args.r_far, args.samples))
        rows = ["r,e"] + [f"{_fmt(r)},{_fmt(e)}" for r, e in table]
        path = os.path.join(args.outdir, "shi_tam_e_of_r.csv")
    else:  # stability
        from .datafile import load_surface_data
        from .errors import InputFileError
        from .fields import ScalarField
        from .functionals import EnergyWorkspace, wang_yau_energy
        from .optimal import solve_optimal

        if args.input is None:
            raise InputFileError("plotdata stability needs --input")
        loaded = load_surface_data(args.input)
        data = loaded.data
        grid = data.grid
        workspace = EnergyWorkspace(grid, weyl_tol=1e-11)
        tau0 = (loaded.tau if loaded.tau is not None
                else ScalarField.zero(grid))
        result = solve_optimal(data, tau0, workspace=workspace, tol=args.tol)
        _require_converged(result, args.tol)
        direction = ScalarField.from_modes(grid, {(2, 0, 0): 1.0})
        rows = ["s,energy"]
        for s in np.linspace(-args.span, args.span, args.samples):
            tau = result.tau_star + direction * float(s)
            e = wang_yau_energy(data, tau, workspace=workspace).energy
            rows.append(f"{_fmt(s)},{_fmt(e)}")
        path = os.path.join(args.outdir, "stability_curve.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlm",
        description="Quasi-local mass/energy of spacelike 2-surfaces")
    parser.add_argument("--version", action="version",
                        version="%(prog)s 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)
    resolution = {"type": _resolution, "default": 48, "help": "grid colatitude "
                  f"nodes n, {RESOLUTION_MIN}..{RESOLUTION_MAX}; the grid is n x 2n"}

    p = sub.add_parser("compute", help="evaluate a mass/energy on a data file")
    p.add_argument("input", help="surface-data JSON file")
    p.add_argument("--which", required=True,
                   choices=["hawking", "byly", "wangyau"])
    p.add_argument("--tau-zero", action="store_true",
                   help="use tau = 0 when the file has no tau array")
    p.add_argument("--weyl-tol", type=_positive_float, default=1e-8)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("catalog", help="generate exact surface data")
    p.add_argument("kind", choices=["schwarzschild", "lightcone", "flat",
                                    "boosted", "graph"])
    p.add_argument("--m", type=_finite_float, default=1.0, help="mass parameter")
    p.add_argument("--r", type=_finite_float, default=4.0, help="areal radius")
    p.add_argument("--v", type=_finite_float, default=0.3, help="boost velocity")
    p.add_argument("--bump", type=_finite_float, default=0.1,
                   help="zonal log-amplitude of a light-cone cut")
    p.add_argument("--bump-l", type=int, default=2)
    p.add_argument("--axes", type=_axes, default="1,1,1.2",
                   help="flat ellipsoid axes 'a,b,c'")
    p.add_argument("--modes", type=_modes, default="",
                   help="harmonic modes 'l,m,kind:amp;...' (graph/lightcone)")
    p.add_argument("--resolution", **resolution)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("optimal", help="solve for a critical time function")
    p.add_argument("input")
    p.add_argument("--tau0-y10", type=_finite_float, default=None,
                   help="start from this amplitude of the first zonal mode")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--l-max-tau", type=_positive_int, default=16)
    p.add_argument("--max-iter", type=_positive_int, default=200)
    p.add_argument("--weyl-tol", type=_positive_float, default=1e-10)
    p.add_argument("--hessian", type=_nonnegative_int, default=0,
                   help="append a reduced-Hessian spectrum of this many modes")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.add_argument("--resolution", **resolution)
    p.add_argument("--only", help="comma-separated check ids")
    p.add_argument("--seed", type=_nonnegative_int, default=42)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plotdata", help="emit CSV curves for external plotting")
    p.add_argument("kind", choices=["mass-curves", "shi-tam", "stability"])
    p.add_argument("--m", type=_finite_float, default=1.0)
    p.add_argument("--r-range", type=_r_range, default="2.5:20",
                   help="lo:hi[:num]")
    p.add_argument("--r0", type=_positive_float, default=4.0)
    p.add_argument("--E", type=_finite_float, default=1.0)
    p.add_argument("--r-far", type=_positive_float, default=1000.0)
    p.add_argument("--samples", type=_positive_int, default=33)
    p.add_argument("--span", type=_positive_float, default=0.05)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--input", help="surface-data file (stability)")
    p.add_argument("--resolution", **resolution)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    _setup_threads()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Usage errors (exit 2), --help and --version.
        return exc.code
    from numpy.linalg import LinAlgError

    from .errors import ConvergenceError, GeometryError, QlmError
    try:
        return args.func(args)
    except (ConvergenceError, GeometryError, LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.diagnostics:
            safe = {k: v for k, v in exc.diagnostics.items()
                    if isinstance(v, (int, float, str))}
            print(f"diagnostics: {json.dumps(safe, sort_keys=True)}",
                  file=sys.stderr)
        return 3
    except (QlmError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
