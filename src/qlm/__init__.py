"""Quasi-local mass and energy of spacelike 2-surfaces.

Library layers:

* ``grid``, ``fields``, ``calculus`` - spectral calculus on the sphere for an
  arbitrary 2-metric;
* ``embedding`` - the convex isometric-embedding solver and extrinsic
  geometry;
* ``functionals`` - Hawking, Brown-York-Liu-Yau and Wang-Yau evaluators;
* ``optimal`` - critical time functions, stability and comparison checks;
* ``catalog`` - exact test configurations with closed-form references;
* ``radial`` - rotationally symmetric Jang and quasi-spherical reductions;
* ``datafile``, ``validate``, ``cli`` - persistence, acceptance checks and
  the command-line front end.

Each name below is imported on access and looked up anew every time
(PEP 562), so ``import qlm.cli`` loads no numpy before the CLI pins threads.
"""

import importlib

# Every submodule, with the names the package exports from it.
_EXPORTS = {
    "calculus": ("divergence", "gauss_curvature", "gradient", "integrate",
                 "laplacian", "metric_add_dtau"),
    "catalog": ("MinkowskiSurfaceSpec", "SphericalSphereSpec",
                "lightcone_rigidity_report", "mass_relation_check",
                "minkowski_surface_data", "schwarzschild_sphere_data",
                "surface_data_from_embedding"),
    "embedding": ("EmbeddedGeometry", "EmbeddingR3", "WeylSolver",
                  "extract_geometry", "graph_embedding"),
    "errors": ("QlmError",),
    "fields": ("Metric2", "OneForm", "ScalarField", "SymTensor2"),
    "functionals": ("EnergyBreakdown", "EnergyWorkspace", "SurfaceData",
                    "TimeFunction", "boost_angle", "byly_mass",
                    "gauge_functional", "hawking_mass", "mass_density",
                    "euler_lagrange_residual", "wang_yau_energy"),
    "grid": ("SphereGrid", "sphere_grid"),
    "optimal": ("OptimalSolveResult", "comparison_check", "hessian_check",
                "solve_optimal"),
    "radial": ("QuasiSphericalState", "RadialInitialData", "adm_energy_radial",
               "e_of_r", "jang_residual_radial", "shi_tam_flow",
               "solve_jang_radial"),
    "cli": (), "datafile": (), "harmonics": (), "validate": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
