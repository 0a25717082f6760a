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
"""

from .calculus import (divergence, gauss_curvature, gradient, gradient_raised,
                       integrate, laplacian, metric_add_dtau)
from .catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                      lightcone_rigidity_report, mass_relation_check,
                      minkowski_surface_data, schwarzschild_sphere_data,
                      surface_data_from_embedding, imcf_hawking_monotonicity)
from .embedding import (EmbeddedGeometry, EmbeddingR3, WeylOptions, WeylSolver,
                        extract_geometry, graph_embedding, herglotz_report,
                        minkowski_identity_residual, solve_weyl)
from .errors import QlmError
from .fields import Metric2, OneForm, ScalarField, SymTensor2
from .functionals import (EnergyBreakdown, EnergyWorkspace, SurfaceData,
                          TimeFunction, boost_angle, byly_mass, gauge_functional,
                          hawking_mass, mass_density, euler_lagrange_residual,
                          wang_yau_energy)
from .grid import SphereGrid, sphere_grid
from .optimal import (OptimalSolveOptions, OptimalSolveResult, comparison_check,
                      hessian_check, solve_optimal)
from .radial import (QuasiSphericalState, RadialInitialData, adm_energy_radial,
                     e_of_r, jang_residual_radial, shi_tam_flow,
                     shi_tam_positivity_instance, solve_jang_radial)

__version__ = "0.1.0"
