import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import ellipsoid_mean_curvature
from qlm import calculus as calc
from qlm.catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                         lightcone_rigidity_report, minkowski_surface_data,
                         mass_relation_check, schwarzschild_sphere_data,
                         symmetric_sphere_data)
from qlm.errors import DomainError, GenerationError
from qlm.fields import Metric2
from qlm.functionals import byly_mass, hawking_mass, wang_yau_energy
from qlm.grid import sphere_grid

CUT_BUMP = {(2, 0, 0): 0.12, (1, 0, 0): 0.05}


def test_schwarzschild_closed_forms(grid32):
    spec = SphericalSphereSpec(1.0, 4.0)
    sphere = schwarzschild_sphere_data(spec, grid32)
    assert_allclose(sphere.data.h_norm.values, 0.5 * np.sqrt(0.5), rtol=1e-15)
    assert sphere.refs["m_hawking"] == 1.0
    assert_allclose(sphere.refs["M_byly"], 4.0 * (1.0 - np.sqrt(0.5)), rtol=1e-15)
    assert np.max(np.abs(sphere.data.alpha.a_theta)) == 0.0


def test_schwarzschild_flat_limit(grid32):
    sphere = schwarzschild_sphere_data(SphericalSphereSpec(0.0, 2.0), grid32)
    assert abs(hawking_mass(sphere.data)) < 1e-12
    assert sphere.refs["M_byly"] == 0.0


def test_schwarzschild_horizon_and_domain():
    # |H| = (2/r) sqrt(1 - 2m/r) vanishes on the horizon: refused with the
    # spheres inside it.
    for r in (2.0, 1.5):
        with pytest.raises(DomainError, match="on or inside the horizon"):
            SphericalSphereSpec(1.0, r)


@pytest.mark.parametrize("m, r", [(np.nan, 4.0), (1.0, np.nan), (np.inf, 4.0),
                                  (1.0, np.inf)])
def test_spherical_spec_refuses_non_finite_parameters(m, r):
    with pytest.raises(DomainError, match="must be finite"):
        SphericalSphereSpec(m, r)


def test_catalog_roundtrip_reproduces_references(grid32, ws32, schw32):
    assert abs(hawking_mass(schw32.data) - schw32.refs["m_hawking"]) < 1e-7
    assert abs(byly_mass(schw32.data, workspace=ws32) - schw32.refs["M_byly"]) < 1e-7


def test_mass_relation(grid32):
    for r in (3.0, 4.0, 10.0):
        assert mass_relation_check(SphericalSphereSpec(1.0, r)) < 1e-12
    assert mass_relation_check(SphericalSphereSpec(0.0, 5.0)) == 0.0


def test_flat_ellipsoid_data(grid32, flat_ellipsoid32):
    data = flat_ellipsoid32.data
    assert np.max(np.abs(data.alpha.a_theta)) < 1e-12
    assert np.max(np.abs(data.alpha.a_phi)) < 1e-12
    assert np.max(np.abs(flat_ellipsoid32.tau_bar.values)) < 1e-12
    th, ph = grid32.nodes
    assert_allclose(data.h_norm.values,
                    ellipsoid_mean_curvature((1.0, 1.0, 1.2), th, ph),
                    atol=1e-9)


def test_round_lightcone_cut(grid32):
    cut = minkowski_surface_data(MinkowskiSurfaceSpec("lightcone_cut"), grid32)
    assert_allclose(cut.data.h_norm.values, 2.0, atol=1e-10)
    assert np.max(np.abs(cut.data.alpha.a_theta)) < 1e-9
    assert_allclose(cut.data.sigma.tt, 1.0, atol=1e-10)


def test_lightcone_curvature_identity(grid32, lightcone32):
    k = calc.gauss_curvature(lightcone32.data.sigma)
    assert_allclose(k.values, lightcone32.data.h_norm.values ** 2 / 4.0,
                    atol=1e-7)


def test_lightcone_rigidity_reports(grid32, ws32, lightcone32):
    round_cut = minkowski_surface_data(MinkowskiSurfaceSpec("lightcone_cut"), grid32)
    assert abs(hawking_mass(round_cut.data)) < 1e-9
    assert abs(hawking_mass(lightcone32.data)) < 1e-7
    round_rep = lightcone_rigidity_report(round_cut.data, workspace=ws32)
    assert abs(round_rep.byly) < 1e-9
    assert abs(round_rep.byly_from_principal_curvatures) < 1e-9

    bumped = lightcone_rigidity_report(lightcone32.data, workspace=ws32)
    assert bumped.byly > 1e-8
    assert bumped.mismatch < 1e-6

    # Flat non-round surfaces have negative Hawking mass.
    flat = minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.2)), grid32)
    assert hawking_mass(flat.data) < 0.0


def test_every_minkowski_surface_has_zero_energy(grid32, ws32):
    specs = [MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.2)),
             MinkowskiSurfaceSpec("lightcone_cut", log_modes=CUT_BUMP),
             MinkowskiSurfaceSpec("boosted_sphere", velocity=0.3),
             MinkowskiSurfaceSpec("graph",
                                  tau_modes={(2, 0, 0): 0.12, (2, 1, 1): 0.06})]
    for spec in specs:
        surface = minkowski_surface_data(spec, grid32)
        e = wang_yau_energy(surface.data, surface.tau_bar, workspace=ws32)
        assert abs(e.energy) < 1e-6, spec.variant


def test_imcf_monotonicity_tables(grid32):
    # Hawking mass along the areal-radius foliation of a symmetric slice with
    # |grad r|^2 = w(r).
    rs = np.linspace(3.0, 12.0, 10)

    def masses(w):
        return np.array([hawking_mass(symmetric_sphere_data(grid32, r, w(r)))
                         for r in rs])

    assert_allclose(masses(lambda r: 1.0 - 2.0 / r), 1.0, atol=1e-10)
    assert np.max(np.abs(masses(lambda r: 1.0))) < 1e-12

    # Perturbed lapse profile: closed form m + eps/(2r), which decreases in r.
    eps = 0.1
    perturbed = masses(lambda r: 1.0 - 2.0 / r - eps / r ** 2)
    assert_allclose(perturbed, 1.0 + eps / (2.0 * rs), atol=1e-10)
    assert np.all(np.diff(perturbed) < 0.0)


def test_dumbbell_curvature_error_carries_node():
    # The surface of revolution r = 1 + 0.6 cos 2theta has a waist of
    # negative Gauss curvature.
    grid = sphere_grid(16, 32)
    th, _ = grid.nodes
    r = 1.0 + 0.6 * np.cos(2.0 * th)
    dr = -1.2 * np.sin(2.0 * th)
    sigma = Metric2(grid, r * r + dr * dr, np.zeros(grid.shape),
                    (r * np.sin(th)) ** 2)
    with pytest.raises(GenerationError) as err:
        calc.require_positive_curvature(sigma, "dumbbell", GenerationError)
    assert calc.gauss_curvature(sigma).values[err.value.node] <= 0.0


def test_generation_errors(grid32):
    with pytest.raises(GenerationError):
        MinkowskiSurfaceSpec("boosted_sphere", velocity=1.2)
    with pytest.raises(GenerationError):
        MinkowskiSurfaceSpec("no-such-variant")
    with pytest.raises(GenerationError):
        # Steep graph: induced metric is no longer spacelike.
        minkowski_surface_data(
            MinkowskiSurfaceSpec("graph", tau_modes={(1, 1, 0): 3.0}), grid32)
