"""The three benchmark workloads and the output checks that gate them.

Each workload is built from a seed, writes its inputs in ``setup`` into a
directory it is given and then runs identical *units* in the timed loop. A
unit starts from dropped interned grids and a fresh
:class:`qlm.EnergyWorkspace`, so it pays basis builds and cold solves as a
fresh ``qlm`` process would, and every unit of a run does the same work.

* ``validate48``: the acceptance registry at resolution 48 and its own seed,
  the whole contract of the paper (warm Weyl re-solves, graph-state cache,
  ``solve_optimal``, finite-difference Hessians, radial reductions).
* ``sharp_cut48``: a cold BYLY mass of a sharp light-cone cut at n=48, which
  escalates the Weyl solver to its degree cap: normal-matrix assembly and
  dense-basis memory, no optimal-embedding work.
* ``surface_stream32``: a seeded stream of distinct smooth surfaces at n=32,
  read back from data files and evaluated for Hawking, BYLY and Wang-Yau
  through one shared workspace, the foliation-scan use: warm starts across
  unrelated metrics, no cache reuse.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qlm import calculus, catalog, datafile, functionals, grid as qlm_grid, validate
from qlm.errors import QlmError
from qlm.fields import ScalarField

WEYL_TOL = 1e-10
# An n=32 grid resolves the stream's random cuts only to a Weyl residual of
# about 2.5e-10 at its degree cap L=21: at 1e-10, 5 of 80 cuts drawn failed
# with ConvergenceError. The stream solves to a tolerance the grid supports.
STREAM_WEYL_TOL = 1e-9
# Tolerances of the matching acceptance-registry rows, never looser.
HAWKING_TOL = 1e-7
BYLY_TOL = 1e-6
ENERGY_TOL = 1e-6
PRINCIPAL_TOL = 1e-6

REGISTRY_SEED = 42
VALIDATE_N = 48
SHARP_N = 48
STREAM_N = 32
SHARP_SPOT = (0.2, 6.0)
OPENER_SPOT = (0.1, 4.0)
STREAM_KINDS = ("schwarzschild", "lightcone_cut", "ellipsoid", "boosted_sphere")
MAX_DRAWS = 100


@dataclass
class Outcome:
    """Result of one unit: numeric outputs plus the checks they passed."""

    values: list = field(default_factory=list)
    attempted: int = 0
    failed: list = field(default_factory=list)
    check_seconds: dict = field(default_factory=dict)
    surfaces: int = 1
    surface_seconds: list = field(default_factory=list)


def fresh_grids():
    """Drop interned grids, and with them their cached harmonic bases."""
    qlm_grid.sphere_grid.cache_clear()


def _spot_chart(grid, height, steepness):
    """Light-cone cut t = |x| = f with f = exp(height exp(steepness (cos(theta) - 1)))."""
    th, ph = grid.nodes
    f = np.exp(height * np.exp(steepness * (np.cos(th) - 1.0)))
    unit = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    return np.concatenate([f[None], f * unit])


class Validate:
    """``run_validation(48)`` at the registry seed: every row must pass.

    The registry is the contract at its own seed, the one ``qlm validate``
    uses. Its seed only picks the random directions of the two
    finite-difference gradient checks, and ``el-gradient-lightcone`` fails for
    some picks (seed 6: defect 1.04e-5 against 1e-5), so the benchmark seed
    selects nothing here. ``required`` names rows that must be in the
    registry.
    """

    modules = ("qlm.validate",)

    def __init__(self, required):
        self.required = tuple(required)

    def setup(self, directory):
        qlm_grid.sphere_grid(VALIDATE_N, 2 * VALIDATE_N)

    def run_unit(self):
        results = validate.run_validation(VALIDATE_N, seed=REGISTRY_SEED)
        ran = {r.check_id for r in results}
        missing = [f"{check_id}: not in the registry" for check_id in self.required
                   if check_id not in ran]
        return Outcome(
            values=[r.actual for r in results],
            attempted=len(results) + len(missing),
            failed=[f"{r.check_id}: {r.detail}" for r in results if not r.passed] + missing,
            check_seconds={r.check_id: r.seconds for r in results})


class SharpCut:
    """Cold BYLY mass of the sharp cut f = exp(0.2 exp(6 (cos(theta) - 1))).

    The surface is fixed, so no seed selects anything here.
    """

    modules = ("qlm.catalog", "qlm.datafile", "qlm.functionals")

    def __init__(self):
        self.path = None

    def setup(self, directory):
        self.path = Path(directory) / f"sharp_cut{SHARP_N}.json"
        grid = qlm_grid.sphere_grid(SHARP_N, 2 * SHARP_N)
        data, _ = catalog.surface_data_from_embedding(grid, _spot_chart(grid, *SHARP_SPOT))
        datafile.save_surface_data(self.path, data)

    def run_unit(self):
        data = datafile.load_surface_data(self.path).data
        grid = data.grid
        ws = functionals.EnergyWorkspace(grid, weyl_tol=WEYL_TOL)
        byly = functionals.byly_mass(data, workspace=ws)
        hawking = functionals.hawking_mass(data)
        state = ws.graph_state(data.sigma, functionals.TimeFunction.zero(grid))
        geom = state["geom"]
        residual = state["graph"].space.residual
        gap = (np.sqrt(geom.lambda1.values) - np.sqrt(geom.lambda2.values)) ** 2
        principal = calculus.integrate(data.sigma, ScalarField(grid, gap)) / (8.0 * math.pi)
        failed = []
        if not abs(hawking) <= HAWKING_TOL:
            failed.append(f"hawking {hawking:.3e} is not 0")
        if not byly > 0.0:
            failed.append(f"byly {byly:.3e} is not positive")
        if not abs(byly - principal) <= PRINCIPAL_TOL:
            failed.append(f"byly {byly!r} vs principal-curvature integral {principal!r}")
        if not residual < WEYL_TOL:
            failed.append(f"weyl residual {residual:.3e} above {WEYL_TOL:.0e}")
        return Outcome(values=[byly, hawking, principal, residual], attempted=1,
                       failed=["sharp_cut: " + "; ".join(failed)] if failed else [])


@dataclass(frozen=True)
class StreamItem:
    path: Path
    kind: str
    byly: float = None      # closed-form BYLY mass, where one is checked
    hawking: float = None   # closed-form Hawking mass, where one is checked


def _log_modes(rng):
    modes = {}
    for ell in range(1, 4):
        amp = 0.12 * math.exp(-0.8 * ell)
        modes[(ell, 0, 0)] = amp * rng.standard_normal()
        for m in range(1, ell + 1):
            modes[(ell, m, 0)] = amp * rng.standard_normal()
            modes[(ell, m, 1)] = amp * rng.standard_normal()
    return modes


def draw_surface(kind, rng, grid):
    """One random surface of ``kind``: (data, tau or None, params, refs).

    Draws that the generator rejects, or whose own time function is not
    admissible, are redrawn from the same stream.
    """
    for _ in range(MAX_DRAWS):
        if kind == "schwarzschild":
            r = float(rng.uniform(3.0, 20.0))
            spec = catalog.SphericalSphereSpec(mass_param=1.0, r=r)
            data = catalog.schwarzschild_sphere_data(spec, grid).data
            refs = {"byly": r * (1.0 - math.sqrt(1.0 - 2.0 / r)), "hawking": 1.0}
            return data, None, (r,), refs
        if kind == "lightcone_cut":
            modes = _log_modes(rng)
            spec = catalog.MinkowskiSurfaceSpec("lightcone_cut", log_modes=modes)
            params, refs = tuple(sorted(modes.items())), {}
        elif kind == "ellipsoid":
            axes = tuple(float(a) for a in rng.uniform(0.8, 1.25, size=3))
            spec = catalog.MinkowskiSurfaceSpec("flat_r3", axes=axes)
            params, refs = axes, {"byly": 0.0}
        elif kind == "boosted_sphere":
            v = float(rng.uniform(-0.5, 0.5))
            spec = catalog.MinkowskiSurfaceSpec("boosted_sphere", velocity=v)
            params, refs = (v,), {}
        else:
            raise ValueError(f"unknown surface kind {kind!r}")
        try:
            surface = catalog.minkowski_surface_data(spec, grid)
            functionals.check_admissible(surface.data.sigma, surface.tau_bar)
        except QlmError:
            continue
        return surface.data, surface.tau_bar, params, refs
    raise RuntimeError(f"no admissible {kind} surface in {MAX_DRAWS} draws")


class SurfaceStream:
    """Distinct smooth surfaces, read back and evaluated through one workspace."""

    modules = ("qlm.catalog", "qlm.datafile", "qlm.functionals")

    # ``count`` is the number of surfaces including the opener; only the
    # benchmark's own tests lower it, to stay fast.
    def __init__(self, seed, count=33):
        self.seed = seed
        self.count = count
        self.items = []

    def setup(self, directory):
        rng = np.random.default_rng(self.seed)
        grid = qlm_grid.sphere_grid(STREAM_N, 2 * STREAM_N)
        # The stream opens with a fixed cut that needs the Weyl degree cap at
        # n=32. Few random cuts need it (6 of 80 drawn), so without the
        # opener the point where the shared solver's warm degree first
        # reaches the cap, and with it the cost of the whole stream, would
        # differ by a factor of two between seeds.
        data, tau = catalog.surface_data_from_embedding(grid, _spot_chart(grid, *OPENER_SPOT))
        drawn = [("opener_cut", data, tau, OPENER_SPOT, {})]
        for i in range(self.count - 1):
            kind = STREAM_KINDS[i % len(STREAM_KINDS)]
            drawn.append((kind,) + draw_surface(kind, rng, grid))
        self.items = []
        for i, (kind, data, tau, _, refs) in enumerate(drawn):
            path = Path(directory) / f"stream{STREAM_N}-{i:03d}.json"
            datafile.save_surface_data(path, data, tau=tau, metadata={"kind": kind})
            self.items.append(StreamItem(path, kind, **refs))

    def run_unit(self):
        out = Outcome(surfaces=len(self.items))
        times = []
        ws = None
        for item in self.items:
            start = time.perf_counter()
            loaded = datafile.load_surface_data(item.path)
            data = loaded.data
            tau = loaded.tau if loaded.tau is not None else functionals.TimeFunction.zero(data.grid)
            if ws is None:
                ws = functionals.EnergyWorkspace(data.grid, weyl_tol=STREAM_WEYL_TOL)
            hawking = functionals.hawking_mass(data)
            byly = functionals.byly_mass(data, workspace=ws)
            energy = functionals.wang_yau_energy(data, tau, workspace=ws).energy
            times.append(time.perf_counter() - start)
            out.values += [hawking, byly, energy]
            out.attempted += 1
            bad = []
            if item.hawking is not None and not abs(hawking - item.hawking) <= HAWKING_TOL:
                bad.append(f"hawking {hawking!r} vs {item.hawking!r}")
            if item.byly is not None and not abs(byly - item.byly) <= BYLY_TOL:
                bad.append(f"byly {byly!r} vs {item.byly!r}")
            if item.kind != "schwarzschild" and not abs(energy) <= ENERGY_TOL:
                bad.append(f"wang-yau energy {energy!r} at tau_bar is not 0")
            if bad:
                out.failed.append(f"{item.path.name} ({item.kind}): " + "; ".join(bad))
        # Per-surface latency is sampled per round of one surface of each kind:
        # the kinds cost different, fixed numbers of Gauss-Newton
        # factorizations, so a median over single surfaces would sit on the
        # boundary between two kinds and jump between them from seed to seed.
        size = len(STREAM_KINDS)
        out.surface_seconds = [sum(times[i:i + size]) / size
                               for i in range(1, len(times) - size + 1, size)]
        return out


# Each builds a workload from the benchmark seed and the registry rows that
# BENCHMARK.json names; only the stream draws from the seed.
WORKLOADS = {
    "validate48": lambda seed, check_ids: Validate(check_ids),
    "sharp_cut48": lambda seed, check_ids: SharpCut(),
    "surface_stream32": lambda seed, check_ids: SurfaceStream(seed),
}
