"""Tests of the benchmark itself, on small inputs.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qlm import catalog, validate  # noqa: E402
from qlm.errors import GenerationError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _stream(tmp_path, count=2):
    # Opener plus one Schwarzschild sphere: the smallest stream that still
    # escalates to the degree cap and then warm-starts across metrics.
    stream = workloads.SurfaceStream(3, count=count)
    workloads.fresh_grids()
    stream.setup(tmp_path)
    return stream


def test_metric_names_and_lists():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names
    layer = list(tracing.layer_metrics(tracing.Tracer()))
    expected = (layer + [f"validate.{c}_s" for c in validate.check_ids()]
                + ["trace.overhead_s"])
    assert [m["name"] for m in SPEC["per_layer"]] == expected
    unit = harness.Unit(1.0, workloads.Outcome(attempted=1))
    assert set(harness.end_to_end([unit], 0.5)) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_unit_is_bit_identical_and_counts_repeat(tmp_path):
    stream = _stream(tmp_path)
    units = harness.measure(stream, seconds=0, trace=True)
    units += harness.measure(stream, seconds=0, trace=True)
    plain = [u for u in units if u.tracer is None]
    traced = [u for u in units if u.tracer is not None]
    assert len(plain) == len(traced) == 2
    reference = np.array(plain[0].outcome.values)
    for unit in units:
        assert not unit.outcome.failed
        np.testing.assert_array_equal(np.array(unit.outcome.values), reference)
    first, second = (tracing.layer_metrics(u.tracer) for u in traced)
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["embedding.weyl_solves"] > 0
    assert first["embedding.factorizations"] > 0
    assert first["embedding.final_l_max"] == 21
    assert first["datafile.bytes_read"] > 0


def test_tracer_refuses_an_absent_target_and_restores_the_rest(monkeypatch):
    import qlm
    original = qlm.calculus.laplacian
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("qlm.calculus", "no_such_function", "calculus.none", None, False),))
    with pytest.raises(AttributeError, match="qlm.calculus.no_such_function"):
        tracing.Tracer().install()
    assert qlm.calculus.laplacian is original


def test_tracer_wraps_every_binding_and_restores_it():
    import qlm
    import scipy.linalg
    original = qlm.embedding.extract_geometry
    assert qlm.functionals.extract_geometry is original
    cho = scipy.linalg.cho_factor
    method = vars(qlm.embedding.WeylSolver)["solve"]
    tracer = tracing.Tracer()
    with tracer:
        for site in (qlm, qlm.embedding, qlm.functionals):
            assert site.extract_geometry is not original
            assert site.extract_geometry.__wrapped__ is original
        assert scipy.linalg.cho_factor is not cho
        assert vars(qlm.embedding.WeylSolver)["solve"] is not method
    for site in (qlm, qlm.embedding, qlm.functionals):
        assert site.extract_geometry is original
    assert scipy.linalg.cho_factor is cho
    assert vars(qlm.embedding.WeylSolver)["solve"] is method


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names += ["outer", "inner", "inner", "other"]
    tracer.starts += [0.0, 1.0, 3.0, 10.0]
    tracer.ends += [5.0, 2.0, 3.5, 11.0]
    tracer.parents += [-1, 0, 0, -1]
    assert tracer.self_times() == [3.5, 1.0, 0.5, 1.0]
    assert tracer.ancestor(2, "outer") == 0
    assert tracer.ancestor(3, "outer") == -1


def test_layer_time_counts_a_same_name_child_once():
    # solve_jang_radial calling the wrapped jang_residual_radial: both are
    # radial.jang, and the inner span is already inside the outer one.
    tracer = tracing.Tracer()
    tracer.names += ["radial.jang", "radial.jang", "radial.adm", "radial.jang"]
    tracer.starts += [0.0, 1.0, 2.0, 10.0]
    tracer.ends += [5.0, 2.0, 3.0, 11.0]
    tracer.parents += [-1, 0, 0, -1]
    assert tracer.self_times() == [3.0, 1.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["radial.jang_s"] == 6.0
    assert metrics["radial.adm_s"] == 1.0


def test_generator_is_seeded_and_redraws_from_the_same_stream(monkeypatch):
    grid = workloads.qlm_grid.sphere_grid(32, 64)
    a = workloads.draw_surface("lightcone_cut", np.random.default_rng(5), grid)
    b = workloads.draw_surface("lightcone_cut", np.random.default_rng(5), grid)
    assert a[2] == b[2]
    np.testing.assert_array_equal(a[0].sigma.tt, b[0].sigma.tt)

    rng = np.random.default_rng(5)
    workloads._log_modes(rng)                  # the draw that gets rejected
    redrawn = workloads._log_modes(rng)
    real = catalog.minkowski_surface_data
    calls = []

    def reject_first(spec, grid):
        calls.append(spec)
        if len(calls) == 1:
            raise GenerationError("rejected for the test")
        return real(spec, grid)

    monkeypatch.setattr(catalog, "minkowski_surface_data", reject_first)
    _, _, params, _ = workloads.draw_surface("lightcone_cut", np.random.default_rng(5), grid)
    assert len(calls) == 2
    assert params == tuple(sorted(redrawn.items()))


def test_stream_checks_catch_a_wrong_result(tmp_path):
    stream = _stream(tmp_path)
    item = stream.items[1]
    stream.items[1] = workloads.StreamItem(item.path, item.kind, byly=item.byly + 1e-3,
                                           hawking=item.hawking)
    workloads.fresh_grids()
    outcome = stream.run_unit()
    assert outcome.attempted == 2
    assert len(outcome.failed) == 1 and "byly" in outcome.failed[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharp_cut48", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
