"""Timed loop, metrics and environment record of the qlm benchmark.

A run is one workload in one process: set-up repeated ``SETUP_REPEATS``
times, then a closed loop of identical units (one caller, one evaluation at
a time) for the requested number of seconds. With tracing on, untraced and
traced units alternate, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import workloads

SETUP_REPEATS = 7


@dataclass
class Unit:
    seconds: float
    outcome: workloads.Outcome
    tracer: tracing.Tracer = None


def import_seconds(root, modules):
    """Median wall time of ``import qlm`` plus ``modules`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import qlm, " + ", ".join(modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def set_up(workload, root, workdir):
    """Set-up seconds (median import time plus median grid and input build)
    and the directory that holds the inputs of the last repeat.

    Every repeat writes into a new directory and the one before is removed
    right away, while its pages are still unwritten: on a file system that
    discards freed blocks, overwriting or deleting a file already on disk
    takes tens of milliseconds, which is not work the program does.
    """
    builds = []
    previous = None
    for i in range(SETUP_REPEATS):
        directory = Path(workdir) / f"setup-{i}"
        directory.mkdir()
        workloads.fresh_grids()
        start = time.perf_counter()
        workload.setup(directory)
        builds.append(time.perf_counter() - start)
        if previous is not None:
            shutil.rmtree(previous)
        previous = directory
    return import_seconds(root, workload.modules) + statistics.median(builds), previous


def measure(workload, seconds, trace):
    """Closed loop of units until the next one would end well past ``seconds``."""
    units = []
    start = time.perf_counter()
    while True:
        traced = trace and len(units) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        workloads.fresh_grids()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run_unit()
            else:
                with tracer:
                    outcome = workload.run_unit()
        except Exception as exc:      # a failed unit is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            units.append(Unit(time.perf_counter() - t0,
                              workloads.Outcome(attempted=1, failed=[repr(exc)]), tracer))
            break
        dt = time.perf_counter() - t0
        units.append(Unit(dt, outcome, tracer))
        elapsed = time.perf_counter() - start
        if len(units) >= (2 if trace else 1) and elapsed + 0.5 * dt > seconds:
            break
    return units


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _layer_median(values):
    """Median over traced units; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(units, setup_s):
    """User-visible metrics of an untraced run."""
    times = [u.seconds for u in units]
    latencies = [s for u in units
                 for s in (u.outcome.surface_seconds or [u.seconds / u.outcome.surfaces])]
    rates = [u.outcome.surfaces / u.seconds for u in units]
    attempted = sum(u.outcome.attempted for u in units)
    failed = sum(len(u.outcome.failed) for u in units)
    return {
        "wall_s": _median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
        "surfaces_per_s": _median(rates),
        "surface_p50_ms": 1000.0 * _median(latencies),
    }


def per_layer(units, check_ids, setup_tracer):
    """Per-layer metrics: medians over traced units, registry times untraced.

    Input generation runs in set-up for the file-based workloads, so the
    ``catalog`` metrics add one traced set-up to the unit.
    """
    plain = [u for u in units if u.tracer is None]
    traced = [u for u in units if u.tracer is not None]
    layers = ([tracing.layer_metrics(u.tracer) for u in traced]
              or [tracing.layer_metrics(tracing.Tracer())])
    out = {key: _layer_median([m[key] for m in layers]) for key in layers[0]}
    generation = tracing.layer_metrics(setup_tracer)
    for key in ("catalog.surface_data_calls", "catalog.surface_data_s"):
        out[key] += generation[key]
    for check_id in check_ids:
        out[f"validate.{check_id}_s"] = _median(
            [u.outcome.check_seconds[check_id] for u in plain
             if check_id in u.outcome.check_seconds])
    out["trace.overhead_s"] = (_median([u.seconds for u in traced])
                               - _median([u.seconds for u in plain]))
    return out


def _openblas_threads():
    """Thread count reported by the OpenBLAS loaded in this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_revision(root):
    """Git revision of ``root`` if it is a checkout, and a digest of src/qlm."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30).stdout.splitlines()
    except OSError:
        out = []
    # Only the tree's own repository counts, not one that happens to enclose it.
    rev = out[1] if len(out) == 2 and Path(out[0]).resolve() == Path(root).resolve() else None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qlm").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def environment(root):
    """What the numbers depend on besides the code: recorded with each result."""
    rev, digest = _source_revision(root)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_rev": rev,
        "src_digest": digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name, seed, seconds, trace, root, workdir, spec):
    """One benchmark run; returns the result, the units and the failed checks."""
    validate_ids = [m["name"][len("validate."):-len("_s")] for m in spec["per_layer"]
                    if m["name"].startswith("validate.")]
    workload = workloads.WORKLOADS[name](seed, validate_ids)
    setup_s, inputs = set_up(workload, root, workdir)
    if trace:
        directory = Path(workdir) / "setup-traced"
        directory.mkdir()
        setup_tracer = tracing.Tracer()
        workloads.fresh_grids()
        with setup_tracer:
            workload.setup(directory)
        shutil.rmtree(inputs)
    units = measure(workload, seconds, trace)
    if trace:
        values = per_layer(units, validate_ids, setup_tracer)
        listed = spec["per_layer"]
    else:
        values, listed = end_to_end(units, setup_s), spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    failures = [f for u in units for f in u.outcome.failed]
    attempted = sum(u.outcome.attempted for u in units)
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    return result, units, failures
