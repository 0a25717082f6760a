"""Surface-data files.

One JSON document per surface: grid sizes, metric components, |H|, the
connection one-form, an optional time function and free-form metadata.
Numbers are written with 17 significant digits so a write/read cycle
reproduces every float bit-exactly; arrays are row-major with the colatitude
index outermost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputFileError, QlmError
from .fields import Metric2, OneForm, ScalarField
from .functionals import SurfaceData
from .grid import sphere_grid

__all__ = ["LoadedSurface", "save_surface_data", "load_surface_data"]


@dataclass(frozen=True)
class LoadedSurface:
    data: SurfaceData
    tau: Optional[ScalarField]
    metadata: dict


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_array(arr):
    return "[" + ", ".join(_fmt(v) for v in np.asarray(arr).ravel()) + "]"


def save_surface_data(path, data, tau=None, metadata=None):
    """Write a surface-data JSON document (deterministic layout)."""
    grid = data.grid
    lines = [
        "{",
        f'  "grid": {{"n_theta": {grid.n_theta}, "n_phi": {grid.n_phi}}},',
        '  "sigma": {',
        f'    "tt": {_fmt_array(data.sigma.tt)},',
        f'    "tp": {_fmt_array(data.sigma.tp)},',
        f'    "pp": {_fmt_array(data.sigma.pp)}',
        "  },",
        f'  "H_norm": {_fmt_array(data.h_norm.values)},',
        '  "alpha_H": {',
        f'    "t": {_fmt_array(data.alpha.a_theta)},',
        f'    "p": {_fmt_array(data.alpha.a_phi)}',
        "  },",
    ]
    if tau is not None:
        lines.append(f'  "tau": {_fmt_array(tau.values)},')
    meta = json.dumps(metadata or {}, sort_keys=True)
    lines.append(f'  "metadata": {meta}')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _require(doc, key, path):
    if not isinstance(doc, dict):
        raise InputFileError(f"{path}: expected an object holding {key!r}")
    if key not in doc:
        raise InputFileError(f"{path}: missing key {key!r}")
    return doc[key]


def _grid_size(grid_doc, key, path):
    """The grid size ``key``: a JSON integer, never a bool, float or string."""
    value = _require(grid_doc, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFileError(
            f"{path}: grid size {key!r} must be an integer, got {value!r}")
    return value


def _array(raw, name, path, size):
    """Float array of ``raw``; InputFileError unless it has ``size`` entries."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InputFileError(
            f"{path}: field {name!r} is not an array of numbers: {exc}") from exc
    if arr.size != size:
        raise InputFileError(
            f"{path}: field {name!r} has {arr.size} entries, expected {size}")
    return arr


def load_surface_data(path):
    """Read and re-validate a surface-data document.

    Every array's entry count is checked against the declared grid before
    the grid is built. All construction invariants (metric positivity,
    |H| > 0, finiteness) are re-checked; the first violation is reported as
    :class:`InputFileError` with its grid location. Each message names
    ``path`` once.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc

    grid_doc = _require(doc, "grid", path)
    n_theta, n_phi = (_grid_size(grid_doc, key, path)
                      for key in ("n_theta", "n_phi"))

    size = n_theta * n_phi
    sigma_doc = _require(doc, "sigma", path)
    alpha_doc = _require(doc, "alpha_H", path)
    fields = {"sigma.tt": _require(sigma_doc, "tt", path),
              "sigma.tp": _require(sigma_doc, "tp", path),
              "sigma.pp": _require(sigma_doc, "pp", path),
              "H_norm": _require(doc, "H_norm", path),
              "alpha_H.t": _require(alpha_doc, "t", path),
              "alpha_H.p": _require(alpha_doc, "p", path)}
    if doc.get("tau") is not None:
        fields["tau"] = doc["tau"]
    arrays = {name: _array(raw, name, path, size)
              for name, raw in fields.items()}

    try:
        grid = sphere_grid(n_theta, n_phi)
    except QlmError as exc:
        raise InputFileError(f"{path}: bad grid spec: {exc}") from exc
    arrays = {name: arr.reshape(grid.shape) for name, arr in arrays.items()}
    try:
        data = SurfaceData(
            Metric2(grid, arrays["sigma.tt"], arrays["sigma.tp"],
                    arrays["sigma.pp"]),
            ScalarField(grid, arrays["H_norm"]),
            OneForm(grid, arrays["alpha_H.t"], arrays["alpha_H.p"]))
        tau = ScalarField(grid, arrays["tau"]) if "tau" in arrays else None
    except QlmError as exc:
        raise InputFileError(f"{path}: {exc}") from exc
    return LoadedSurface(data=data, tau=tau, metadata=doc.get("metadata", {}))
