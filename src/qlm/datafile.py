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
from .functionals import SurfaceData, TimeFunction
from .grid import sphere_grid

__all__ = ["LoadedSurface", "save_surface_data", "load_surface_data"]


@dataclass(frozen=True)
class LoadedSurface:
    data: SurfaceData
    tau: Optional[TimeFunction]
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
        lines.append(f'  "tau": {_fmt_array(tau.tau.values)},')
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


def _array(grid, raw, name, path):
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InputFileError(
            f"{path}: field {name!r} is not an array of numbers: {exc}") from exc
    if arr.size != grid.n_theta * grid.n_phi:
        raise InputFileError(
            f"{path}: field {name!r} has {arr.size} entries, expected "
            f"{grid.n_theta * grid.n_phi}")
    return arr.reshape(grid.shape)


def load_surface_data(path):
    """Read and re-validate a surface-data document.

    All construction invariants (metric positivity, |H| > 0, finiteness) are
    re-checked; the first violation is reported as :class:`InputFileError`
    with its grid location.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc

    grid_doc = _require(doc, "grid", path)
    try:
        grid = sphere_grid(int(grid_doc["n_theta"]), int(grid_doc["n_phi"]))
    except (KeyError, ValueError, TypeError, QlmError) as exc:
        raise InputFileError(f"{path}: bad grid spec: {exc}") from exc

    sigma_doc = _require(doc, "sigma", path)
    alpha_doc = _require(doc, "alpha_H", path)
    try:
        sigma = Metric2(grid,
                        _array(grid, _require(sigma_doc, "tt", path), "sigma.tt", path),
                        _array(grid, _require(sigma_doc, "tp", path), "sigma.tp", path),
                        _array(grid, _require(sigma_doc, "pp", path), "sigma.pp", path))
        h_norm = ScalarField(grid, _array(grid, _require(doc, "H_norm", path),
                                          "H_norm", path))
        alpha = OneForm(grid,
                        _array(grid, _require(alpha_doc, "t", path), "alpha_H.t", path),
                        _array(grid, _require(alpha_doc, "p", path), "alpha_H.p", path))
        data = SurfaceData(sigma, h_norm, alpha)
    except QlmError as exc:
        raise InputFileError(f"{path}: {exc}") from exc

    tau = None
    if "tau" in doc and doc["tau"] is not None:
        try:
            tau = TimeFunction(ScalarField(
                grid, _array(grid, doc["tau"], "tau", path)))
        except QlmError as exc:
            raise InputFileError(f"{path}: {exc}") from exc
    return LoadedSurface(data=data, tau=tau, metadata=doc.get("metadata", {}))
