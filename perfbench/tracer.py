"""Span tracing of qlm layers from outside the package.

While a :class:`Tracer` is installed, the public functions listed in
``TARGETS`` are replaced by timing wrappers at every place they are bound:
class attributes for methods, and for plain functions every attribute of a
loaded ``qlm`` module (or of ``scipy.linalg``) that is the original object.
So ``extract_geometry`` is caught whether it is called as
``qlm.embedding.extract_geometry`` or through the name bound in
``qlm.functionals``, and ``scipy.linalg.cho_factor`` is caught because
``qlm.embedding`` looks it up on the module at call time.

Spans (name, start, end, parent) are kept in memory in flat lists and only
summarised or written out after the traced unit ends. Removing the tracer
restores every original binding.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

MIB = float(1 << 20)


def _basis_attrs(args, kwargs, result):
    basis = args[0]
    return {"bytes": basis.values.nbytes + basis.d_theta.nbytes + basis.d_phi.nbytes}


def _solve_attrs(args, kwargs, result):
    # ``result`` is None when the solve raised.
    grid = args[0].grid
    return {"n_nodes": grid.n_theta * grid.n_phi,
            "l_max": result.l_max if result is not None else None}


def _factor_attrs(args, kwargs, result):
    matrix = args[0] if args else kwargs["a"]
    return {"dim": int(matrix.shape[0])}


def _iterations_attrs(args, kwargs, result):
    return {"iterations": result.iterations if result is not None else 0}


def _file_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, span name, attribute extractor, wrap the returned
# callable as well). Several targets may share a span name: their calls then
# count as one layer operation.
TARGETS = (
    ("qlm.harmonics", "SphereTransform.dtheta", "harmonics.dtheta", None, False),
    ("qlm.harmonics", "SphereTransform.dphi", "harmonics.dphi", None, False),
    ("qlm.harmonics", "RealHarmonicBasis.__init__", "harmonics.basis", _basis_attrs, False),
    ("qlm.calculus", "gauss_curvature", "calculus.gauss_curvature", None, False),
    ("qlm.calculus", "laplacian", "calculus.laplacian", None, False),
    ("qlm.calculus", "metric_add_dtau", "calculus.metric_add_dtau", None, False),
    ("qlm.embedding", "WeylSolver.solve", "embedding.weyl_solve", _solve_attrs, False),
    ("scipy.linalg", "cho_factor", "embedding.factor", _factor_attrs, False),
    ("scipy.linalg", "cho_solve", "embedding.gn_step", None, False),
    ("qlm.embedding", "extract_geometry", "embedding.extract_geometry", None, False),
    ("qlm.embedding", "graph_embedding", "embedding.graph_embedding", None, False),
    ("qlm.functionals", "EnergyWorkspace.graph_state", "functionals.graph_state", None, False),
    ("qlm.functionals", "wang_yau_energy", "functionals.energy", None, False),
    ("qlm.functionals", "euler_lagrange_residual", "functionals.el_residual", None, False),
    ("qlm.optimal", "solve_optimal", "optimal.solve", _iterations_attrs, False),
    ("qlm.optimal", "hessian_check", "optimal.hessian", None, False),
    ("qlm.optimal", "comparison_check", "optimal.comparison", None, False),
    ("qlm.catalog", "surface_data_from_embedding", "catalog.surface_data", None, False),
    ("qlm.datafile", "load_surface_data", "datafile.load", _file_attrs, False),
    ("qlm.radial", "shi_tam_flow", "radial.shi_tam", None, False),
    ("qlm.radial", "e_of_r", "radial.shi_tam", None, False),
    ("qlm.radial", "adm_energy_radial", "radial.adm", None, False),
    ("qlm.radial", "solve_jang_radial", "radial.jang", None, False),
    # The Jang residual is built lazily: the work happens in the returned
    # callable, so that is timed too.
    ("qlm.radial", "jang_residual_radial", "radial.jang", None, True),
)


class Tracer:
    """Records nested spans of wrapped calls in the calling thread."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, attrs=None, wrap_result=False):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
                if attrs is not None:
                    tracer.attrs[idx] = attrs(args, kwargs, result)
            if wrap_result and callable(result):
                result = tracer.wrap(result, name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target at every binding site; idempotent per tracer.

        A target that does not exist raises: the benchmark no longer
        describes the tree, and its layer would silently read 0.
        """
        if self._patched:
            return self
        try:
            for module_name, path, name, attrs, wrap_result in TARGETS:
                self._install_one(module_name, path, name, attrs, wrap_result)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, module_name, path, name, attrs, wrap_result):
        owner_name, _, attr = path.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        try:
            original = vars(owner)[attr]
        except KeyError:
            raise AttributeError(f"trace target {module_name}.{path} does not exist") from None
        if owner_name:
            self._set(owner, attr, self.wrap(original, name, attrs, wrap_result))
            return
        wrapper = self.wrap(original, name, attrs, wrap_result)
        sites = [module] + [mod for key, mod in list(sys.modules.items())
                            if mod is not None and mod is not module
                            and (key == "qlm" or key.startswith("qlm."))]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._set(site, key, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Span duration minus the time covered by its direct children.

        Spans of one thread nest, so children never overlap each other.
        """
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def ancestor(self, idx, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.parents[idx]
        while parent >= 0 and self.names[parent] != name:
            parent = self.parents[parent]
        return parent

    def write(self, path):
        """Dump the spans as compact JSON: a name table plus index rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [[index[n], s, e, p] for n, s, e, p
                in zip(self.names, self.starts, self.ends, self.parents)]
        doc = {"names": table, "columns": ["name", "start", "end", "parent"],
               "spans": rows,
               "attrs": {str(k): v for k, v in self.attrs.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer):
    """Per-layer counts and times of one traced unit, keyed by metric name."""
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()
    calls = {}
    seconds = {}
    for idx, (name, d) in enumerate(zip(names, dur)):
        calls[name] = calls.get(name, 0) + 1
        # A span inside another of its own name is already in that one's time.
        if tracer.ancestor(idx, name) == -1:
            seconds[name] = seconds.get(name, 0.0) + d

    def count(name):
        return calls.get(name, 0)

    def total(name):
        return seconds.get(name, 0.0)

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    def attr(idx, key):
        return tracer.attrs.get(idx, {}).get(key) or 0

    solves = spans("embedding.weyl_solve")
    final_l = [attr(i, "l_max") for i in solves if attr(i, "l_max")]
    gflop = 0.0
    for i in spans("embedding.factor"):
        solve = tracer.ancestor(i, "embedding.weyl_solve")
        gflop += 3 * 2 * attr(solve, "n_nodes") * attr(i, "dim") ** 2 / 1e9

    states = spans("functionals.graph_state")
    built = {tracer.ancestor(i, "functionals.graph_state")
             for i in spans("embedding.graph_embedding")}
    hits = sum(1 for i in states if i not in built)

    return {
        "harmonics.dtheta_calls": count("harmonics.dtheta"),
        "harmonics.dtheta_s": total("harmonics.dtheta"),
        "harmonics.dphi_calls": count("harmonics.dphi"),
        "harmonics.dphi_s": total("harmonics.dphi"),
        "harmonics.basis_builds": count("harmonics.basis"),
        "harmonics.basis_s": total("harmonics.basis"),
        "harmonics.basis_mb": sum(attr(i, "bytes")
                                  for i in spans("harmonics.basis")) / MIB,
        "calculus.gauss_curvature_calls": count("calculus.gauss_curvature"),
        "calculus.gauss_curvature_s": total("calculus.gauss_curvature"),
        "calculus.laplacian_calls": count("calculus.laplacian"),
        "calculus.laplacian_s": total("calculus.laplacian"),
        "calculus.metric_add_dtau_calls": count("calculus.metric_add_dtau"),
        "embedding.weyl_solves": len(solves),
        "embedding.weyl_solve_s": total("embedding.weyl_solve"),
        "embedding.weyl_self_s": sum(own[i] for i in solves),
        "embedding.factorizations": count("embedding.factor"),
        "embedding.factor_s": total("embedding.factor"),
        "embedding.gn_steps": count("embedding.gn_step"),
        "embedding.assembly_gflop": gflop,
        "embedding.final_l_mean": sum(final_l) / len(final_l) if final_l else 0.0,
        "embedding.final_l_max": max(final_l, default=0),
        "embedding.extract_geometry_calls": count("embedding.extract_geometry"),
        "embedding.extract_geometry_s": total("embedding.extract_geometry"),
        "functionals.graph_state_calls": len(states),
        "functionals.graph_state_hits": hits,
        "functionals.graph_state_hit_ratio": hits / len(states) if states else 0.0,
        "functionals.energy_evals": count("functionals.energy"),
        "functionals.el_residual_calls": count("functionals.el_residual"),
        "functionals.el_residual_s": total("functionals.el_residual"),
        "optimal.solve_calls": count("optimal.solve"),
        "optimal.solve_s": total("optimal.solve"),
        "optimal.iterations": sum(attr(i, "iterations")
                                  for i in spans("optimal.solve")),
        "optimal.hessian_calls": count("optimal.hessian"),
        "optimal.hessian_s": total("optimal.hessian"),
        "optimal.comparison_s": total("optimal.comparison"),
        "catalog.surface_data_calls": count("catalog.surface_data"),
        "catalog.surface_data_s": total("catalog.surface_data"),
        "datafile.load_s": total("datafile.load"),
        "datafile.bytes_read": sum(attr(i, "bytes")
                                   for i in spans("datafile.load")),
        "radial.shi_tam_s": total("radial.shi_tam"),
        "radial.adm_s": total("radial.adm"),
        "radial.jang_s": total("radial.jang"),
    }
