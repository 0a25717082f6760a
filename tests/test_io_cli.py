import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qlm
from qlm.catalog import (MinkowskiSurfaceSpec, SphericalSphereSpec,
                         minkowski_surface_data, schwarzschild_sphere_data)
from qlm.cli import build_parser, main
from qlm.datafile import load_surface_data, save_surface_data
from qlm.errors import InputFileError
from qlm.fields import Metric2, OneForm, ScalarField
from qlm.functionals import SurfaceData
from qlm.grid import sphere_grid
from test_embedding import spot_cut_data


@pytest.fixture(scope="module")
def grid16():
    return sphere_grid(16, 32)


@pytest.fixture(scope="module")
def schw_file(tmp_path_factory, grid16):
    path = tmp_path_factory.mktemp("data") / "schw.json"
    sphere = schwarzschild_sphere_data(SphericalSphereSpec(1.0, 4.0), grid16)
    save_surface_data(path, sphere.data, metadata={"kind": "schwarzschild"})
    return str(path)


def test_roundtrip_bit_exact(tmp_path, grid16):
    surface = minkowski_surface_data(
        MinkowskiSurfaceSpec("graph", tau_modes={(2, 0, 0): 0.1}), grid16)
    path = tmp_path / "surface.json"
    save_surface_data(path, surface.data, tau=surface.tau_bar,
                      metadata={"note": "roundtrip"})
    loaded = load_surface_data(path)
    assert np.array_equal(loaded.data.sigma.tt, surface.data.sigma.tt)
    assert np.array_equal(loaded.data.sigma.tp, surface.data.sigma.tp)
    assert np.array_equal(loaded.data.sigma.pp, surface.data.sigma.pp)
    assert np.array_equal(loaded.data.h_norm.values, surface.data.h_norm.values)
    assert np.array_equal(loaded.data.alpha.a_theta, surface.data.alpha.a_theta)
    assert np.array_equal(loaded.tau.values, surface.tau_bar.values)
    assert loaded.metadata == {"note": "roundtrip"}

    # Writing the loaded data again reproduces the file byte for byte.
    path2 = tmp_path / "surface2.json"
    save_surface_data(path2, loaded.data, tau=loaded.tau,
                      metadata=loaded.metadata)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_keeps_negative_zero(tmp_path, grid16):
    # format(-0.0, ".17g") is "-0", which json reads back as the integer 0.
    sigma = Metric2.round(grid16, 2.0)
    neg_zero = np.full(grid16.shape, -0.0)
    data = SurfaceData(Metric2(grid16, sigma.tt, neg_zero, sigma.pp),
                       ScalarField.constant(grid16, 0.5),
                       OneForm(grid16, neg_zero, neg_zero))
    path = tmp_path / "zeros.json"
    save_surface_data(path, data, tau=ScalarField(grid16, neg_zero))
    loaded = load_surface_data(path)
    for values in (loaded.data.sigma.tp, loaded.data.alpha.a_theta,
                   loaded.data.alpha.a_phi, loaded.tau.values):
        assert np.all(np.signbit(values))


def test_load_reads_the_seventeen_digit_layout(tmp_path, grid16):
    # Files written with every number as format(x, ".17g"), one array per
    # line, load to the same floats.
    surface = minkowski_surface_data(
        MinkowskiSurfaceSpec("graph", tau_modes={(2, 0, 0): 0.1}), grid16)
    data = surface.data

    def fmt(arr):
        return "[" + ", ".join(format(float(v), ".17g") for v in arr.ravel()) + "]"

    path = tmp_path / "old.json"
    path.write_text("\n".join([
        "{",
        '  "grid": {"n_theta": 16, "n_phi": 32},',
        '  "sigma": {',
        f'    "tt": {fmt(data.sigma.tt)},',
        f'    "tp": {fmt(data.sigma.tp)},',
        f'    "pp": {fmt(data.sigma.pp)}',
        "  },",
        f'  "H_norm": {fmt(data.h_norm.values)},',
        '  "alpha_H": {',
        f'    "t": {fmt(data.alpha.a_theta)},',
        f'    "p": {fmt(data.alpha.a_phi)}',
        "  },",
        f'  "tau": {fmt(surface.tau_bar.values)},',
        '  "metadata": {"kind": "graph"}',
        "}"]) + "\n")
    loaded = load_surface_data(path)
    pairs = [(loaded.data.sigma.tt, data.sigma.tt),
             (loaded.data.sigma.tp, data.sigma.tp),
             (loaded.data.sigma.pp, data.sigma.pp),
             (loaded.data.h_norm.values, data.h_norm.values),
             (loaded.data.alpha.a_theta, data.alpha.a_theta),
             (loaded.data.alpha.a_phi, data.alpha.a_phi),
             (loaded.tau.values, surface.tau_bar.values)]
    for got, want in pairs:
        assert np.array_equal(got, want)
    assert loaded.metadata == {"kind": "graph"}


def test_load_rejects_malformed_documents(tmp_path, grid16, schw_file):
    missing = tmp_path / "missing.json"
    missing.write_text('{"grid": {"n_theta": 16, "n_phi": 32}}')
    with pytest.raises(InputFileError):
        load_surface_data(missing)

    doc = json.loads(open(schw_file).read())
    doc["H_norm"] = doc["H_norm"][:-3]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    with pytest.raises(InputFileError, match="entries"):
        load_surface_data(short)

    doc = json.loads(open(schw_file).read())
    doc["H_norm"][7] = 0.0
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(doc))
    with pytest.raises(InputFileError, match="node"):
        load_surface_data(flat)

    # Wrong types anywhere in the document are input errors, and the CLI
    # exits 2 on them, not with a traceback.
    def non_numeric(doc):
        doc["sigma"]["tt"][3] = "x"

    def ragged_tau(doc):
        doc["tau"] = [[1.0, 2.0], [3.0]]
    edits = [non_numeric, ragged_tau,
             lambda doc: doc.update(sigma=5),
             lambda doc: doc.update(H_norm="abc"),
             lambda doc: doc.update(alpha_H=None)]
    documents = [json.loads(open(schw_file).read()) for _ in edits]
    for edit, doc in zip(edits, documents):
        edit(doc)
    for i, doc in enumerate(documents + [5.0]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InputFileError):
            load_surface_data(bad)
        assert main(["compute", str(bad), "--which", "hawking"]) == 2


def test_load_checks_entry_counts_before_building_the_grid(tmp_path,
                                                            monkeypatch):
    # A few bytes claiming an 8-million-node grid are refused from the
    # entry counts alone, before any grid is allocated.
    import qlm.datafile

    def unreachable(*args):
        raise AssertionError("grid built before the arrays were checked")

    monkeypatch.setattr(qlm.datafile, "sphere_grid", unreachable)
    doc = {"grid": {"n_theta": 2000, "n_phi": 4000},
           "sigma": {"tt": [1.0], "tp": [0.0], "pp": [1.0]},
           "H_norm": [1.0], "alpha_H": {"t": [0.0], "p": [0.0]},
           "metadata": {}}
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps(doc))
    with pytest.raises(InputFileError, match="8000000"):
        load_surface_data(claim)
    assert main(["compute", str(claim), "--which", "hawking"]) == 2


def test_load_errors_name_the_path_once(tmp_path, schw_file):
    def missing_key(doc):
        del doc["sigma"]["tt"]

    def short_array(doc):
        doc["alpha_H"]["p"] = doc["alpha_H"]["p"][:-1]

    def text_tau(doc):
        doc["tau"] = ["x"] * len(doc["H_norm"])

    def zero_h(doc):
        doc["H_norm"][7] = 0.0

    def too_few_colatitudes(doc):
        doc["grid"] = {"n_theta": 2, "n_phi": 256}    # entry counts still fit
    for i, edit in enumerate([missing_key, short_array, text_tau, zero_h,
                              too_few_colatitudes]):
        doc = json.loads(open(schw_file).read())
        edit(doc)
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InputFileError) as err:
            load_surface_data(bad)
        assert str(err.value).count(str(bad)) == 1, str(err.value)
    # Unreadable files, bytes that are not UTF-8 and a grid size JSON reads
    # as infinity are input errors too (exit 2), not tracebacks.
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe")
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"grid": {"n_theta": Infinity, "n_phi": 32}}')
    for path in (tmp_path / "absent.json", tmp_path, undecodable, infinite):
        with pytest.raises(InputFileError) as err:
            load_surface_data(path)
        assert str(err.value).count(str(path)) == 1, str(err.value)
        assert main(["compute", str(path), "--which", "hawking"]) == 2


@pytest.mark.parametrize("key, value", [("n_theta", 16.9), ("n_phi", "32"),
                                        ("n_theta", True)])
def test_load_accepts_only_integer_grid_sizes(key, value, tmp_path, schw_file):
    # A grid size is a JSON integer: 16.9 is not a 16-row grid.
    doc = json.loads(open(schw_file).read())
    doc["grid"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputFileError, match=f"'{key}' must be an integer"):
        load_surface_data(bad)
    assert main(["compute", str(bad), "--which", "hawking"]) == 2


def test_cli_compute_hawking(schw_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["compute", schw_file, "--which", "hawking",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["value"] - 1.0) < 1e-7


def test_cli_compute_wangyau_requires_tau(schw_file, capsys):
    assert main(["compute", schw_file, "--which", "wangyau"]) == 2
    assert main(["compute", schw_file, "--which", "wangyau",
                 "--tau-zero", "--weyl-tol", "1e-8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"] - 4.0 * (1.0 - np.sqrt(0.5))) < 1e-6


def test_cli_rejects_nonpositive_tolerances(schw_file):
    assert main(["compute", schw_file, "--which", "byly",
                 "--weyl-tol=-1e-8"]) == 2
    assert main(["optimal", schw_file, "--tol", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["catalog", "graph", "--modes", "1,2:3", "--out", "unused.json"],
    ["plotdata", "mass-curves", "--r-range", "2.5"],
    ["plotdata", "stability"],
    ["catalog", "flat", "--axes", "1,x,2", "--out", "unused.json"],
    ["catalog", "flat", "--axes", "1,2", "--out", "unused.json"],
    # Out of the --resolution bounds: refused before any grid is built.
    ["catalog", "flat", "--resolution", "4000000", "--out", "unused.json"],
    ["validate", "--resolution", "3"],
    ["catalog", "flat", "--resolution", "8", "--out", "unused.json"],
    ["plotdata", "mass-curves", "--resolution", "73"],
])
def test_cli_rejects_malformed_arguments(argv):
    grids = sphere_grid.cache_info().currsize
    assert main(argv) == 2
    assert sphere_grid.cache_info().currsize == grids


@pytest.mark.parametrize("argv", [
    ["catalog", "graph", "--modes", "1,5,0:0.1", "--out", "{tmp}/g.json"],
    ["catalog", "lightcone", "--bump-l", "-1", "--out", "{tmp}/c.json"],
    ["optimal", "{data}", "--hessian", "-2"],
    ["optimal", "{data}", "--l-max-tau", "0"],
    ["optimal", "{data}", "--max-iter", "-3"],
    ["plotdata", "shi-tam", "--samples", "0", "--outdir", "{tmp}"],
    ["plotdata", "mass-curves", "--r-range", "2.5:20:0", "--outdir", "{tmp}"],
    ["plotdata", "shi-tam", "--r0", "0", "--outdir", "{tmp}"],
    ["plotdata", "shi-tam", "--r-far", "inf", "--outdir", "{tmp}"],
    ["optimal", "{data}", "--weyl-tol", "inf"],
    # A negative seed is refused before any row draws random fields.
    ["validate", "--resolution", "16", "--seed", "-5",
     "--only", "el-gradient-schwarzschild"],
])
def test_cli_out_of_range_inputs_are_input_errors(argv, schw_file, tmp_path,
                                                  capsys):
    argv = [a.format(data=schw_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option, argv", [
    ("--m", ["catalog", "schwarzschild", "--m", "nan"]),
    ("--r", ["catalog", "schwarzschild", "--r", "inf"]),
    ("--v", ["catalog", "boosted", "--v", "nan"]),
    ("--bump", ["catalog", "lightcone", "--bump", "inf"]),
    ("--modes", ["catalog", "graph", "--modes", "2,0,0:nan"]),
    ("--tau0-y10", ["optimal", "{data}", "--tau0-y10", "nan"]),
    ("--m", ["plotdata", "mass-curves", "--m", "inf"]),
    ("--r-range", ["plotdata", "mass-curves", "--r-range", "2.5:inf"]),
    ("--r-range", ["plotdata", "mass-curves", "--r-range", "nan:20:4"]),
    ("--E", ["plotdata", "shi-tam", "--E", "nan"]),
])
def test_cli_non_finite_numbers_name_their_option(option, argv, schw_file,
                                                  tmp_path, capsys):
    # NaN passes every range check made by comparison and inf overflows in
    # numpy, so each option refuses both as it is parsed.
    import warnings

    argv = [a.format(data=schw_file) for a in argv]
    argv += {"catalog": ["--out", str(tmp_path / "s.json")],
             "plotdata": ["--outdir", str(tmp_path)]}.get(argv[0], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert f"argument {option}: must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option, kind, argv", [
    ("--tol", "a number", ["optimal", "{data}", "--tol", "abc"]),
    ("--m", "a number", ["catalog", "schwarzschild", "--m", "abc"]),
    ("--resolution", "an integer", ["validate", "--resolution", "abc"]),
    ("--hessian", "an integer", ["optimal", "{data}", "--hessian", "x"]),
    ("--samples", "an integer", ["plotdata", "shi-tam", "--samples", "1.5"]),
    ("--axes", "a number", ["catalog", "flat", "--axes", "1,a,2"]),
])
def test_cli_non_numbers_name_their_option(option, kind, argv, schw_file,
                                           tmp_path, capsys):
    argv = [a.format(data=schw_file) for a in argv]
    argv += {"catalog": ["--out", str(tmp_path / "s.json")],
             "plotdata": ["--outdir", str(tmp_path)]}.get(argv[0], [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected {kind}, got " in err
    assert "invalid _" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["compute", "{data}", "--which", "hawking"],
    ["optimal", "{data}", "--l-max-tau", "4"],
    ["catalog", "flat", "--resolution", "16"],
    ["validate", "--resolution", "24", "--only", "mass-relation-r4"],
])
def test_cli_unwritable_output_is_an_input_error(argv, schw_file, tmp_path,
                                                 capsys):
    out = tmp_path / "missing" / "out.json"
    argv = [a.format(data=schw_file) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_compute_byly_below_the_resolution_floor(tmp_path, capsys):
    # --resolution refuses n = 8, but a data file written elsewhere at that
    # resolution solves with the degree cap clipped to the grid.
    path = tmp_path / "schw8.json"
    sphere = schwarzschild_sphere_data(SphericalSphereSpec(1.0, 4.0),
                                       sphere_grid(8, 16))
    save_surface_data(path, sphere.data)
    assert main(["compute", str(path), "--which", "byly"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"] - 4.0 * (1.0 - np.sqrt(0.5))) < 1e-6


def test_cli_maps_linear_algebra_failure_to_solver_exit(monkeypatch, capsys,
                                                        tmp_path, grid16):
    import scipy.linalg

    # A round sphere starts at its solution; an ellipsoid needs a
    # Gauss-Newton step, and with it a factorization.
    path = tmp_path / "ellipsoid.json"
    save_surface_data(path, minkowski_surface_data(
        MinkowskiSurfaceSpec("flat_r3", axes=(1.0, 1.0, 1.2)), grid16).data)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")
    monkeypatch.setattr(scipy.linalg, "cho_factor", singular)
    assert main(["compute", str(path), "--which", "byly"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_prints_the_floor_of_a_failed_solve(tmp_path, capsys):
    # The n=24 spot cut stalls at its degree cap (see test_embedding).
    path = tmp_path / "spot.json"
    save_surface_data(path, spot_cut_data(24, 0.2, 6.0))
    assert main(["compute", str(path), "--which", "byly",
                 "--weyl-tol", "1e-10"]) == 3
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.startswith("diagnostics: ")
    diagnostics = json.loads(line[len("diagnostics: "):])
    assert diagnostics["l_cap"] == 16 and diagnostics["floor"] > 1e-10


def test_cli_compute_rejects_zero_h(tmp_path, schw_file):
    doc = json.loads(open(schw_file).read())
    doc["H_norm"][5] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["compute", str(bad), "--which", "byly"]) == 2


def test_cli_catalog_roundtrip(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["catalog", "schwarzschild", "--m", "1", "--r", "4",
                 "--resolution", "16", "--out", str(out)]) == 0
    refs = json.loads((tmp_path / "cat.json.refs.json").read_text())
    assert refs["m_hawking"] == 1.0
    capsys.readouterr()
    assert main(["compute", str(out), "--which", "hawking"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"] - 1.0) < 1e-7


def test_cli_catalog_inside_horizon(tmp_path, capsys):
    # |H| vanishes on the horizon r = 2m, so it is refused with the spheres
    # inside it, before any file is written.
    for r in ("1.5", "2"):
        assert main(["catalog", "schwarzschild", "--m", "1", "--r", r,
                     "--resolution", "16", "--out", str(tmp_path / "x.json")]) == 2
        assert "lies on or inside the horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_catalog_boosted_records_velocity(tmp_path, capsys):
    out = tmp_path / "boosted.json"
    assert main(["catalog", "boosted", "--v", "0.2", "--resolution", "16",
                 "--out", str(out)]) == 0
    assert load_surface_data(out).metadata == {"kind": "boosted", "r": 4.0,
                                               "v": 0.2}


def test_cli_catalog_lightcone(tmp_path, capsys):
    out = tmp_path / "cut.json"
    assert main(["catalog", "lightcone", "--bump", "0.1", "--resolution",
                 "16", "--out", str(out)]) == 0
    loaded = load_surface_data(out)
    from qlm import calculus as calc
    k = calc.gauss_curvature(loaded.data.sigma)
    assert np.max(np.abs(k.values - loaded.data.h_norm.values ** 2 / 4)) < 1e-7


def test_cli_optimal(tmp_path, schw_file, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimal", schw_file, "--tau0-y10", "0.05", "--tol", "1e-6",
                 "--l-max-tau", "6", "--weyl-tol", "1e-10",
                 "--hessian", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"]
    assert report["el_residual_norm"] < 1e-6
    assert report["tau_star_sup"] < 1e-4
    assert report["hessian_min_eigenvalue"] > 0
    assert len(report["tau_star"]) == 16 * 32


def test_cli_optimal_starts_from_the_stored_tau(tmp_path, capsys):
    # A light-cone cut is stored with its own time function, which is
    # already critical (energy 0): the solve starts there and takes no step.
    cut = tmp_path / "cut.json"
    assert main(["catalog", "lightcone", "--resolution", "24",
                 "--out", str(cut)]) == 0
    capsys.readouterr()
    assert main(["optimal", str(cut)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"]
    assert report["iterations"] == 0
    assert abs(report["energy"]) < 1e-10


def test_cli_optimal_iteration_cap_exits_3(schw_file, capsys):
    code = main(["optimal", schw_file, "--tau0-y10", "0.05", "--max-iter", "1",
                 "--tol", "1e-12"])
    assert code == 3
    assert "iteration cap" in capsys.readouterr().err


def test_cli_optimal_nonconvergent_exits_3(tmp_path, capsys):
    # Runaway synthetic data: energy decreases into the admissibility wall.
    grid = sphere_grid(16, 32)
    from qlm import calculus as calc
    from qlm.fields import Metric2, ScalarField
    from qlm.functionals import SurfaceData, TimeFunction
    zonal = TimeFunction.from_modes(grid, {(2, 0, 0): 1.0})
    sigma = Metric2.round(grid, 1.0)
    alpha = calc.gradient(sigma, zonal * 0.8)
    data = SurfaceData(sigma, ScalarField.constant(grid, 0.2), alpha)
    path = tmp_path / "runaway.json"
    save_surface_data(path, data)
    code = main(["optimal", str(path), "--tol", "1e-9", "--l-max-tau", "4",
                 "--weyl-tol", "1e-8", "--max-iter", "60"])
    assert code == 3


def test_cli_validate_subset(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    code = main(["validate", "--resolution", "24",
                 "--only", "mass-relation-r4,jang-hyperboloid-residual,"
                 "shitam-e0-equals-byly", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("check_id,")
    assert len(rows) == 4
    capsys.readouterr()
    # Unknown ids, and values that name no id at all, run nothing.
    for only in (",", "", " , ", "no-such-check"):
        assert main(["validate", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--only must name known check ids" in captured.err


def test_cli_validate_seed_zero_is_valid():
    assert build_parser().parse_args(["validate", "--seed", "0"]).seed == 0


def test_cli_error_messages_print_plain_node_indices(tmp_path, capsys):
    # A bump this large makes the induced metric indefinite somewhere; the
    # message names the node as plain integers, not numpy scalar reprs.
    code = main(["catalog", "lightcone", "--resolution", "16", "--bump", "50",
                 "--out", str(tmp_path / "cut.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"node \(\d+, \d+\)", err), err


def test_cli_compute_wangyau_with_stored_tau(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["catalog", "graph", "--modes", "2,0,0:0.1", "--resolution",
                 "16", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compute", str(out), "--which", "wangyau"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"]) < 1e-6      # own time function: zero energy


def test_cli_validate_full_coarse(tmp_path, capsys):
    # Whole registry at the coarse resolution with per-check relaxed
    # tolerances; at least 20 rows and a clean exit.
    out = tmp_path / "all.csv"
    code = main(["validate", "--resolution", "24", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) - 1 >= 20
    assert all(row.split(",")[4] == "1" for row in rows[1:])


def test_cli_plotdata_mass_curves(tmp_path, capsys):
    code = main(["plotdata", "mass-curves", "--m", "1",
                 "--r-range", "2.5:20:5", "--resolution", "16",
                 "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "mass_curves.csv").read_text().strip().splitlines()
    assert rows[0] == "r,hawking,byly"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.max(np.abs(values[:, 1] - 1.0)) < 1e-7
    expected_byly = values[:, 0] * (1 - np.sqrt(1 - 2 / values[:, 0]))
    assert np.max(np.abs(values[:, 2] - expected_byly)) < 1e-6


def test_cli_plotdata_mass_curves_refuses_the_horizon(tmp_path, capsys):
    # The first sample of 2:20:4 lies on the horizon r = 2m.
    code = main(["plotdata", "mass-curves", "--m", "1",
                 "--r-range", "2:20:4", "--resolution", "16",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "lies on or inside the horizon" in capsys.readouterr().err
    assert not (tmp_path / "mass_curves.csv").exists()


def test_cli_plotdata_shi_tam(tmp_path, capsys):
    code = main(["plotdata", "shi-tam", "--r0", "4", "--E", "1",
                 "--samples", "12", "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "shi_tam_e_of_r.csv").read_text().strip().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    expected = values[:, 0] * (1 - np.sqrt(1 - 2 / values[:, 0]))
    assert np.max(np.abs(values[:, 1] - expected)) < 1e-8


@pytest.mark.parametrize("energy", ["2", "3"])
def test_cli_plotdata_shi_tam_refuses_a_horizon_before_the_lapse(
        energy, tmp_path, capsys):
    # E >= r0/2 has no real boundary lapse; it is refused before the lapse
    # is computed, so numpy warns about nothing.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["plotdata", "shi-tam", "--r0", "4", "--E", energy,
                     "--outdir", str(tmp_path)])
    assert code == 2
    assert "extension forms a horizon" in capsys.readouterr().err
    assert not (tmp_path / "shi_tam_e_of_r.csv").exists()


def test_cli_plotdata_stability(tmp_path, capsys):
    grid = sphere_grid(16, 32)
    sphere = schwarzschild_sphere_data(SphericalSphereSpec(1.0, 4.0), grid)
    path = tmp_path / "schw16.json"
    save_surface_data(path, sphere.data)
    code = main(["plotdata", "stability", "--input", str(path),
                 "--samples", "5", "--span", "0.04", "--tol", "1e-6",
                 "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "stability_curve.csv").read_text().strip().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    mid = len(values) // 2
    # Convex near the critical point: the midpoint is the minimum.
    assert np.all(values[:, 1] >= values[mid, 1] - 1e-12)


def test_cli_plotdata_stability_refuses_a_nonconverged_solve(
        tmp_path, schw_file, monkeypatch, capsys):
    import qlm.optimal

    def capped(data, tau0, *, workspace, tol, **kwargs):
        return qlm.optimal.OptimalSolveResult(
            tau_star=tau0, energy=0.0, el_residual_norm=1.0, iterations=200,
            converged=False)

    monkeypatch.setattr(qlm.optimal, "solve_optimal", capped)
    code = main(["plotdata", "stability", "--input", schw_file,
                 "--outdir", str(tmp_path)])
    assert code == 3
    assert "iteration cap" in capsys.readouterr().err
    assert not (tmp_path / "stability_curve.csv").exists()


def test_cli_plotdata_stability_refuses_an_infinite_span_before_solving(
        tmp_path, schw_file, monkeypatch, capsys):
    import qlm.optimal

    def unreachable(*args, **kwargs):
        raise AssertionError("solve_optimal ran before --span was checked")

    monkeypatch.setattr(qlm.optimal, "solve_optimal", unreachable)
    code = main(["plotdata", "stability", "--input", schw_file,
                 "--span", "inf", "--outdir", str(tmp_path)])
    assert code == 2
    assert "--span" in capsys.readouterr().err


@pytest.mark.parametrize("modes", ["-3", "400"])
def test_cli_optimal_refuses_a_bad_hessian_before_solving(
        schw_file, monkeypatch, capsys, modes):
    # A negative count, or one whose probe degree 20 exceeds the n=16 grid.
    import qlm.optimal

    def unreachable(*args, **kwargs):
        raise AssertionError("solve_optimal ran before --hessian was checked")

    monkeypatch.setattr(qlm.optimal, "solve_optimal", unreachable)
    assert main(["optimal", schw_file, "--hessian", modes]) == 2
    assert "--hessian" in capsys.readouterr().err


def test_cli_determinism(tmp_path, schw_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["compute", schw_file, "--which", "byly",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_table_matches_module_all():
    for module, names in qlm._EXPORTS.items():
        mod = getattr(qlm, module)
        for name in names:
            assert getattr(qlm, name) is getattr(mod, name)
            assert name in mod.__all__, f"{module}.{name}"
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{module}.{name}"


def test_cli_import_leaves_numpy_unloaded():
    # main() pins the BLAS thread count from QLM_THREADS, which only takes
    # effect if nothing imported numpy before main() runs.
    src = os.path.dirname(os.path.dirname(qlm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qlm.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_compute_output_is_byte_reproducible_per_thread_count(tmp_path):
    # QLM_THREADS sets the BLAS thread count only where the environment does
    # not, so the BLAS variables are removed. Output is reproducible for a
    # fixed thread count; 1 and 2 threads may differ in the last digits.
    src = os.path.dirname(os.path.dirname(qlm.__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    run = [sys.executable, "-c",
           "import sys; from qlm.cli import main; sys.exit(main(sys.argv[1:]))"]
    cut = str(tmp_path / "cut.json")
    subprocess.run(run + ["catalog", "lightcone", "--bump", "0.1",
                          "--resolution", "16", "--out", cut],
                   env=env, check=True, capture_output=True)
    for threads in ("1", "2"):
        outputs = [subprocess.run(run + ["compute", cut, "--which", "byly"],
                                  env=dict(env, QLM_THREADS=threads),
                                  check=True, capture_output=True).stdout
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["which"] == "byly"
