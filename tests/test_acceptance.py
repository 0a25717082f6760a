"""Acceptance suite: every criterion at its stated tolerance, resolution 48.

The checks themselves live in qlm.validate (shared with `qlm validate`);
each test here asserts one criterion's rows and prints a PASS/FAIL line.
"""

import pytest

from qlm.validate import run_validation

CRITERIA = {
    1: ("Schwarzschild Hawking constancy",
        ["schwarzschild-hawking-r3", "schwarzschild-hawking-r4",
         "schwarzschild-hawking-r10"]),
    2: ("BYLY closed form and embedding sanity",
        ["byly-closed-form-m1-r4", "weyl-round-sanity",
         "ellipsoid-total-mean-curvature"]),
    3: ("mass relation m = M - M^2/2r",
        ["mass-relation-r3", "mass-relation-r4", "mass-relation-r10"]),
    4: ("light-cone rigidity",
        ["lightcone-hawking-zero", "lightcone-byly-positive",
         "lightcone-byly-principal-formula"]),
    5: ("vanishing energy on Minkowski surfaces",
        ["minkowski-vanishing-lightcone", "minkowski-vanishing-boosted",
         "minkowski-vanishing-graph"]),
    6: ("Euler-Lagrange residual is the energy gradient",
        ["el-gradient-schwarzschild", "el-gradient-lightcone"]),
    7: ("canonical gauge optimality",
        ["gauge-optimality-schwarzschild", "gauge-optimality-lightcone"]),
    8: ("optimal solve on Schwarzschild data",
        ["optimal-solve-tau-sup", "optimal-solve-energy"]),
    9: ("stability spectra",
        ["hessian-schwarzschild-positive", "hessian-flat-nonnegative"]),
    10: ("comparison inequality",
         ["comparison-slack-nonnegative", "comparison-equality-constant"]),
    11: ("quasi-spherical monotone chain and ADM flux",
         ["shitam-monotone-decreasing", "shitam-far-value",
          "shitam-e0-equals-byly", "adm-flux-quadrature"]),
    12: ("radial Jang reduction",
         ["jang-hyperboloid-residual", "jang-time-symmetric-constant"]),
    13: ("spectral infrastructure invariants",
         ["gauss-bonnet", "adjointness", "spectral-convergence-ratio"]),
}


@pytest.fixture(scope="module")
def results():
    rows = run_validation(resolution=48, seed=42)
    return {r.check_id: r for r in rows}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(results, number):
    title, ids = CRITERIA[number]
    rows = [results[check_id] for check_id in ids]
    ok = all(r.passed for r in rows)
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}")
    for r in rows:
        print(f"    {'pass' if r.passed else 'FAIL'} {r.check_id}: "
              f"|{r.actual:.6g} - {r.expected:.6g}| <= {r.tolerance:.2g}")
    assert ok, f"criterion {number} ({title}) failed: " + "; ".join(
        f"{r.check_id} actual={r.actual:.6g} expected={r.expected:.6g} "
        f"tol={r.tolerance:.2g}" for r in rows if not r.passed)


def test_all_registry_rows_covered(results):
    covered = {check_id for _, ids in CRITERIA.values() for check_id in ids}
    assert covered == set(results), "acceptance map out of sync with registry"


def test_el_gradient_probe_clears_the_solve_noise():
    # Seed 6 draws directions for which a central difference at step 1e-5
    # sits at the Weyl-solve noise floor, above the row's tolerance.
    [row] = run_validation(resolution=48, only=["el-gradient-lightcone"], seed=6)
    assert row.passed, row.actual


def test_a_row_that_raises_fails_alone(monkeypatch):
    # A builder's QlmError marks its own row failed and the run goes on.
    import math

    from qlm import validate
    from qlm.errors import DomainError

    def refused(ctx):
        raise DomainError("no such sphere")

    monkeypatch.setattr(validate, "_checks", lambda: [
        ("refused", refused), ("fine", lambda ctx: (1.0, 1.0, 0.0, "exact"))])
    bad, good = run_validation(resolution=16)
    assert (bad.check_id, bad.passed) == ("refused", False)
    assert math.isnan(bad.actual)
    assert bad.detail == "error: no such sphere"
    assert (good.check_id, good.passed, good.actual) == ("fine", True, 1.0)
