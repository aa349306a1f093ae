"""Acceptance battery: eleven numbered end-to-end criteria.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the battery doubles as a readable
checklist of what the package claims:

 1. integral operators are exact on constants;
 2. composition residuals shrink under refinement;
 3. the classical limit of the quadratic solve matches the closed form;
 4. the second-form quantity is conserved along the classical solution;
 5. and visibly not conserved along the fractional one;
 6. the oscillator quantity's drift decreases with resolution;
 7. the discrete chain rule holds for dilations;
 8. the homogeneous planar Lagrangian is dilation-invariant, at the
    action level and at the infinitesimal level;
 9. the classically-transferred conservation law converges at order one
    and fails for fractional orders;
10. the symmetry checks classify localized dilations, translations, and
    the quadratic non-group exactly as designed;
11. the CLI is byte-deterministic and honors its exit-code contract.
"""

import math
import os

import numpy as np

import fracnoether.fracops as F
import fracnoether.lagrangian as LG
import fracnoether.noether as NO
import fracnoether.presets as PR
import fracnoether.solver as SV
import fracnoether.symmetry as SY
from fracnoether.cli import main

from common import solve_oscillator, solve_quadratic

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "presets")


def report(criterion, passed, detail):
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def composition_residual(n_sub, alpha):
    grid = F.make_grid(0.0, 1.0, n_sub)
    x = F.make_trajectory(grid, (grid.nodes**2)[:, None])
    return F.check_composition(grid, alpha, x).caputo_residual


def test_criterion_01_operator_exactness():
    constant = 3.7
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        order = F.FractionalOrder(alpha)
        grid = F.make_grid(0.0, 1.0, 64)
        vals = np.full((grid.n_nodes, 1), constant)
        scale = constant / math.gamma(alpha + 1.0)
        left = F.left_integral_matrix(grid, order) @ vals[:, 0]
        want = scale * (grid.nodes - grid.a) ** alpha
        worst = max(worst, np.max(np.abs(left - want)) / np.max(np.abs(want)))
        right = F.right_integral_matrix(grid, order) @ vals[:, 0]
        want = scale * (grid.b - grid.nodes) ** alpha
        worst = max(worst, np.max(np.abs(right - want)) / np.max(np.abs(want)))
    report(1, worst <= 1e-12, f"integral of a constant, relative error {worst:.3e}")


def test_criterion_02_composition_residuals_decrease():
    ok = True
    detail = []
    for alpha in (0.3, 0.5, 0.8):
        sups = [composition_residual(n, alpha) for n in (32, 64, 128, 256)]
        ok = ok and all(a > b for a, b in zip(sups, sups[1:]))
        detail.append(f"alpha={alpha}: {sups[0]:.2e} -> {sups[-1]:.2e}")
    report(2, ok, "; ".join(detail))


def test_criterion_03_classical_limit():
    reference = SV.classical_reference(
        0.0, 1.0, np.array([1.0, 2.0]), np.array([2.0, 1.0])
    )
    errors = []
    for n_sub in (200, 400):
        x = solve_quadratic(n_sub, 1.0)
        errors.append(np.max(np.abs(x.values - reference.value(x.grid.nodes))))
    ok = errors[0] <= 1e-3 and errors[1] < errors[0]
    report(3, ok, f"sup errors N=200/400: {errors[0]:.3e}, {errors[1]:.3e}")


def _q_drift(alpha):
    L = PR.kappa_lagrangian(-1.0, dim=2)
    x = solve_quadratic(200, alpha)
    return NO.drift(LG.second_el_quantity(L, x, alpha)).relative_drift


def test_criterion_04_classical_quantity_conserved():
    drift = _q_drift(1.0)
    report(4, drift <= 5e-2, f"Q drift at alpha=1, N=200: {drift:.3e}")


def test_criterion_05_fractional_quantity_drifts():
    classical = _q_drift(1.0)
    fractional = _q_drift(0.5)
    ok = fractional >= 10.0 * classical
    report(5, ok, f"Q drift ratio alpha=0.5 vs 1: {fractional / classical:.1f}x")


def test_criterion_06_oscillator_drift_decreases():
    ok = True
    detail = []
    for omega in (0.5, 1.0):
        for alpha in (0.7, 0.9):
            drifts = []
            for n_sub in (100, 200, 400):
                u = solve_oscillator(n_sub, alpha, omega)
                q = NO.oscillator_quantity(u, omega, alpha)
                drifts.append(NO.drift(q).relative_drift)
            ok = ok and drifts[0] > drifts[1] > drifts[2]
            detail.append(f"w={omega},a={alpha}: {drifts[0]:.3f}>{drifts[2]:.3f}")
    report(6, ok, "; ".join(detail))


def test_criterion_07_chain_rule():
    n_sub = 128
    alpha = 0.5
    tol = 10.0 * composition_residual(n_sub, alpha)
    grid = F.make_grid(0.0, 1.0, n_sub)
    x = F.make_trajectory(grid, (grid.nodes**2)[:, None])
    check = SY.check_chain_rule(SY.dilation(1.0), x, alpha, 0.3, tol=tol)
    report(
        7,
        check.passed,
        f"dilation s=0.3 violation {check.max_violation:.3e} vs tol {tol:.3e}",
    )


def test_criterion_08_example2_invariance():
    alpha = 0.5
    L = PR.example2_lagrangian(alpha)
    grid = F.make_grid(0.0, 1.0, 200)
    q = PR.example2_trajectory(grid)
    group = SY.dilation(-1.0)
    invariance = SY.check_invariance(L, group, q, alpha, tol=1e-3)
    residual = NO.infinitesimal_criterion_residual(L, group, q, alpha)
    sup = float(np.max(np.abs(residual.defined_values())))
    ok = invariance.passed and sup <= 1e-2
    report(
        8,
        ok,
        f"action gap {invariance.max_violation:.3e}, criterion sup {sup:.3e}",
    )


def test_criterion_09_weak_theorem_failure():
    L = PR.kappa_lagrangian(-1.0, dim=2)
    group = SY.time_translation()
    sups = []
    for n_sub in (100, 200, 400):
        x = solve_quadratic(n_sub, 1.0)
        r = NO.weak_theorem_residual(L, group, x, 1.0)
        sups.append(float(np.max(np.abs(r.defined_values()))))
    x = solve_quadratic(200, 0.5)
    r = NO.weak_theorem_residual(L, group, x, 0.5)
    fractional = float(np.max(np.abs(r.defined_values())))
    ok = sups[0] > sups[1] > sups[2] and fractional >= 10.0 * sups[1]
    report(
        9,
        ok,
        f"alpha=1 sups {sups[0]:.2e}>{sups[1]:.2e}>{sups[2]:.2e}; "
        f"alpha=0.5 ratio {fractional / sups[1]:.0f}x",
    )


def test_criterion_10_classification_matrix():
    a = 0.3
    grid = F.make_grid(a, a + 1.0, 128)
    x = F.make_trajectory(grid, ((grid.nodes - a) ** 2)[:, None])
    invariant_L = LG.make_lagrangian(
        1,
        lambda t, xv, v: (t - a) * np.vecdot(v, v),
        d_t=lambda t, xv, v: np.vecdot(v, v),
        d_x=lambda t, xv, v: np.zeros_like(xv),
        d_v=lambda t, xv, v: 2.0 * np.asarray(t - a)[..., None] * v,
    )
    autonomous_L = PR.kappa_lagrangian(-1.0, dim=1)

    def run_all(group, L, alpha):
        return {
            "group_law": SY.check_group_law(group, tol=1e-9),
            "admissible": SY.check_admissible(group, tol=1e-9),
            "localization": SY.check_localization(group, a, tol=1e-9),
            "chain_rule": SY.check_chain_rule(group, x, alpha, 0.25, tol=1e-9),
            "invariance": SY.check_invariance(L, group, x, alpha, tol=1e-9),
        }

    localized = run_all(SY.localized_dilation(0.7, a), invariant_L, 1.0)
    translation = run_all(SY.time_translation(), autonomous_L, 1.0)
    quadratic = run_all(SY.quadratic_time(), autonomous_L, 1.0)

    ok_localized = all(r.passed for r in localized.values())
    ok_translation = not translation["localization"].passed and all(
        r.passed for name, r in translation.items() if name != "localization"
    )
    ok_quadratic = (
        not quadratic["admissible"].passed and not quadratic["chain_rule"].passed
    )
    ok = ok_localized and ok_translation and ok_quadratic
    worst_localized = max(r.max_violation for r in localized.values())
    report(
        10,
        ok,
        f"localized all-pass (worst {worst_localized:.1e}); translation fails "
        "localization only; quadratic fails admissibility and chain rule",
    )


def test_criterion_11_cli_contract(tmp_path):
    preset = os.path.join(PRESET_DIR, "harmonic2d.cfg")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ok = main(["noether", "--config", preset, "--out", str(out_a)]) == 0
    ok = ok and main(["noether", "--config", preset, "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    identical = ok and names == sorted(os.listdir(out_b))
    for name in names:
        identical = identical and (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # scenario 1: missing required key
    bad = tmp_path / "noomega.cfg"
    bad.write_text("problem = oscillator\nalphas = 0.9\nn_sub = 50\n")
    code1 = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o1")])

    # scenario 2: singular assembled system
    grid = F.make_grid(0.0, 1.0, 2)
    order = F.FractionalOrder(0.5)
    K = (
        F.left_integral_matrix(grid, order)
        @ F.right_integral_matrix(grid, order)
    )
    shape = SV.boundary_shape(grid, order)
    kappa = 1.0 / (K[1, 1] - shape[1] * K[2, 1])
    singular = tmp_path / "singular.cfg"
    singular.write_text(
        f"problem = custom\nkappa = {kappa:.17g}\nalphas = 0.5\nn_sub = 2\n"
        "bc = dirichlet, 1, 2\n"
    )
    code2 = main(["solve", "--config", str(singular), "--out", str(tmp_path / "o2")])

    # scenario 3: expected-conserved quantity that drifts
    drifting = tmp_path / "drifting.cfg"
    drifting.write_text(
        "problem = harmonic2d\nalphas = 0.5\nn_sub = 200\n"
        "quantity = q\nexpected_conserved = true\n"
    )
    code3 = main(["noether", "--config", str(drifting), "--out", str(tmp_path / "o3")])

    ok = identical and (code1, code2, code3) == (1, 2, 3)
    report(
        11,
        ok,
        f"byte-identical reruns: {identical}; exit codes {code1}/{code2}/{code3}",
    )
