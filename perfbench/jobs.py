"""In-process jobs of the solve-sweep-3200 and analysis-3200 workloads,
each with its correctness oracle.

A job returns (accuracy, problems): every accuracy value it measured and
the list of oracle violations (empty when the job is correct).  Jobs call
the package through ``fn.<name>`` attribute lookups at call time, so the
tracer's rebinding sees every call; Lagrangians are built inside the job so
their evaluator calls are counted.

Tolerances sit at discretization level, not rounding level: a path that
agrees with the dense one to ~1e-12 passes, a wrong answer fails.
"""

import random

import numpy as np

import fracnoether as fn
from fracnoether.config import DEFAULT_DRIFT_TOLERANCE

N_SUB = 3200
SMOKE_N_SUB = 32

# The dense solve leaves a residual of ~5e-15 on data of size ~2; an
# iterative solve stopped at a 1e-12 relative tolerance stays far below.
RESIDUAL_MAX = 1e-9
# The alpha = 1 errors against the closed forms are 0.026 h^2 (Dirichlet)
# and 0.165 h^2 (initial data) at every n_sub from 16 to 3200.
CLOSED_FORM_ERR_PER_H2 = 1.0
# On the harmonic closed form at alpha = 1 the transferred-theorem and
# Euler-Lagrange residuals are 0.83 h and 0.54 h (one-sided end stencils).
RESIDUAL_PER_H = 2.0
# check_invariance on example2 under the dilation is exact up to rounding
# (2e-17 at the seed); so is the infinitesimal criterion (9e-16), which is
# an algebraic identity at every node.
INVARIANCE_MAX = 1e-9
CRITERION_MAX = 1e-10


def _dirichlet_data(rng):
    # data in [1, 2] keeps both exponential coefficients of the alpha = 1
    # closed form positive, so the conserved energy 2 c1.c2 stays away from
    # zero and its relative drift is well defined
    xa = np.array([rng.uniform(1.0, 2.0) for _ in range(2)])
    xb = np.array([rng.uniform(1.0, 2.0) for _ in range(2)])
    return xa, xb


def _harmonic_solve(grid, alpha, xa, xb):
    L = fn.kappa_lagrangian(-1.0, dim=2)
    report = fn.solve(
        fn.LinearProblem(grid=grid, alpha=alpha, dim=2, kappa=-1.0, bc=fn.dirichlet(xa, xb))
    )
    series = fn.noether_quantity(L, fn.time_translation(), report.solution, alpha)
    acc = {
        "residual": report.residual_norm,
        "cond": report.condition_estimate,
        "drift": fn.drift(series).relative_drift,
    }
    if alpha == 1.0:
        exact = fn.classical_reference(grid.a, grid.b, xa, xb)(grid.nodes)
        acc["closed_form_err"] = float(np.max(np.abs(report.solution.values - exact)))
    return acc


def _oscillator_solve(grid, alpha):
    # u'' = -u with u(0) = 0, u'(0) = 1 (kappa = +1), closed form sin t
    report = fn.solve(
        fn.LinearProblem(grid=grid, alpha=alpha, dim=1, kappa=1.0, bc=fn.initial([0.0], [1.0]))
    )
    series = fn.oscillator_quantity(report.solution, 1.0, alpha)
    acc = {
        "residual": report.residual_norm,
        "cond": report.condition_estimate,
        "drift": fn.drift(series).relative_drift,
    }
    if alpha == 1.0:
        exact = np.sin(grid.nodes)
        acc["closed_form_err"] = float(np.max(np.abs(report.solution.values[:, 0] - exact)))
    return acc


def _solve_oracle(acc, alpha, h, harmonic):
    problems = []
    if not acc["residual"] <= RESIDUAL_MAX:
        problems.append(f"solver residual {acc['residual']:.3e} > {RESIDUAL_MAX:g}")
    if alpha == 1.0:
        bound = CLOSED_FORM_ERR_PER_H2 * h * h
        if not acc["closed_form_err"] <= bound:
            problems.append(f"closed-form error {acc['closed_form_err']:.3e} > {bound:.3e}")
        if not acc["drift"] < DEFAULT_DRIFT_TOLERANCE:
            problems.append(f"alpha = 1 drift {acc['drift']:.3e} not conserved")
    elif harmonic and not acc["drift"] > DEFAULT_DRIFT_TOLERANCE:
        problems.append(f"alpha < 1 drift {acc['drift']:.3e} reads as conserved")
    return problems


def solve_sweep(seed, smoke):
    """Four jobs: harmonic2d (Dirichlet data, time translation) and the
    oscillator (initial data), each at a drawn alpha < 1 and at alpha = 1."""
    rng = random.Random(seed)
    grid = fn.make_grid(0.0, 1.0, SMOKE_N_SUB if smoke else N_SUB)
    xa, xb = _dirichlet_data(rng)
    alpha_h = rng.uniform(0.2, 0.95)
    alpha_o = rng.uniform(0.2, 0.95)

    def harmonic(alpha):
        def job():
            acc = _harmonic_solve(grid, alpha, xa, xb)
            return acc, _solve_oracle(acc, alpha, grid.h, harmonic=True)

        return job

    def oscillator(alpha):
        def job():
            acc = _oscillator_solve(grid, alpha)
            return acc, _solve_oracle(acc, alpha, grid.h, harmonic=False)

        return job

    return [
        (f"harmonic2d alpha={alpha_h:.6g}", harmonic(alpha_h)),
        ("harmonic2d alpha=1", harmonic(1.0)),
        (f"oscillator alpha={alpha_o:.6g}", oscillator(alpha_o)),
        ("oscillator alpha=1", oscillator(1.0)),
    ]


def _battery(grid, q, x_harmonic, alpha):
    """example2 on q = (t, t^2) under the dilation c = -1 at alpha, then the
    harmonic closed form at alpha = 1."""
    L = fn.example2_lagrangian(alpha)
    g = fn.dilation(-1.0)
    conslaw = fn.noether_quantity(L, g, q, alpha)
    conslaw2 = fn.noether_quantity(L, g, q, alpha, variant="conslaw2")
    criterion = fn.infinitesimal_criterion_residual(L, g, q, alpha)
    comp = fn.check_composition(grid, alpha, q)
    # the CLI's discretization tolerance for the chain-rule and invariance checks
    tol = max(10.0 * max(comp.caputo_residual, comp.rl_residual), 1e-9)
    chain = fn.check_chain_rule(g, q, alpha, 0.5, tol=tol)
    invariance = fn.check_invariance(L, g, q, alpha, tol=tol)

    Lh = fn.kappa_lagrangian(-1.0, dim=2)
    tt = fn.time_translation()
    energy = fn.noether_quantity(Lh, tt, x_harmonic, 1.0)
    autonomous = fn.autonomous_quantity(Lh, x_harmonic, 1.0)
    weak = fn.weak_theorem_residual(Lh, tt, x_harmonic, 1.0)
    el = fn.el_residual(Lh, x_harmonic, 1.0)

    acc = {
        "conslaw_drift": fn.drift(conslaw).relative_drift,
        "conslaw2_drift": fn.drift(conslaw2).relative_drift,
        "criterion_max": float(np.max(np.abs(criterion.defined_values()))),
        "composition_caputo": comp.caputo_residual,
        "composition_rl": comp.rl_residual,
        "chain_rule": chain.max_violation,
        "invariance": invariance.max_violation,
        "energy_drift": fn.drift(energy).relative_drift,
        "autonomous_drift": fn.drift(autonomous).relative_drift,
        "weak_theorem_max": float(np.max(np.abs(weak.defined_values()))),
        "el_residual_max": float(np.max(np.abs(el.values[el.mask]))),
    }
    problems = []
    if not (invariance.passed and invariance.max_violation <= INVARIANCE_MAX):
        problems.append(f"invariance violation {invariance.max_violation:.3e}")
    if not acc["criterion_max"] <= CRITERION_MAX:
        problems.append(f"infinitesimal criterion {acc['criterion_max']:.3e} > {CRITERION_MAX:g}")
    if not chain.passed:
        problems.append(f"chain rule violation {chain.max_violation:.3e} > {tol:.3e}")
    for key in ("energy_drift", "autonomous_drift"):
        if not acc[key] < DEFAULT_DRIFT_TOLERANCE:
            problems.append(f"alpha = 1 {key} {acc[key]:.3e} not conserved")
    bound = RESIDUAL_PER_H * grid.h
    for key in ("weak_theorem_max", "el_residual_max"):
        if not acc[key] <= bound:
            problems.append(f"{key} {acc[key]:.3e} > {bound:.3e}")
    return acc, problems


def analysis(seed, smoke):
    """Four jobs, one battery each, at four drawn orders alpha < 1."""
    rng = random.Random(seed)
    grid = fn.make_grid(0.0, 1.0, SMOKE_N_SUB if smoke else N_SUB)
    xa, xb = _dirichlet_data(rng)
    alphas = [rng.uniform(0.3, 0.9) for _ in range(4)]
    q = fn.example2_trajectory(grid)
    exact = fn.classical_reference(grid.a, grid.b, xa, xb)(grid.nodes)
    x_harmonic = fn.make_trajectory(grid, exact)

    def battery(alpha):
        return lambda: _battery(grid, q, x_harmonic, alpha)

    return [(f"battery alpha={a:.6g}", battery(a)) for a in alphas]


WORKLOADS = {"solve-sweep-3200": solve_sweep, "analysis-3200": analysis}
