"""Conserved-quantity candidates along trajectories and their drift.

Every quantity here has the shape

    I(x)(t) = boundary term at t + cumulative integral over [a, t]

with the integrand assembled from the trajectory, the Lagrangian's
partials, and fractional derivatives of node series.  Whether I is
actually constant along a computed trajectory is the package's primary
verification signal: ``drift`` reduces a series to
(max - min) / max(|mean|, 1e-12) over its defined nodes.

Conventions (named in every series' ``context``):

* Left derivatives D_a+ default to Caputo, matching the velocity slot of
  the action; ``convention="rl"`` switches them to Riemann-Liouville,
  whose node-0 value is undefined for alpha < 1 and stays masked.
* Right derivatives D_b- are always Riemann-Liouville, matching the
  stationarity condition; their node-N value is masked for alpha < 1.
* Classical derivatives of node series (xdot, zeta-dot, d/dt of
  assembled quantities) use second-order central differences with
  one-sided second-order ends (np.gradient).
* Input trajectories must be fully defined; masking enters only through
  operator boundary rows or out-of-domain Lagrangian evaluations (NaN
  from the evaluators).  A masked integrand node contributes nothing to
  the cumulative panels; the node-N value of a quantity is itself masked
  when its final panel was incomplete.  A product with an undefined
  factor is undefined even against a zero factor.

Evaluators are expected to propagate NaN inputs to NaN outputs (the
stock Lagrangians do); a NaN row in an ingredient series marks the node
undefined rather than raising.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fracops import (
    Trajectory,
    _order,
    caputo_left,
    make_trajectory,
    rl_left,
    rl_right,
)
from .lagrangian import (
    LagrangianSpec,
    QuantitySeries,
    _as_series,
    _check_compatible,
    _node_series,
    _require_defined,
    make_series,
)
from .symmetry import GroupSpec

DRIFT_FLOOR = 1e-12

_LEFT_OPS = {"caputo": caputo_left, "rl": rl_left}


@dataclass(frozen=True)
class DriftReport:
    """Spread statistics of a quantity over its defined nodes."""

    min: float
    max: float
    mean: float
    relative_drift: float
    series: QuantitySeries = field(repr=False)


def drift(series: QuantitySeries) -> DriftReport:
    """Reduce a series to its drift: (max - min) / max(|mean|, 1e-12),
    masked nodes ignored.  A constant series has drift exactly 0."""
    vals = series.defined_values()
    if vals.size < 2:
        raise ValueError(
            f"drift needs at least 2 defined nodes, got {vals.size}"
        )
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    mean = float(np.mean(vals))
    rel = (hi - lo) / max(abs(mean), DRIFT_FLOOR)
    return DriftReport(
        min=lo, max=hi, mean=mean, relative_drift=rel, series=series
    )


# ---------------------------------------------------------------------------
# assembly pieces


def _left_op(convention: str):
    try:
        return _LEFT_OPS[convention]
    except KeyError:
        raise ValueError(
            f"convention must be one of {sorted(_LEFT_OPS)}, got {convention!r}"
        ) from None


def _cumtrapz_masked(f: np.ndarray, fmask: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid with masked entries contributing zero."""
    fm = np.where(fmask, f, 0.0)
    panels = 0.5 * h * (fm[:-1] + fm[1:])
    out = np.empty(f.shape[0])
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def _group_series(g: GroupSpec, x: Trajectory):
    nodes = x.grid.nodes
    zeta = _as_series(g.zeta(nodes), nodes.shape, "zeta must return one value per node")
    zeta_dot = np.gradient(zeta, x.grid.h, edge_order=2)
    xi = _as_series(
        g.xi(x.values), x.values.shape, "xi must return one component per configuration"
    )
    return zeta, zeta_dot, xi


def _assemble_quantity(
    L: LagrangianSpec,
    x: Trajectory,
    o,
    zeta: np.ndarray,
    zeta_dot: np.ndarray,
    xi: np.ndarray,
    variant: str,
    convention: str,
    context: str,
    dxa: np.ndarray | None = None,
) -> QuantitySeries:
    """``dxa``, when given, is the caller's D_a+ x (saves one apply)."""
    grid = x.grid
    h = grid.h
    left = _left_op(convention)

    if dxa is None:
        dxa = left(grid, o, x).values
    xdot = np.gradient(x.values, h, axis=0, edge_order=2)
    dxdot = left(grid, o, make_trajectory(grid, xdot)).values
    dxi = left(grid, o, make_trajectory(grid, xi)).values

    lvals = _node_series(L, "eval", grid.nodes, x.values, dxa)
    p = _node_series(L, "d_v", grid.nodes, x.values, dxa)

    shifted = xdot * zeta[:, None] - xi
    if variant == "conslaw":
        p_rows = np.all(np.isfinite(p), axis=1)
        p_traj = make_trajectory(grid, p, mask=p_rows)
        dbp = rl_right(grid, o, p_traj).values
        lead = np.sum(dbp * shifted, axis=1)
    elif variant == "conslaw2":
        # on stationary trajectories D_b-[dL/dv] = -dL/dx; substituting
        # removes the right derivative (and its masked node) entirely
        dgx = _node_series(L, "d_x", grid.nodes, x.values, dxa)
        lead = -np.sum(dgx * shifted, axis=1)
    else:
        raise ValueError(
            f"variant must be 'conslaw' or 'conslaw2', got {variant!r}"
        )

    second = np.sum(
        p * (zeta[:, None] * dxdot + zeta_dot[:, None] * dxa - dxi), axis=1
    )
    integrand = lead - second
    fmask = np.isfinite(integrand)

    boundary = lvals * zeta
    values = boundary + _cumtrapz_masked(integrand, fmask, h)
    mask = np.isfinite(boundary)
    mask[-1] = mask[-1] and fmask[-1]
    return make_series(
        grid, np.where(mask, values, np.nan), mask=mask, context=context
    )


# ---------------------------------------------------------------------------
# quantities


def noether_quantity(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    variant: str = "conslaw",
    convention: str = "caputo",
) -> QuantitySeries:
    """Candidate first integral attached to a symmetry generator.

    I(x)(t) = L(*) zeta(t) + integral over [a, t] of

        D_b-[dL/dv(*)] . (xdot zeta - xi)
        - dL/dv(*) . (zeta D_a+[xdot] + zeta-dot D_a+[x] - D_a+[xi]),

    where (*) = (t, x, D_a+ x).  The ``conslaw2`` variant replaces
    D_b-[dL/dv] by -dL/dx, which agrees on stationary trajectories (the
    two differ exactly by the Euler-Lagrange residual contracted with
    xdot zeta - xi) and needs no right derivative.
    """
    o = _order(alpha)
    _require_defined(x, "noether_quantity")
    _check_compatible(L, x)
    zeta, zeta_dot, xi = _group_series(g, x)
    context = (
        f"{variant} form; D_a+ = {convention}, D_b- = rl; "
        "xdot and zeta-dot by central differences"
    )
    return _assemble_quantity(
        L, x, o, zeta, zeta_dot, xi, variant, convention, context
    )


def autonomous_quantity(
    L: LagrangianSpec,
    x: Trajectory,
    alpha,
    convention: str = "caputo",
    tol: float = 1e-9,
) -> QuantitySeries:
    """Energy-like quantity of an autonomous Lagrangian:

        I(x)(t) = L(*) + integral of D_b-[dL/dv] . xdot - dL/dv . D_a+[xdot].

    Equals ``noether_quantity`` for the time-translation generator
    (zeta = 1, xi = 0).  Rejects Lagrangians whose sampled |dL/dt|
    exceeds ``tol`` along the trajectory.
    """
    o = _order(alpha)
    _require_defined(x, "autonomous_quantity")
    _check_compatible(L, x)
    grid = x.grid
    dxa = _left_op(convention)(grid, o, x).values
    tvals = _node_series(L, "d_t", grid.nodes, x.values, dxa)
    tvals = tvals[np.isfinite(tvals)]
    if tvals.size and float(np.max(np.abs(tvals))) > tol:
        raise ValueError(
            "Lagrangian is not autonomous: max sampled |dL/dt| = "
            f"{float(np.max(np.abs(tvals))):.3e} > {tol:g}"
        )
    zeta = np.ones(grid.n_nodes)
    zeta_dot = np.zeros(grid.n_nodes)
    xi = np.zeros_like(x.values)
    context = (
        f"autonomous form (zeta = 1, xi = 0); D_a+ = {convention}, "
        "D_b- = rl; xdot by central differences"
    )
    return _assemble_quantity(
        L, x, o, zeta, zeta_dot, xi, "conslaw", convention, context, dxa
    )


def oscillator_quantity(u: Trajectory, omega: float, alpha) -> QuantitySeries:
    """Oscillator first integral, transcribed directly:

        (D_a+ u)^2 / 2 - omega^2 u^2 / 2
        + integral of (-D_a+[u'] D_a+[u] + u' D_b-[D_a+ u]).

    The left derivatives are Caputo; the form assumes u(a) = 0 (where
    Caputo and Riemann-Liouville coincide), and a nonzero u(a) draws a
    warning since the distinction then becomes material.
    """
    o = _order(alpha)
    _require_defined(u, "oscillator_quantity")
    if u.dim != 1:
        raise ValueError(f"oscillator_quantity expects a scalar trajectory, got dim {u.dim}")
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive and finite")
    if u.values[0, 0] != 0.0:
        warnings.warn(
            f"u(a) = {u.values[0, 0]:g} != 0: the Caputo and "
            "Riemann-Liouville left derivatives differ, and the quantity "
            "uses the Caputo form",
            stacklevel=2,
        )

    grid = u.grid
    h = grid.h
    du_traj = caputo_left(grid, o, u)
    du = du_traj.values[:, 0]
    udot = np.gradient(u.values[:, 0], h, edge_order=2)
    dudot = caputo_left(grid, o, make_trajectory(grid, udot)).values[:, 0]
    dbdu = rl_right(grid, o, du_traj).values[:, 0]

    integrand = -dudot * du + udot * dbdu
    fmask = np.isfinite(integrand)
    values = (
        0.5 * du**2
        - 0.5 * omega**2 * u.values[:, 0] ** 2
        + _cumtrapz_masked(integrand, fmask, h)
    )
    mask = np.ones(grid.n_nodes, dtype=bool)
    mask[-1] = fmask[-1]
    context = (
        "oscillator form; D_a+ = caputo, D_b- = rl; "
        "u' by central differences"
    )
    return make_series(
        grid, np.where(mask, values, np.nan), mask=mask, context=context
    )


# ---------------------------------------------------------------------------
# residual series


def infinitesimal_criterion_residual(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    ce_alpha_factor: bool = True,
    convention: str = "caputo",
) -> QuantitySeries:
    """Node series of the infinitesimal invariance criterion,

        dL/dt zeta + dL/dx . xi + L zeta-dot
        + dL/dv . (-alpha D_a+[x] zeta-dot + D_a+[xi]),

    which is near zero exactly when the group is a variational symmetry.
    The factor alpha on the D_a+[x] zeta-dot term comes from the w-slot
    partial of the autonomous extension; ``ce_alpha_factor=False`` drops
    it (the plain-derivative form), which is inconsistent with the
    extension for alpha < 1 and generically non-zero even on symmetries.
    """
    o = _order(alpha)
    _require_defined(x, "infinitesimal_criterion_residual")
    _check_compatible(L, x)
    grid = x.grid
    left = _left_op(convention)

    dxa = left(grid, o, x).values
    zeta, zeta_dot, xi = _group_series(g, x)
    dxi = left(grid, o, make_trajectory(grid, xi)).values

    lvals = _node_series(L, "eval", grid.nodes, x.values, dxa)
    tvals = _node_series(L, "d_t", grid.nodes, x.values, dxa)
    dgx = _node_series(L, "d_x", grid.nodes, x.values, dxa)
    p = _node_series(L, "d_v", grid.nodes, x.values, dxa)

    factor = o.alpha if ce_alpha_factor else 1.0
    series = (
        tvals * zeta
        + np.sum(dgx * xi, axis=1)
        + lvals * zeta_dot
        + np.sum(p * (-factor * dxa * zeta_dot[:, None] + dxi), axis=1)
    )
    weight = "alpha-weighted" if ce_alpha_factor else "unweighted"
    context = f"{weight} boundary-velocity term; D_a+ = {convention}"
    return make_series(grid, series, context=context)


def weak_theorem_residual(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    convention: str = "caputo",
) -> QuantitySeries:
    """Node series of the classically-transferred conservation claim,

        d/dt[(L - D_a+[x] . dL/dv) zeta]
        + dL/dv . D_a+[xi] - D_b-[dL/dv] . xi.

    Vanishing additionally requires the energy-identity condition along
    the trajectory, which holds automatically at alpha = 1 but
    generically fails for alpha < 1; the series quantifies that failure.
    """
    o = _order(alpha)
    _require_defined(x, "weak_theorem_residual")
    _check_compatible(L, x)
    grid = x.grid
    h = grid.h
    left = _left_op(convention)

    dxa = left(grid, o, x).values
    zeta, _, xi = _group_series(g, x)
    dxi = left(grid, o, make_trajectory(grid, xi)).values

    lvals = _node_series(L, "eval", grid.nodes, x.values, dxa)
    p = _node_series(L, "d_v", grid.nodes, x.values, dxa)
    p_rows = np.all(np.isfinite(p), axis=1)
    dbp = rl_right(grid, o, make_trajectory(grid, p, mask=p_rows)).values

    energy = (lvals - np.sum(dxa * p, axis=1)) * zeta
    series = (
        np.gradient(energy, h, edge_order=2)
        + np.sum(p * dxi, axis=1)
        - np.sum(dbp * xi, axis=1)
    )
    context = (
        f"D_a+ = {convention}, D_b- = rl; d/dt by central differences"
    )
    return make_series(grid, series, context=context)
