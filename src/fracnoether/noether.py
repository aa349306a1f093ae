"""Conserved-quantity candidates along trajectories and their drift.

Every quantity here has the shape

    I(x)(t) = boundary term at t + cumulative integral over [a, t]

with the integrand assembled from the trajectory, the Lagrangian's
partials, and fractional derivatives of node series.  Whether I is
actually constant along a computed trajectory is the package's primary
verification signal: ``drift`` reduces a series to
(max - min) / max(|mean|, 1e-12) over its defined nodes.

All quantities come from one assembly at a symmetry generator: the
autonomous and oscillator quantities are the general one at the time
translation (the oscillator's with its stock Lagrangian), and the two
residual series draw on the same ingredients.  Those come from
``lagrangian._along``, the package's one evaluation of a Lagrangian along
a trajectory: it checks the arguments before any apply; takes D_a+ x,
each partial and D_b- of the momentum dL/dv once per (L, x, alpha,
convention), shared by quantities and residuals on one trajectory;
decides in ``left`` whether D_a+ of a further series needs an apply
(none for an all-zero series or for x itself), and ``fracops`` keeps
the convolutions of those that do; and computes the Jost w-partial
L - f D_a+ x . dL/dv.  Each series names its operators with
``lagrangian._operators``, passing whether it took D_b-.
This module applies no operator and spells no operator name itself.

Conventions (each series' ``context`` names D_b- exactly when its value
uses one):

* Left derivatives D_a+ default to Caputo, matching the velocity slot of
  the action; ``convention="rl"`` switches them to Riemann-Liouville,
  whose node-0 value is undefined for alpha < 1 and stays masked.
* Right derivatives D_b- are always Riemann-Liouville, matching the
  stationarity condition; their node-N value is masked for alpha < 1.
* Classical derivatives of node series (xdot, zeta-dot, d/dt of
  assembled quantities) use second-order central differences with
  one-sided second-order ends (np.gradient).  zeta-dot is taken of
  zeta - zeta(a), so it is exactly 0 for a constant zeta.
* Input trajectories must be fully defined; masking enters only through
  operator boundary rows or out-of-domain Lagrangian evaluations (NaN
  from the evaluators).  The cumulative integral at node k reads the
  integrand at nodes 0..k, so a masked integrand node masks the quantity
  there and at every later node.  Node 0 is the integral's zero
  endpoint: a masked integrand there (the rl convention's undefined
  node 0) contributes nothing and masks nothing.  A product with an
  undefined factor is undefined even against a zero factor.

Evaluators are expected to propagate NaN inputs to NaN outputs (the
stock Lagrangians do); a NaN row in an ingredient series marks the node
undefined rather than raising.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fracops import Trajectory
from .lagrangian import _DEFAULT_CONVENTION, LagrangianSpec, QuantitySeries, _Along, _along
from .lagrangian import _as_series, _operators, make_series
from .presets import oscillator_lagrangian
from .symmetry import GroupSpec, time_translation

DRIFT_FLOOR = 1e-12
AUTONOMY_TOL = 1e-9
# the forms noether_quantity accepts; the CLI defaults to the first
VARIANTS = ("conslaw", "conslaw2")


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
# assembly


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
    # the one-sided end weights of np.gradient do not sum to exactly 0, so
    # differentiate zeta - zeta(a); a non-finite zeta(a) counts as 0 so
    # that a NaN stays local
    zeta_a = zeta[0] if np.isfinite(zeta[0]) else 0.0
    zeta_dot = np.gradient(zeta - zeta_a, x.grid.h, edge_order=2)
    xi = _as_series(
        g.xi(x.values), x.values.shape, "xi must return one component per configuration"
    )
    return zeta, zeta_dot, xi


def _quantity(s: _Along, g: GroupSpec, variant: str, form: str, diffs: str) -> QuantitySeries:
    """The Noether-type quantity of generator ``g`` (see noether_quantity)."""
    h = s.grid.h
    right = variant == "conslaw"
    zeta, zeta_dot, xi = _group_series(g, s.x)
    xdot = np.gradient(s.x.values, h, axis=0, edge_order=2)
    lvals = s.at("eval")
    p = s.at("d_v")

    # a term that overflows masks its node, as any non-finite integrand does,
    # and so does a boundary term or running integral that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = xdot * zeta[:, None] - xi
        if right:
            lead = np.sum(s.right_of_momentum() * shifted, axis=1)
        else:
            # on stationary trajectories D_b-[dL/dv] = -dL/dx; substituting
            # removes the right derivative (and its masked node) entirely
            lead = -np.sum(s.at("d_x") * shifted, axis=1)
        second = np.sum(
            p * (zeta[:, None] * s.left(xdot) + zeta_dot[:, None] * s.dxa - s.left(xi)),
            axis=1,
        )
        integrand = lead - second
        fmask = np.isfinite(integrand)
        values = lvals * zeta + _cumtrapz_masked(integrand, fmask, h)
    # node k integrates over nodes 0..k; node 0 is the zero endpoint
    mask = np.isfinite(values)
    mask[1:] &= np.logical_and.accumulate(fmask[1:])
    context = f"{form}; {_operators(s.convention, right)}; {diffs} by central differences"
    return make_series(s.grid, np.where(mask, values, np.nan), mask=mask, context=context)


# ---------------------------------------------------------------------------
# quantities


def noether_quantity(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    variant: str = "conslaw",
    convention: str = _DEFAULT_CONVENTION,
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
    if variant not in VARIANTS:
        raise ValueError(
            f"variant must be {' or '.join(map(repr, VARIANTS))}, got {variant!r}"
        )
    s = _along(L, x, alpha, "noether_quantity", convention)
    return _quantity(s, g, variant, f"{variant} form", "xdot and zeta-dot")


def autonomous_quantity(
    L: LagrangianSpec,
    x: Trajectory,
    alpha,
    convention: str = _DEFAULT_CONVENTION,
) -> QuantitySeries:
    """Energy-like quantity of an autonomous Lagrangian:

        I(x)(t) = L(*) + integral of D_b-[dL/dv] . xdot - dL/dv . D_a+[xdot].

    Equals ``noether_quantity`` for the time-translation generator
    (zeta = 1, xi = 0).  Rejects Lagrangians whose sampled |dL/dt|
    exceeds ``AUTONOMY_TOL`` along the trajectory.
    """
    s = _along(L, x, alpha, "autonomous_quantity", convention)
    tvals = s.at("d_t")
    worst = float(np.max(np.abs(tvals), initial=0.0, where=np.isfinite(tvals)))
    if worst > AUTONOMY_TOL:
        raise ValueError(
            "Lagrangian is not autonomous: max sampled |dL/dt| = "
            f"{worst:.3e} > {AUTONOMY_TOL:g}"
        )
    return _quantity(
        s, time_translation(), "conslaw", "autonomous form (zeta = 1, xi = 0)", "xdot"
    )


def oscillator_quantity(u: Trajectory, omega: float, alpha) -> QuantitySeries:
    """Oscillator first integral,

        (D_a+ u)^2 / 2 - omega^2 u^2 / 2
        + integral of (-D_a+[u'] D_a+[u] + u' D_b-[D_a+ u]),

    the time-translation quantity of ``oscillator_lagrangian(omega)``.
    The left derivatives are Caputo; the form assumes u(a) = 0 (where
    Caputo and Riemann-Liouville coincide), and a nonzero u(a) draws a
    warning since the distinction then becomes material.
    """
    if u.dim != 1:
        raise ValueError(f"oscillator_quantity expects a scalar trajectory, got dim {u.dim}")
    s = _along(oscillator_lagrangian(omega), u, alpha, "oscillator_quantity")
    if u.values[0, 0] != 0.0:
        warnings.warn(
            f"u(a) = {u.values[0, 0]:g} != 0: the Caputo and "
            "Riemann-Liouville left derivatives differ, and the quantity "
            "uses the Caputo form",
            stacklevel=2,
        )
    return _quantity(s, time_translation(), "conslaw", "oscillator form", "u'")


# ---------------------------------------------------------------------------
# residual series


def infinitesimal_criterion_residual(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    ce_alpha_factor: bool = True,
    convention: str = _DEFAULT_CONVENTION,
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
    s = _along(L, x, alpha, "infinitesimal_criterion_residual", convention)
    zeta, zeta_dot, xi = _group_series(g, x)
    series = (
        s.at("d_t") * zeta
        + np.sum(s.at("d_x") * xi, axis=1)
        + s.w_partial(s.o.alpha if ce_alpha_factor else 1.0) * zeta_dot
        + np.sum(s.at("d_v") * s.left(xi), axis=1)
    )
    weight = "alpha-weighted" if ce_alpha_factor else "unweighted"
    context = f"{weight} boundary-velocity term; {_operators(s.convention, right=False)}"
    return make_series(s.grid, series, context=context)


def weak_theorem_residual(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    convention: str = _DEFAULT_CONVENTION,
) -> QuantitySeries:
    """Node series of the classically-transferred conservation claim,

        d/dt[(L - D_a+[x] . dL/dv) zeta]
        + dL/dv . D_a+[xi] - D_b-[dL/dv] . xi.

    Vanishing additionally requires the energy-identity condition along
    the trajectory, which holds automatically at alpha = 1 but
    generically fails for alpha < 1; the series quantifies that failure.
    """
    s = _along(L, x, alpha, "weak_theorem_residual", convention)
    zeta, _, xi = _group_series(g, x)
    series = (
        np.gradient(s.w_partial(1.0) * zeta, s.grid.h, edge_order=2)
        + np.sum(s.at("d_v") * s.left(xi), axis=1)
        - np.sum(s.right_of_momentum() * xi, axis=1)
    )
    context = f"{_operators(s.convention, right=True)}; d/dt by central differences"
    return make_series(s.grid, series, context=context)
