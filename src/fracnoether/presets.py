"""Ready-made Lagrangians and trajectories for the worked examples.

Three model problems recur throughout the package and its tests:

* the quadratic family L = ||v||^2/2 - (kappa/2) ||x||^2, whose
  stationarity condition is exactly the linear two-sided equation the
  solver handles (kappa = -1 gives the planar "harmonic" benchmark);
* the fractional oscillator L = v^2/2 - omega^2 u^2 / 2, the kappa
  family at kappa = omega^2 in one component;
* the alpha-indexed family L = v1^{1/alpha} x2 - v2^{1/alpha} x1 with
  its closed-form partials.

The fractional powers in the last family are only real for non-negative
arguments; ``guarded_power`` works elementwise on arrays and returns NaN
outside that domain (and the conventional limits 0^0 = 1, 0^p = 0 for
p > 0 on the boundary), so a trajectory whose derivative goes negative
yields masked series entries downstream rather than complex garbage or
a RuntimeWarning.  All evaluators follow the array contract of
``lagrangian`` (component axis last, ``[..., i]`` indexing) and tolerate
NaN inputs by propagating them.
"""

from __future__ import annotations

import math

import numpy as np

from .fracops import Grid, Trajectory, make_trajectory
from .lagrangian import LagrangianSpec, make_lagrangian


def kappa_lagrangian(kappa: float = -1.0, dim: int = 2) -> LagrangianSpec:
    """L(t, x, v) = ||v||^2/2 - (kappa/2) ||x||^2.

    Stationary trajectories satisfy the linear two-sided equation with
    coupling kappa, matching the solver's convention.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    return make_lagrangian(
        dim,
        eval=lambda t, x, v: 0.5 * np.vecdot(v, v) - 0.5 * kappa * np.vecdot(x, x),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: -kappa * np.asarray(x, dtype=float),
        d_v=lambda t, x, v: np.asarray(v, dtype=float),
    )


def oscillator_lagrangian(omega: float) -> LagrangianSpec:
    """L(t, u, v) = v^2/2 - omega^2 u^2 / 2 (scalar configuration)."""
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive and finite")
    return kappa_lagrangian(kappa=omega * omega, dim=1)


def guarded_power(base, exponent):
    """base**exponent elementwise for non-negative base, NaN otherwise.

    0**0 is taken as 1 and 0**p as 0 for p > 0, the limits the
    alpha-family's partials need; a negative base (or a negative
    exponent at 0) has no real value and maps to NaN so that downstream
    series mask the node instead of failing.  NaN in gives NaN out, even
    1**nan, which a bare power takes as 1.
    """
    base = np.asarray(base, dtype=float)
    exponent = np.asarray(exponent, dtype=float)
    positive = base > 0.0
    # the power only sees positive bases, so no invalid-value warning escapes
    powered = np.power(np.where(positive, base, 1.0), exponent)
    at_zero = np.where(exponent == 0.0, 1.0, np.where(exponent > 0.0, 0.0, np.nan))
    out = np.where(positive, powered, np.where(base == 0.0, at_zero, np.nan))
    return np.where(np.isnan(exponent), np.nan, out)[()]


def example2_lagrangian(alpha) -> LagrangianSpec:
    """The planar family L = v1^{1/alpha} x2 - v2^{1/alpha} x1.

    Autonomous, with closed-form partials; the velocity powers use
    ``guarded_power``, so the evaluators stay real-valued (NaN) when a
    velocity slot goes negative.
    """
    a = float(getattr(alpha, "alpha", alpha))
    if not (0.0 < a <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {a}")
    inv = 1.0 / a

    def ev(t, x, v):
        p = guarded_power(v, inv)
        return p[..., 0] * x[..., 1] - p[..., 1] * x[..., 0]

    def d_x(t, x, v):
        p = guarded_power(v, inv)
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)

    def d_v(t, x, v):
        q = inv * guarded_power(v, inv - 1.0)
        return np.stack([q[..., 0] * x[..., 1], -q[..., 1] * x[..., 0]], axis=-1)

    return make_lagrangian(
        2, eval=ev, d_t=lambda t, x, v: 0.0, d_x=d_x, d_v=d_v
    )


def example2_trajectory(grid: Grid) -> Trajectory:
    """q(t) = (t, t^2): both left fractional derivatives stay
    non-negative on grids with a >= 0, keeping the family's powers real."""
    if grid.a < 0.0:
        raise ValueError("example2_trajectory expects a grid with a >= 0")
    return make_trajectory(grid, np.column_stack([grid.nodes, grid.nodes**2]))
