"""Lagrangian specifications, fractional actions, and Euler-Lagrange residuals.

A Lagrangian L(t, x, v) is evaluated along a trajectory with the left Caputo
derivative in the velocity slot.  Besides the action and the Euler-Lagrange
residual D^alpha_right(dL/dv) + dL/dx, the module provides the autonomous
extension L~(tau, (t, x), (w, v)) = L(t, x, v / w**alpha) * w on the extended
configuration space, the pair of Euler-Lagrange residuals of the extended
problem restricted to w = 1, and the "second Euler-Lagrange" node series
L - D^alpha x . dL/dv whose constancy is probed by the conservation checks.

Evaluator convention: ``t`` is a scalar, ``x`` and ``v`` are 1-D arrays of
length ``dim``; ``eval``/``d_t`` return scalars, ``d_x``/``d_v`` return
length-``dim`` vectors.  Evaluators must be pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fracops import (
    FractionalOrder,
    Grid,
    Trajectory,
    _order,
    caputo_left,
    make_trajectory,
    rl_right,
)

_FD_STEP = 1e-6


@dataclass(frozen=True)
class LagrangianSpec:
    """Lagrangian with analytic (or finite-difference) partial derivatives."""

    dim: int
    eval: Callable = field(repr=False)
    d_t: Callable = field(repr=False)
    d_x: Callable = field(repr=False)
    d_v: Callable = field(repr=False)


def make_lagrangian(dim, eval, d_t=None, d_x=None, d_v=None) -> LagrangianSpec:
    """Build a LagrangianSpec; missing partials fall back to central finite
    differences of ``eval`` with step 1e-6."""
    if dim < 1:
        raise ValueError("dim must be positive")

    if d_t is None:
        def d_t(t, x, v, _f=eval):
            return (_f(t + _FD_STEP, x, v) - _f(t - _FD_STEP, x, v)) / (2.0 * _FD_STEP)

    if d_x is None:
        def d_x(t, x, v, _f=eval, _n=dim):
            out = np.empty(_n)
            for i in range(_n):
                e = np.zeros(_n)
                e[i] = _FD_STEP
                out[i] = (_f(t, x + e, v) - _f(t, x - e, v)) / (2.0 * _FD_STEP)
            return out

    if d_v is None:
        def d_v(t, x, v, _f=eval, _n=dim):
            out = np.empty(_n)
            for i in range(_n):
                e = np.zeros(_n)
                e[i] = _FD_STEP
                out[i] = (_f(t, x, v + e) - _f(t, x, v - e)) / (2.0 * _FD_STEP)
            return out

    return LagrangianSpec(dim=int(dim), eval=eval, d_t=d_t, d_x=d_x, d_v=d_v)


@dataclass(frozen=True, eq=False)
class QuantitySeries:
    """Scalar quantity sampled along a grid, with undefined nodes masked.

    ``context`` records how the series was assembled (operator
    conventions, difference rules) so downstream reports can state it.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    context: str = ""

    def defined_values(self) -> np.ndarray:
        return self.values[self.mask]


def make_series(grid: Grid, values, mask=None, context: str = "") -> QuantitySeries:
    """Wrap a node series as a QuantitySeries.

    With ``mask=None`` the non-finite entries are masked automatically
    (operator outputs are NaN at their undefined boundary node and stay NaN
    through pointwise arithmetic, so finiteness is the natural flag).
    """
    vals = np.array(values, dtype=float)
    if vals.shape != (grid.n_nodes,):
        raise ValueError(f"series must have shape ({grid.n_nodes},), got {vals.shape}")
    if mask is None:
        m = np.isfinite(vals)
    else:
        m = np.asarray(mask, dtype=bool).copy()
        if m.shape != vals.shape:
            raise ValueError("mask shape mismatch")
        if not np.all(np.isfinite(vals[m])):
            bad = np.argwhere(~np.isfinite(vals) & m)
            raise ValueError(f"non-finite series value at node {bad[0][0]}")
    vals[~m] = np.nan
    vals.setflags(write=False)
    m.setflags(write=False)
    return QuantitySeries(grid=grid, values=vals, mask=m, context=context)


@dataclass(frozen=True)
class ExtendedLagrangianSpec:
    """Autonomous extension of a Lagrangian to the (t, x) configuration space
    with velocities (w, v): L~ = L(t, x, v / w**alpha) * w, for w > 0."""

    base: LagrangianSpec
    alpha: FractionalOrder

    @staticmethod
    def _check_w(w: float) -> float:
        w = float(w)
        if not w > 0.0:
            raise ValueError(f"extended Lagrangian requires w > 0, got {w}")
        return w

    def _inner(self, w, v):
        return np.asarray(v, dtype=float) / w ** self.alpha.alpha

    def eval(self, tau, t, x, w, v) -> float:
        w = self._check_w(w)
        return self.base.eval(t, x, self._inner(w, v)) * w

    def d_t(self, tau, t, x, w, v) -> float:
        w = self._check_w(w)
        return self.base.d_t(t, x, self._inner(w, v)) * w

    def d_x(self, tau, t, x, w, v) -> np.ndarray:
        w = self._check_w(w)
        return np.asarray(self.base.d_x(t, x, self._inner(w, v))) * w

    def d_v(self, tau, t, x, w, v) -> np.ndarray:
        w = self._check_w(w)
        return w ** (1.0 - self.alpha.alpha) * np.asarray(
            self.base.d_v(t, x, self._inner(w, v))
        )

    def d_w(self, tau, t, x, w, v) -> float:
        w = self._check_w(w)
        u = self._inner(w, v)
        return self.base.eval(t, x, u) - self.alpha.alpha * float(
            np.dot(u, np.asarray(self.base.d_v(t, x, u)))
        )


def extend(L: LagrangianSpec, alpha) -> ExtendedLagrangianSpec:
    """Extended Lagrangian with closed-form partials.

    On the slice w = 1 the extension restricts to L itself, and
    d(L~)/dw = L - alpha * v . dL/dv there.

    No run path evaluates the extension; it is the reference for
    ``noether.infinitesimal_criterion_residual``, which at w = 1 equals
    zeta dL~/dt + xi . dL~/dx + zeta-dot dL~/dw + D[xi] . dL~/dv for
    ``extend(L, alpha)``, and for ``extend(L, 1)`` with
    ``ce_alpha_factor=False``.
    """
    return ExtendedLagrangianSpec(base=L, alpha=_order(alpha))


def _check_compatible(L: LagrangianSpec, x: Trajectory) -> None:
    if L.dim != x.dim:
        raise ValueError(f"Lagrangian dim {L.dim} != trajectory dim {x.dim}")


def _require_defined(x: Trajectory, what: str) -> None:
    if not np.all(x.mask):
        raise ValueError(f"{what} requires a fully defined trajectory")


def _node_series(fn, times, xvals, vvals, dim=None):
    """Sample an evaluator at each node time: shape (N+1,) for a scalar one
    (eval, d_t), (N+1, dim) for a vector one (d_x, d_v)."""
    out = np.array([fn(t, x, v) for t, x, v in zip(times, xvals, vvals)], dtype=float)
    return out.reshape((len(times),) if dim is None else (len(times), dim))


def action(L: LagrangianSpec, x: Trajectory, alpha) -> float:
    """Trapezoid quadrature of L(t, x, caputo_left(x)) over the grid."""
    o = _order(alpha)
    _check_compatible(L, x)
    grid = x.grid
    v = caputo_left(grid, o, x)
    f = _node_series(L.eval, grid.nodes, x.values, v.values)
    if not np.all(np.isfinite(f)):
        k = int(np.argmin(np.isfinite(f)))
        raise ValueError(f"non-finite action integrand at node {k}")
    return float(np.trapezoid(f, dx=grid.h))


def el_residual(L: LagrangianSpec, x: Trajectory, alpha) -> Trajectory:
    """Euler-Lagrange residual D^alpha_right(dL/dv) + dL/dx per node.

    The right Riemann-Liouville derivative acts on the node series of dL/dv;
    its undefined boundary node (t = b, alpha < 1) stays masked in the
    output.
    """
    o = _order(alpha)
    _check_compatible(L, x)
    grid = x.grid
    v = caputo_left(grid, o, x)
    p = make_trajectory(
        grid, _node_series(L.d_v, grid.nodes, x.values, v.values, L.dim)
    )
    dp = rl_right(grid, o, p)
    dx = _node_series(L.d_x, grid.nodes, x.values, v.values, L.dim)
    vals = dp.values + dx
    return make_trajectory(grid, vals, mask=dp.mask.copy())


def second_el_quantity(L: LagrangianSpec, x: Trajectory, alpha) -> QuantitySeries:
    """Node series of L - caputo_left(x) . dL/dv.

    For L = (|x|^2 + |v|^2)/2 this is Q_alpha = (|x|^2 - |v|^2)/2; its
    constancy along extremals is the fractional second Euler-Lagrange
    condition under test in the conservation checks.
    """
    o = _order(alpha)
    _check_compatible(L, x)
    grid = x.grid
    v = caputo_left(grid, o, x)
    lvals = _node_series(L.eval, grid.nodes, x.values, v.values)
    p = _node_series(L.d_v, grid.nodes, x.values, v.values, L.dim)
    series = lvals - np.sum(v.values * p, axis=1)
    return make_series(grid, series)


def extended_el_residual(E: ExtendedLagrangianSpec, x: Trajectory, alpha_factor: bool = True):
    """Euler-Lagrange residuals of the extended problem on the slice w = 1.

    Returns a pair: the x-equations residual (identical to ``el_residual`` of
    the base Lagrangian) and the t-equation residual

        dL/dt - d/dtau (L - alpha * caputo_left(x) . dL/dv),

    with d/dtau by central differences (one-sided at the ends).
    ``alpha_factor=False`` drops the factor alpha on the mixed term; the two
    variants differ in the literature and both are useful for comparison.
    """
    o = E.alpha
    L = E.base
    _check_compatible(L, x)
    grid = x.grid

    res_a = el_residual(L, x, o)

    v = caputo_left(grid, o, x)
    lvals = _node_series(L.eval, grid.nodes, x.values, v.values)
    p = _node_series(L.d_v, grid.nodes, x.values, v.values, L.dim)
    dt = _node_series(L.d_t, grid.nodes, x.values, v.values)
    factor = o.alpha if alpha_factor else 1.0
    inner = lvals - factor * np.sum(v.values * p, axis=1)
    res_b = dt - np.gradient(inner, grid.h, edge_order=2)
    return res_a, make_series(grid, res_b)
