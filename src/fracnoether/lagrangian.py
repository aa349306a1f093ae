"""Lagrangian specifications, fractional actions, and Euler-Lagrange residuals.

A Lagrangian L(t, x, v) is evaluated along a trajectory with the left Caputo
derivative in the velocity slot.  Besides the action and the Euler-Lagrange
residual D^alpha_right(dL/dv) + dL/dx, the module provides the autonomous
extension L~(tau, (t, x), (w, v)) = L(t, x, v / w**alpha) * w on the extended
configuration space, the pair of Euler-Lagrange residuals of the extended
problem restricted to w = 1, and the "second Euler-Lagrange" node series
L - D^alpha x . dL/dv whose constancy is probed by the conservation checks.

Every Lagrangian series along a trajectory, here and in ``noether`` and
``symmetry``, comes from ``_Along``: it refuses a partly masked trajectory
before any apply, takes D_a+ x and each partial once, and holds the
package's one D_b- outside ``fracops``, of the momentum dL/dv.
``_operators`` spells the operators of every context and CSV header.

Evaluator contract: each evaluator is called once per series on node
arrays, component axis last: ``t`` of shape (M,), ``x`` and ``v`` of shape
(M, dim).  ``eval``/``d_t`` return (M,), ``d_x``/``d_v`` (M, dim), and a 0-d
result broadcasts.  Indexed as ``x[..., i]``, an evaluator also works on one
node, as every batch is cross-checked.  Evaluators must be pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fracops import (
    FractionalOrder,
    Grid,
    Trajectory,
    _order,
    _require_defined,
    caputo_left,
    make_trajectory,
    rl_left,
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


def _fd_partials(diff, t, steps):
    """Central differences diff(e) / (2 step) over the rows e of ``steps``,
    stacked along a last component axis; a 0-d difference broadcasts to
    the node shape of ``t``."""
    cols = np.broadcast_arrays(t, *(diff(e) for e in steps))[1:]
    return np.stack(cols, axis=-1) / (2.0 * _FD_STEP)


def make_lagrangian(dim, eval, d_t=None, d_x=None, d_v=None) -> LagrangianSpec:
    """Build a LagrangianSpec; missing partials fall back to central finite
    differences of ``eval`` with step 1e-6."""
    if dim < 1:
        raise ValueError("dim must be positive")

    steps = _FD_STEP * np.eye(dim)

    if d_t is None:
        def d_t(t, x, v, _f=eval):
            return (_f(t + _FD_STEP, x, v) - _f(t - _FD_STEP, x, v)) / (2.0 * _FD_STEP)

    if d_x is None:
        def d_x(t, x, v, _f=eval):
            return _fd_partials(lambda e: _f(t, x + e, v) - _f(t, x - e, v), t, steps)

    if d_v is None:
        def d_v(t, x, v, _f=eval):
            return _fd_partials(lambda e: _f(t, x, v + e) - _f(t, x, v - e), t, steps)

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
    with velocities (w, v): L~ = L(t, x, v / w**alpha) * w, for w > 0.
    ``t``, ``x`` and ``v`` follow the evaluator contract; ``w`` is a scalar."""

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

    def eval(self, tau, t, x, w, v):
        w = self._check_w(w)
        return self.base.eval(t, x, self._inner(w, v)) * w

    def d_t(self, tau, t, x, w, v):
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

    def d_w(self, tau, t, x, w, v):
        w = self._check_w(w)
        u = self._inner(w, v)
        return self.base.eval(t, x, u) - self.alpha.alpha * np.vecdot(
            u, self.base.d_v(t, x, u)
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


def _as_series(value, shape, what):
    """``value`` as a float array of ``shape``; a 0-d value broadcasts and
    any other shape raises ValueError starting with ``what``."""
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        return np.full(shape, out)
    if out.shape != shape:
        raise ValueError(f"{what}: expected shape {shape} or 0-d, got {out.shape}")
    return out


def _node_series(L: LagrangianSpec, name: str, times, xvals, vvals):
    """``L.<name>`` on all nodes in one call: (N+1,) for eval and d_t,
    (N+1, dim) for d_x and d_v.  A batch that disagrees with a call on its
    last node alone (relative 1e-12, NaN matching NaN) comes from an
    evaluator indexing nodes as components (``v[0]``), and raises."""
    fn = getattr(L, name)
    shape = (len(times),) if name in ("eval", "d_t") else (len(times), L.dim)
    label = f"Lagrangian {name} evaluator {getattr(fn, '__qualname__', fn)!r}"
    out = _as_series(fn(times, xvals, vvals), shape, label)
    one = np.asarray(fn(times[-1], xvals[-1], vvals[-1]), dtype=float)
    if one.shape not in ((), shape[1:]) or not np.allclose(
        out[-1], one, rtol=1e-12, atol=0.0, equal_nan=True
    ):
        raise ValueError(
            f"{label}: batch disagrees with a call on its last node; "
            "evaluators take node arrays and index components as x[..., i]"
        )
    return out


_LEFT_OPS = {"caputo": caputo_left, "rl": rl_left}
_DEFAULT_CONVENTION = "caputo"


def _operators(convention: str, right: bool) -> str:
    """The operator clause: D_a+ in ``convention``, D_b- if ``right``."""
    return f"D_a+ = {convention}" + (", D_b- = rl" if right else "")


class _Along:
    """A Lagrangian along one trajectory.  Construction checks the order,
    that ``x`` is fully defined (``what`` names the caller), the dims and
    the convention, so a bad argument raises before any apply; it then
    takes D_a+ x.  It samples each partial at most once and records
    whether D_b- was taken, for ``operators()``."""

    def __init__(self, L, x, alpha, what, convention=_DEFAULT_CONVENTION):
        self.o = _order(alpha)
        _require_defined(x, what)
        if L.dim != x.dim:
            raise ValueError(f"Lagrangian dim {L.dim} != trajectory dim {x.dim}")
        try:
            self._op = _LEFT_OPS[convention]
        except KeyError:
            raise ValueError(
                f"convention must be one of {sorted(_LEFT_OPS)}, got {convention!r}"
            ) from None
        self.L, self.x, self.grid, self.convention = L, x, x.grid, convention
        self.took_right, self._partials = False, {}
        self.dxa = self._op(self.grid, self.o, x).values

    def left(self, values: np.ndarray) -> np.ndarray:
        """D_a+ of a further node series, in the convention of D_a+ x.  An
        all-zero series skips the apply: both conventions map it to +0.0,
        NaN where D_a+ x is undefined; x itself returns D_a+ x."""
        if not np.any(values):
            return np.where(np.isnan(self.dxa), np.nan, 0.0)
        if np.array_equal(values, self.x.values):
            return self.dxa
        return self._op(self.grid, self.o, make_trajectory(self.grid, values)).values

    def at(self, name: str) -> np.ndarray:
        """The Lagrangian's ``name`` evaluator at (t, x, D_a+ x), sampled once."""
        if name not in self._partials:
            self._partials[name] = _node_series(
                self.L, name, self.grid.nodes, self.x.values, self.dxa
            )
        return self._partials[name]

    def w_partial(self, factor: float) -> np.ndarray:
        """L - factor * D_a+ x . dL/dv: at factor = alpha the Jost extension's
        w-partial at w = 1 (``extend``'s ``d_w``), at 1 its classical transfer."""
        return self.at("eval") - factor * np.sum(self.dxa * self.at("d_v"), axis=1)

    def right_of_momentum(self) -> np.ndarray:
        """D_b- of the momentum dL/dv, rows with a NaN masked, and with
        them every node whose D_b- reads one: the package's one D_b-
        outside ``fracops``."""
        self.took_right, p = True, self.at("d_v")
        rows = np.all(np.isfinite(p), axis=1)
        return rl_right(self.grid, self.o, make_trajectory(self.grid, p, mask=rows)).values

    def operators(self) -> str:
        return _operators(self.convention, self.took_right)


def _el_residual(s: _Along) -> Trajectory:
    dp = s.right_of_momentum()
    # nodes where D_b- p is undefined are masked; a NaN partial raises
    defined = np.all(np.isfinite(dp), axis=1) | ~np.all(np.isfinite(s.at("d_v")), axis=1)
    return make_trajectory(s.grid, dp + s.at("d_x"), mask=defined)


def action(L: LagrangianSpec, x: Trajectory, alpha) -> float:
    """Trapezoid quadrature of L(t, x, caputo_left(x)) over the grid."""
    s = _Along(L, x, alpha, "action")
    f = s.at("eval")
    if not np.all(np.isfinite(f)):
        k = int(np.argmin(np.isfinite(f)))
        raise ValueError(f"non-finite action integrand at node {k}")
    return float(np.trapezoid(f, dx=s.grid.h))


def el_residual(L: LagrangianSpec, x: Trajectory, alpha) -> Trajectory:
    """Euler-Lagrange residual D^alpha_right(dL/dv) + dL/dx per node.

    The right Riemann-Liouville derivative acts on the node series of dL/dv;
    its undefined boundary node (t = b, alpha < 1) stays masked in the
    output.
    """
    return _el_residual(_Along(L, x, alpha, "el_residual"))


def second_el_quantity(L: LagrangianSpec, x: Trajectory, alpha) -> QuantitySeries:
    """Node series of L - caputo_left(x) . dL/dv.

    For L = (|x|^2 + |v|^2)/2 this is Q_alpha = (|x|^2 - |v|^2)/2; its
    constancy along extremals is the fractional second Euler-Lagrange
    condition under test in the conservation checks.
    """
    s = _Along(L, x, alpha, "second_el_quantity")
    return make_series(s.grid, s.w_partial(1.0), context=f"second form; {s.operators()}")


def extended_el_residual(E: ExtendedLagrangianSpec, x: Trajectory, alpha_factor: bool = True):
    """Euler-Lagrange residuals of the extended problem on the slice w = 1.

    Returns a pair: the x-equations residual (identical to ``el_residual`` of
    the base Lagrangian) and the t-equation residual

        dL/dt - d/dtau (L - alpha * caputo_left(x) . dL/dv),

    with d/dtau by central differences (one-sided at the ends).
    ``alpha_factor=False`` drops the factor alpha on the mixed term; the two
    variants differ in the literature and both are useful for comparison.
    """
    s = _Along(E.base, x, E.alpha, "extended_el_residual")
    inner = s.w_partial(s.o.alpha if alpha_factor else 1.0)
    res_b = s.at("d_t") - np.gradient(inner, s.grid.h, edge_order=2)
    res_x = _el_residual(s)
    weight = "alpha-weighted" if alpha_factor else "unweighted"
    context = f"t-equation, {weight} mixed term; {s.operators()} (with the x-equations)"
    return res_x, make_series(s.grid, res_b, context=context)
