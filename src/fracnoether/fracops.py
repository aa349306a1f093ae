"""Discrete fractional operators on uniform grids.

The left Riemann-Liouville fractional integral of order ``alpha`` in
(0, 1] as one read-only dense array (the right integral is a flipped view
of it), plus Caputo and Riemann-Liouville derivatives applied to sampled
trajectories.

Quadrature conventions
----------------------
* Integrals: on each subinterval the integrand is replaced by the arithmetic
  average of its endpoint values and the weakly singular kernel
  ``(t - s)**(alpha - 1) / Gamma(alpha)`` is integrated exactly.  Row ``k``
  of the matrix applied to a constant ``C`` therefore gives
  ``C * (t_k - a)**alpha / Gamma(1 + alpha)`` up to rounding.  The
  composition check applies the matrix by its column 0 and Toeplitz
  symbol with ``_kernels.LowerToeplitz``, the solver's apply: one
  zero-padded real FFT pair, causal to rounding.
* Caputo derivatives (L1 rule): ``x'`` is taken piecewise constant,
  ``(x[i+1] - x[i]) / h``, and the kernel ``(t - s)**(-alpha)`` is
  integrated exactly.  ``alpha = 1`` falls back to second-order finite
  differences (central in the interior, one-sided at the ends).  The
  derivatives evaluate in slope form: the memoized L1 weight profile is
  convolved with the difference quotients by ``_kernels.profile_convolve``
  (equal slopes once), all components at once, in O(N) memory: at every
  N one near-field product on 64-node blocks plus FFT far-field blocks
  of doubling size, O(N log^2 N).  It is exactly causal (a node's value
  depends only on the values at or before it, bit for bit) and maps
  constants to exactly zero; the dense L1 matrix ``_kernels.l1_weights``
  is kept as the test oracle and agrees with the slope form to rounding.
* Right-sided operators are mirror images of the left-sided ones: the right
  integral matrix is a view of the left one flipped in both indices (one
  fill, no copy), and a right derivative is the left derivative of the
  reversed path, reversed: one routine computes all four derivatives.  For
  derivatives this carries the standard sign ``D_right = -I_right o d/dt``,
  so at ``alpha = 1`` the right derivative of ``t`` is ``-1``.
* Riemann-Liouville derivatives are obtained from the Caputo ones by adding
  the boundary correction
  ``x(boundary) * (distance to boundary)**(-alpha) / Gamma(1 - alpha)``.
  The node where the correction is singular (``t = a`` on the left,
  ``t = b`` on the right) is masked as undefined for ``alpha < 1``.
* A derivative node is defined only if every input node it reads is: a
  masked input masks itself and, for ``alpha < 1``, every later node
  (earlier for right operators); at ``alpha = 1`` its neighbours, and the
  end node if it is among the first or last four.  A defined node that
  overflows raises NumericalFailure.

All containers are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels


@dataclass(frozen=True, eq=False)
class Grid:
    """Equidistant partition of [a, b] into n_sub subintervals."""

    a: float
    b: float
    n_sub: int
    h: float
    nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_sub + 1


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of a fractional operator, restricted to (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (0.0 < a <= 1.0) or not math.isfinite(a):
            raise ValueError(f"fractional order must lie in (0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


class NumericalFailure(RuntimeError):
    """Raised when a result on valid input is singular or not finite."""


def _order(alpha) -> FractionalOrder:
    if isinstance(alpha, FractionalOrder):
        return alpha
    return FractionalOrder(float(alpha))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Node samples of an R^n-valued path, with a per-node defined/undefined mask.

    ``values`` has shape (N+1, dim); masked rows hold NaN and are excluded
    from downstream norms and quadratures.
    """

    grid: Grid
    dim: int
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def defined_values(self) -> np.ndarray:
        return self.values[self.mask]


def make_grid(a: float, b: float, n_sub: int) -> Grid:
    """Uniform grid with nodes t_k = a + k*h, h = (b - a)/n_sub.

    Rejects a >= b and n_sub < 2 (two subintervals are the minimum for the
    one-sided difference stencils used at alpha = 1).
    """
    a = float(a)
    b = float(b)
    if not (a < b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if int(n_sub) != n_sub or n_sub < 2:
        raise ValueError(f"n_sub must be an integer >= 2, got {n_sub!r}")
    n_sub = int(n_sub)
    h = (b - a) / n_sub
    nodes = np.linspace(a, b, n_sub + 1)
    nodes.setflags(write=False)
    return Grid(a=a, b=b, n_sub=n_sub, h=h, nodes=nodes)


def make_trajectory(grid: Grid, values, mask=None) -> Trajectory:
    """Wrap node samples as a Trajectory.

    1-D input is promoted to a single-component path.  Every unmasked entry
    must be finite; masked rows are stored as NaN.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != grid.n_nodes:
        raise ValueError(
            f"values must have {grid.n_nodes} rows, got shape {arr.shape}"
        )
    if mask is None:
        m = np.ones(grid.n_nodes, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool).copy()
        if m.shape != (grid.n_nodes,):
            raise ValueError(f"mask must have shape ({grid.n_nodes},)")
    if not np.all(np.isfinite(arr[m])):
        bad = np.argwhere(~np.isfinite(arr) & m[:, None])
        raise ValueError(f"non-finite trajectory value at node {bad[0][0]}")
    arr[~m] = np.nan
    arr.setflags(write=False)
    m.setflags(write=False)
    return Trajectory(grid=grid, dim=arr.shape[1], values=arr, mask=m)


def _require_defined(x: Trajectory, what: str) -> None:
    if not np.all(x.mask):
        raise ValueError(f"{what} requires a fully defined trajectory")


def left_integral_matrix(grid: Grid, alpha) -> np.ndarray:
    """Left Riemann-Liouville integral I^alpha_{a+} as a read-only
    (N+1) x (N+1) array.

    Row 0 is identically zero (the integral from a to a); row k integrates
    the piecewise-average interpolant against the exact kernel, splitting
    each subinterval weight equally onto its two endpoint columns.
    """
    o = _order(alpha)
    entries = _kernels.integral_weights(
        grid.n_nodes, grid.h, o.alpha, math.gamma(o.alpha + 1.0)
    )
    entries.setflags(write=False)
    return entries


def right_integral_matrix(grid: Grid, alpha) -> np.ndarray:
    """Right Riemann-Liouville integral I^alpha_{b-}: a read-only view of
    the left matrix flipped in both indices (change of variables
    s -> a + b - s), with no second fill or copy."""
    return np.flip(left_integral_matrix(grid, alpha))


def _derivative(grid: Grid, alpha, x: Trajectory, rl: bool, right: bool) -> Trajectory:
    """The four derivatives, in the left frame (a right operator reverses
    the path and its result).  Masked rows are read as 0; a node is defined
    only if every node its stencil reads is (see the module docstring)."""
    o = _order(alpha)
    if x.grid is not grid and not np.array_equal(x.grid.nodes, grid.nodes):
        raise ValueError("trajectory and operator live on different grids")
    order = slice(None, None, -1) if right else slice(None)
    mask = x.mask[order]
    vals = np.where(mask[:, None], x.values[order], 0.0)
    h = grid.h
    # the input is finite, so a non-finite result overflowed; that raises below
    with np.errstate(over="ignore", invalid="ignore"):
        s = (vals[1:] - vals[:-1]) / h
        if o.alpha == 1.0:
            out = np.empty_like(vals)
            out[1:-1] = (s[:-1] + s[1:]) * 0.5
            if vals.shape[0] >= 4:
                out[0] = (11.0 * s[0] - 7.0 * s[1] + 2.0 * s[2]) / 6.0
                out[-1] = (11.0 * s[-1] - 7.0 * s[-2] + 2.0 * s[-3]) / 6.0
            else:
                out[0] = (3.0 * s[0] - s[1]) * 0.5
                out[-1] = (3.0 * s[-1] - s[-2]) * 0.5
            # the central difference reads k-1..k+1, an end stencil 3 or 4 nodes
            defined = mask.copy()
            defined[1:-1] &= mask[:-2] & mask[2:]
            defined[[0, -1]] = np.all(mask[:4]), np.all(mask[-4:])
        else:
            # out[k] = sum_{i<k} W[k-i] * s[i] with the L1 profile W, by the exactly
            # causal convolution: W[0] = 0 keeps row 0 zero, zero slopes give zeros
            out = _kernels.profile_convolve(
                grid.n_nodes, h, 1.0 - o.alpha, math.gamma(2.0 - o.alpha), s
            )
            defined = np.logical_and.accumulate(mask)  # node k reads nodes 0..k
            if rl:
                corr = (np.arange(1, grid.n_nodes) * h) ** (-o.alpha) / math.gamma(1.0 - o.alpha)
                # a new array: ``out`` is the convolution's kept, read-only result
                out = np.concatenate([out[:1], out[1:] + corr[:, None] * vals[0]])
                defined[0] = False
    try:
        return make_trajectory(grid, out[order], mask=defined[order])
    except ValueError:  # a non-finite defined node
        raise NumericalFailure(f"fractional derivative of order {o.alpha:g} overflows") from None


def caputo_left(grid: Grid, alpha, x: Trajectory) -> Trajectory:
    """Left Caputo derivative of a trajectory."""
    return _derivative(grid, alpha, x, rl=False, right=False)


def caputo_right(grid: Grid, alpha, x: Trajectory) -> Trajectory:
    """Right Caputo derivative of a trajectory (standard sign: at alpha = 1
    this is minus the classical derivative)."""
    return _derivative(grid, alpha, x, rl=False, right=True)


def rl_left(grid: Grid, alpha, x: Trajectory) -> Trajectory:
    """Left Riemann-Liouville derivative; node 0 masked for alpha < 1."""
    return _derivative(grid, alpha, x, rl=True, right=False)


def rl_right(grid: Grid, alpha, x: Trajectory) -> Trajectory:
    """Right Riemann-Liouville derivative; node N masked for alpha < 1."""
    return _derivative(grid, alpha, x, rl=True, right=True)


@dataclass(frozen=True)
class CompositionReport:
    """Interior-node sup residuals of the composition identities
    I^alpha(caputo(x)) = x - x(a)  and  I^alpha(rl(x)) = x."""

    caputo_residual: float
    rl_residual: float


def check_composition(grid: Grid, alpha, x: Trajectory) -> CompositionReport:
    """Measure how well the discrete operators satisfy the left composition
    rules, as sup norms over the interior nodes 1..N-1 (all components).

    The Riemann-Liouville branch zeroes the masked node-0 value before the
    quadrature: the first-panel endpoint contribution is dropped rather than
    extrapolated, which keeps the residual decreasing under refinement.
    """
    _require_defined(x, "check_composition")
    o = _order(alpha)
    integ = _kernels.LowerToeplitz(left_integral_matrix(grid, o))
    cap = caputo_left(grid, o, x)
    rl = rl_left(grid, o, x)

    rl_vals = np.where(rl.mask[:, None], rl.values, 0.0)
    # an apply that overflows reports a non-finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        recon_cap, recon_rl = np.hsplit(
            integ.apply(np.hstack([cap.values, rl_vals])), 2
        )
        target_cap = x.values - x.values[0]
        interior = slice(1, grid.n_sub)
        caputo_residual = float(np.max(np.abs(recon_cap - target_cap)[interior]))
        rl_residual = float(np.max(np.abs(recon_rl - x.values)[interior]))

    return CompositionReport(caputo_residual=caputo_residual, rl_residual=rl_residual)
