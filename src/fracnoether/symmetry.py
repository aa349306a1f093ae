"""One-parameter transformation groups and numerical invariance checks.

A projectable group acts on extended state space as
(t, x) -> (phi0_s(t), phi1_s(x)): the time map and the space map are
decoupled, so the transform of a trajectory never needs the implicit
function theorem.  The checks in this module classify the time map
(group law, affinity of t -> phi0_s(t), localization at the base point),
validate the fractional chain rule that affine time maps enable, and
test invariance of an action functional.

Checks report rather than raise: each returns a CheckReport carrying the
worst observed violation, the sample count, and a short description of
what was compared; ``passed`` reflects the tolerance handed to the
check.  Violations are folded with ``np.maximum``, so a NaN sample (a
time map or action that could not be evaluated) becomes the reported
violation and fails the check.  Exceptions are reserved for unusable
inputs, e.g. a time map that is not increasing on the interval (so no
transformed grid exists) or a partially defined trajectory.  The actions
in ``check_invariance`` come from ``lagrangian._Along``, like every other
Lagrangian series: along x from the shared one (``lagrangian._along``),
so D_a+ x and L along x are taken once per (L, x, alpha, convention) and
shared with the quantities on the same trajectory, and a mapped copy of x
equal to it bit for bit (every translation and dilation) takes D_a+ x
without an apply; the fixed-base actions, each along its own resampled
path, from an unshared one, so the shared one stays that of x.  Only
``check_chain_rule`` applies an operator here.

Group closures must be pure functions.

Conventions
-----------
* The parameter ``s`` is a scalar; everything else is an array, one
  call per series (a base point is a one-node array).  ``phi0(s, t)``
  and ``zeta(t)`` take an array of times and return one value per time;
  ``phi1(s, x)`` and ``xi(x)`` take an (M, n) array of configurations,
  component axis last, and return one of the same shape.  A 0-d return
  (``lambda t: 0.0``) broadcasts.  Written with ``x[..., i]`` indexing
  they also work on one time or one n-vector.
* ``lam`` marks an affine time map with slope e^{lam*s}.
  ``dilation_factor`` is the one source of K(s) = d(phi0_s)/dt:
  e^{lam*s} when ``lam`` is stored, else the least-squares slope of
  phi0_s over the nodes the check evaluates, which keeps the checks
  meaningful (and failing) for time maps that are not actually affine.
* Group-law gaps are relative to max(1, |value|), affine-fit deviations
  to max(1, spread of the values): rounding is judged alike at any rate.
  Localization stays absolute; a moved base point has moved at any size.
* Default parameter samples are s in {-0.5, -0.1, 0.1, 0.5} and 33
  uniformly spaced time nodes: both signs, two magnitudes, no blown-up
  transformed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fracops import (
    Trajectory,
    _order,
    _require_defined,
    caputo_left,
    make_grid,
    make_trajectory,
)
from .lagrangian import LagrangianSpec, _Along, _along, _as_series, _node_series

DEFAULT_S_SAMPLES = (-0.5, -0.1, 0.1, 0.5)
DEFAULT_T_COUNT = 33


@dataclass(frozen=True)
class GroupSpec:
    """One-parameter projectable group; the optional ``lam`` (``lambda`` is
    a keyword) declares an affine time map with slope e^{lam*s}."""

    phi0: Callable[[float, np.ndarray], np.ndarray] = field(repr=False)
    phi1: Callable[[float, np.ndarray], np.ndarray] = field(repr=False)
    zeta: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    xi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lam: Optional[float] = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a numerical check: worst violation vs. a tolerance."""

    passed: bool
    max_violation: float
    samples: int
    context: str = ""


def _report(violation: float, tol: float, samples: int, context: str) -> CheckReport:
    violation = float(violation)
    return CheckReport(
        passed=bool(violation <= tol),
        max_violation=violation,
        samples=samples,
        context=context,
    )


# ---------------------------------------------------------------------------
# stock groups


def time_translation() -> GroupSpec:
    """phi_s(t, x) = (t + s, x); affine with lam = 0."""
    return GroupSpec(
        phi0=lambda s, t: t + s,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: 1.0,
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lam=0.0,
    )


def dilation(c: float) -> GroupSpec:
    """phi_s(t, x) = (e^{cs} t, x), the scaling group about t = 0."""
    return localized_dilation(c, 0.0)


def localized_dilation(lam: float, a: float) -> GroupSpec:
    """phi0_s(t) = e^{lam*s}(t - a) + a, the dilation fixing t = a.

    This is the general member of the family that is simultaneously
    affine in t and localized at the base point; ``dilation(lam)`` is
    its a = 0 member.
    """
    lam = float(lam)
    a = float(a)
    return GroupSpec(
        phi0=lambda s, t: math.exp(lam * s) * (t - a) + a,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: lam * (t - a),
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lam=lam,
    )


def space_rotation() -> GroupSpec:
    """Rotation of a planar configuration; time untouched."""

    def rotate(s, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (2,):
            raise ValueError("space_rotation acts on 2-vectors")
        c, sn = math.cos(s), math.sin(s)
        return np.stack(
            [c * x[..., 0] - sn * x[..., 1], sn * x[..., 0] + c * x[..., 1]], axis=-1
        )

    return GroupSpec(
        phi0=lambda s, t: t,
        phi1=rotate,
        zeta=lambda t: 0.0,
        xi=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        lam=0.0,
    )


def quadratic_time() -> GroupSpec:
    """phi0_s(t) = t + s t**2 with identity space map.

    Deliberately not affine in t (and not a group); useful for
    verifying that the admissibility and chain-rule checks have power.
    """
    return GroupSpec(
        phi0=lambda s, t: t + s * t * t,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: t * t,
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


# ---------------------------------------------------------------------------
# helpers


def _samples(given, default, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(default if given is None else given, dtype=float))
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _gap(value, reference, scale) -> float:
    """Worst |value - reference| / max(1, |scale|); a NaN is the result."""
    return np.max(np.abs(value - reference) / np.maximum(1.0, np.abs(scale)))


def _time_map(g: GroupSpec, s: float, t_arr: np.ndarray) -> np.ndarray:
    return _as_series(g.phi0(s, t_arr), t_arr.shape, "phi0 must return one value per time")


def _fitted_slope(g: GroupSpec, s: float, t_arr: np.ndarray) -> float:
    return float(np.polyfit(t_arr, _time_map(g, s, t_arr), 1)[0])


def dilation_factor(g: GroupSpec, s: float, t_arr: np.ndarray) -> float:
    """K(s) = d(phi0_s)/dt: e^{lam*s} when lam is stored, else the
    least-squares slope of phi0_s over the nodes t_arr (exact for the
    affine maps the chain rule addresses)."""
    if g.lam is not None:
        return math.exp(g.lam * s)
    return _fitted_slope(g, s, t_arr)


def _space_map(g: GroupSpec, s: float, values: np.ndarray) -> np.ndarray:
    return _as_series(
        g.phi1(s, values), values.shape, "phi1 must preserve the component count"
    )


def _resample(
    tau_nodes: np.ndarray, values: np.ndarray, a: float, n_sub: int
) -> Trajectory:
    """Interpolate values sampled at the mapped nodes tau_nodes onto the
    uniform grid from a to tau_nodes[-1]; the time map must be strictly
    increasing, else no transformed grid exists."""
    steps = np.diff(tau_nodes)
    if not np.all(steps > 0.0):
        fault = (
            "maps distinct nodes to equal times"  # increasing, but rounding merged them
            if np.all(steps >= 0.0)
            else "is not strictly increasing on the interval"
        )
        raise ValueError(f"phi0_s {fault}; no transformed grid exists")
    tgrid = make_grid(a, tau_nodes[-1], n_sub)
    z_vals = np.empty_like(values)
    for j in range(values.shape[1]):
        z_vals[:, j] = np.interp(tgrid.nodes, tau_nodes, values[:, j])
    return make_trajectory(tgrid, z_vals)


# ---------------------------------------------------------------------------
# checks


def check_group_law(
    g: GroupSpec, s_samples=None, t_samples=None, tol: float = 1e-9
) -> CheckReport:
    """Composition law of the time map over all ordered pairs of
    parameter samples: phi0_{s+s'} = phi0_s o phi0_{s'} pointwise.

    For the affine maps that ``check_admissible`` accepts, this one law
    implies the laws of the offset and of the slope K(s+s') = K(s) K(s').
    Each gap is relative to max(1, |phi0_{s+s'}(t)|, |phi0_s(u)|, |phi0_s(0)|),
    u = phi0_{s'}(t); for affine phi0_s this is at least K(s)|u|/2, so it
    covers the rounding of u that phi0_s scales by K(s), reading no lam.
    """
    s_arr = _samples(s_samples, DEFAULT_S_SAMPLES, "s_samples")
    t_arr = _samples(t_samples, np.linspace(0.0, 1.0, DEFAULT_T_COUNT), "t_samples")

    worst = 0.0
    for s in s_arr:
        origin = np.abs(_time_map(g, s, np.zeros(1)))
        for sp in s_arr:
            direct = _time_map(g, s + sp, t_arr)
            composed = _time_map(g, s, _time_map(g, sp, t_arr))
            scale = np.maximum(np.maximum(np.abs(direct), np.abs(composed)), origin)
            worst = np.maximum(worst, _gap(composed, direct, scale))
    context = f"composition law on {s_arr.size}^2 parameter pairs x {t_arr.size} nodes"
    return _report(worst, tol, s_arr.size**2 * t_arr.size, context)


def check_admissible(
    g: GroupSpec, s_samples=None, t_samples=None, tol: float = 1e-9
) -> CheckReport:
    """Affinity of t -> phi0_s(t): deviation from the per-s least-squares
    affine fit relative to max(1, spread of phi0_s), plus (when lam is
    stored) the fitted slope vs e^{lam*s} relative to max(1, e^{lam*s})."""
    s_arr = _samples(s_samples, DEFAULT_S_SAMPLES, "s_samples")
    t_arr = _samples(t_samples, np.linspace(0.0, 1.0, DEFAULT_T_COUNT), "t_samples")
    if t_arr.size < 3:
        raise ValueError("need at least 3 time samples to judge affinity")

    worst = 0.0
    for s in s_arr:
        vals = _time_map(g, s, t_arr)
        coeffs = np.polyfit(t_arr, vals, 1)
        fit = np.polyval(coeffs, t_arr)
        worst = np.maximum(worst, _gap(fit, vals, np.ptp(vals)))
        if g.lam is not None:
            k = math.exp(g.lam * s)
            worst = np.maximum(worst, _gap(coeffs[0], k, k))
    slope_note = ", slope vs e^(lam s)" if g.lam is not None else ""
    context = f"affine fit deviation{slope_note} at {s_arr.size} parameters"
    return _report(worst, tol, s_arr.size * t_arr.size, context)


def check_localization(
    g: GroupSpec, a: float, s_samples=None, t_samples=None, tol: float = 1e-9
) -> CheckReport:
    """Fixed base point phi0_s(a) = a; when that holds, also the
    classification phi0_s(t) = K(s)(t - a) + a of groups that are both
    affine and localized."""
    a = float(a)
    s_arr = _samples(s_samples, DEFAULT_S_SAMPLES, "s_samples")
    t_arr = _samples(t_samples, np.linspace(a, a + 1.0, DEFAULT_T_COUNT), "t_samples")

    endpoint = np.max([abs(_time_map(g, s, np.array([a]))[0] - a) for s in s_arr])
    if not endpoint <= tol:  # a NaN base point counts as moved
        context = "base point moves; dilation-form classification not evaluated"
        return _report(endpoint, tol, s_arr.size, context)

    worst = endpoint
    for s in s_arr:
        k = dilation_factor(g, float(s), t_arr)
        vals = _time_map(g, s, t_arr)
        worst = np.maximum(worst, np.max(np.abs(vals - (k * (t_arr - a) + a))))
    context = f"base point fixed; dilation form about a = {a:g} verified"
    return _report(worst, tol, s_arr.size * t_arr.size, context)


def check_chain_rule(
    g: GroupSpec, x: Trajectory, alpha, s: float, tol: float = 1e-3
) -> CheckReport:
    """Compare the two sides of the chain rule for the left Caputo
    derivative under the time map phi0_s.

    Writing y = phi1_s o x and tau = phi0_s(t), the left side is the
    Caputo derivative of y o (phi0_s)^{-1} on the transformed interval
    [phi0_s(a), phi0_s(b)] (transformed base point), the right side is
    the Caputo derivative of y on the original grid scaled by K^{-alpha}
    with K = ``dilation_factor`` over the grid nodes.  For affine time
    maps the transformed nodes are again uniform, so resampling is a
    formality; the comparison is still meaningful (and fails) for
    non-affine maps, where K is the least-squares slope over the nodes.
    """
    o = _order(alpha)
    _require_defined(x, "check_chain_rule")
    grid = x.grid
    s = float(s)

    tau_nodes = _time_map(g, s, grid.nodes)
    y_vals = _space_map(g, s, x.values)
    z = _resample(tau_nodes, y_vals, tau_nodes[0], grid.n_sub)
    k_factor = dilation_factor(g, s, grid.nodes)

    lhs = caputo_left(z.grid, o, z).values
    rhs = (
        caputo_left(grid, o, make_trajectory(grid, y_vals)).values
        * k_factor ** (-o.alpha)
    )
    worst = float(np.max(np.abs(lhs - rhs)))
    context = (
        f"transformed base point {z.grid.a:.6g}, factor K = {k_factor:.6g}, "
        f"alpha = {o.alpha:g}"
    )
    return _report(worst, tol, grid.n_nodes, context)


def check_invariance(
    L: LagrangianSpec,
    g: GroupSpec,
    x: Trajectory,
    alpha,
    s_samples=None,
    tol: float = 1e-3,
    fixed_base: bool = False,
) -> CheckReport:
    """Invariance of the action under the group, sampled over s.

    The reference value is the action of x itself.  For each s the
    transformed action is evaluated in the change-of-variables form on
    the *original* grid,

        integral of L(phi0_s(t), phi1_s(x), K^{-alpha} D^alpha[phi1_s o x]) * K,

    valid when the time map is affine with slope K (``dilation_factor``
    on the grid nodes).  The reported violation is the worst
    |gap| / (|reference| + 1) over the samples.

    With ``fixed_base=True`` the transformed action is instead evaluated
    on the transformed grid while keeping the operator base point at a
    (the fixed-base definition of invariance); that definition only
    makes sense for groups fixing the base point, so phi0_s(a) != a
    raises ValueError.
    """
    s_arr = _samples(s_samples, DEFAULT_S_SAMPLES, "s_samples")
    along = _along(L, x, alpha, "check_invariance")
    o, grid = along.o, along.grid
    # an action that overflows is a non-finite sample, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        reference = float(np.trapezoid(along.at("eval"), dx=grid.h))

        worst = 0.0
        for s in s_arr:
            s = float(s)
            y_vals = _space_map(g, s, x.values)
            if fixed_base:
                tau_nodes = _time_map(g, s, grid.nodes)
                if not abs(tau_nodes[0] - grid.a) <= 1e-9:  # absolute; NaN counts as moved
                    raise ValueError(
                        "fixed-base invariance requires phi0_s(a) = a; "
                        f"got phi0_s(a) = {tau_nodes[0]:g} for s = {s:g}"
                    )
                z = _resample(tau_nodes, y_vals, grid.a, grid.n_sub)
                # L along z, unshared: the shared _Along stays that of x
                on_z = _Along(L, z, o, along.convention).at("eval")
                transformed = float(np.trapezoid(on_z, dx=z.grid.h))
            else:
                k_factor = dilation_factor(g, s, grid.nodes)
                times = _time_map(g, s, grid.nodes)
                scaled = along.left(y_vals) * k_factor ** (-o.alpha)
                series = _node_series(L, "eval", times, y_vals, scaled) * k_factor
                transformed = float(np.trapezoid(series, dx=grid.h))
            gap = abs(transformed - reference) / (abs(reference) + 1.0)
            worst = np.maximum(worst, gap)

    mode = "fixed base point" if fixed_base else "transformed base point"
    context = f"{mode}; reference action {reference:.6g}; alpha = {o.alpha:g}"
    return _report(worst, tol, s_arr.size, context)
