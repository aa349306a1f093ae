"""Matrix-free solver for linear fractional Euler-Lagrange boundary problems.

The two-sided equation D^alpha_right(caputo_left x) = kappa * x is recast in
integral form: with K = I^alpha_left o I^alpha_right and the boundary shape
S(t) = ((t - a)/(b - a))**alpha, the node vector X satisfies

    X - kappa*K X + kappa*S*(K X)_N = (1 - S)*x(a) + S*x(b),

which for kappa = -1 is the familiar algebraic system of the discretized
harmonic problem.  Dirichlet data pins rows 0 and N (the system's own
boundary rows already reduce to the identity there); initial data pins
X_0 = u0 and replaces the row N equation by the one-sided difference
(X_1 - X_0)/h = du0, moving the then-unknown X_N coupling into the matrix.

The scaling factor is taken as ((t - a)/(b - a))**alpha rather than
((t - a)/b)**alpha so that S(b) = 1 on general intervals, which the
endpoint row requires; the two agree for a = 0.

Neither K nor the system matrix is formed.  Off column 0 the left integral
matrix L is lower-triangular Toeplitz and the right one is J L J (J the
reversal), so K X = L(J L(J X)): two applications of L by
``_kernels.LowerToeplitz``, each a column-0 term plus one FFT convolution
with the Toeplitz symbol, of length the smallest 2^i 3^j 5^k >= 2N - 1
(6400 at N = 3200), in O(N log N) time and O(N) memory.
``assemble`` builds that apply off the O(N^2) fill of
``right_integral_matrix``.

``assemble`` decides the boundary kind once.  ``solve`` runs restarted GMRES
(modified Gram-Schmidt Arnoldi with Givens rotations) per component on the
system's ``apply`` and ``precondition``, a circulant stand-in for I - kappa*K
that one FFT pair inverts.  It stops at a normwise backward error of TOL
and raises NumericalFailure when the solution is not finite, when GMRES
misses TOL within MAX_ITERATIONS steps (or sooner, once a restart cycle
leaves x bitwise unchanged and so would every later one), or when the
relative residual ||b - A x|| / ||b|| exceeds RESIDUAL_MAX.  The last gate
is the one a nearly singular system trips: its solution is huge, so the
backward error is tiny while the residual is of the size of the data.
The condition estimate ||A|| ||x|| / ||b|| (with a lower bound on ||A||)
is a lower bound on the condition number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg import solve_triangular

from ._kernels import LowerToeplitz
from .fracops import (
    FractionalOrder,
    Grid,
    NumericalFailure,
    Trajectory,
    _order,
    make_trajectory,
    right_integral_matrix,
)

# GMRES stops once ||b - A x|| <= TOL * (||A|| ||x|| + ||b||), infinity norms
TOL = 1e-14
RESTART = 30  # Arnoldi steps per GMRES cycle
MAX_ITERATIONS = 300  # Arnoldi steps per component before giving up
# a backward-stable solve leaves ||b - A x|| / ||b|| at a few 1e-16 times
# the condition estimate, so this refuses estimates above about 2e12
RESIDUAL_MAX = 1e-3
# smallest |eigenvalue| of the preconditioner; keeps it invertible where
# the circulant puts an eigenvalue of kappa*C C^T at 1
PRECOND_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class _BoundaryData:
    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.atleast_1d(np.asarray(getattr(self, f.name), dtype=float)))


@dataclass(frozen=True, eq=False)
class DirichletBC(_BoundaryData):
    """Boundary values x(a) = xa, x(b) = xb."""

    xa: np.ndarray
    xb: np.ndarray


@dataclass(frozen=True, eq=False)
class InitialBC(_BoundaryData):
    """Initial values x(a) = u0, x'(a) = du0 (imposed by a first-order
    one-sided difference row)."""

    u0: np.ndarray
    du0: np.ndarray


dirichlet = DirichletBC
initial = InitialBC


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """D^alpha_right(caputo_left x) = kappa * x with boundary data."""

    grid: Grid
    alpha: FractionalOrder
    dim: int
    kappa: float
    bc: DirichletBC | InitialBC

    def __post_init__(self):
        object.__setattr__(self, "alpha", _order(self.alpha))
        kappa = float(self.kappa)
        if not math.isfinite(kappa):
            raise ValueError("kappa must be finite")
        object.__setattr__(self, "kappa", kappa)
        if not isinstance(self.bc, (DirichletBC, InitialBC)):
            raise TypeError(f"unsupported boundary condition {self.bc!r}")
        for f in fields(self.bc):
            v = getattr(self.bc, f.name)
            if v.shape != (self.dim,):
                raise ValueError(f"{f.name} must have length {self.dim}, got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """All that ``solve`` reads: the system matrix A as an operator, its
    preconditioner, and what ``assemble`` decided once from the boundary
    kind.  ``rhs`` holds the per-component right-hand sides; ``start`` the
    interpolant (1 - S)*x(a) + S*x(b), with x(b) = 0 for initial data, which
    meets the unit data rows of A and P exactly, so every GMRES correction
    is zero there; ``free`` the count of preconditioned rows (N - 1 for
    Dirichlet data, N for initial data); ``anorm`` <= ||A||_inf the larger
    of ||A 1|| and a data row's (1) or the difference row's (2/h) row sum.

    ``left`` applies the left integral matrix L, and its ``symbol`` gives
    the preconditioner; ``shape`` is S.
    ``precond`` holds the Fourier eigenvalues of the inverse
    preconditioner (see ``precondition``).
    """

    problem: LinearProblem
    left: LowerToeplitz = field(repr=False)
    shape: np.ndarray = field(repr=False)
    precond: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)
    free: int
    anorm: float
    context: str

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for one component's node vector x:
        x - kappa*K x + kappa*S*(K x)_N, then the boundary-data rows."""
        p = self.problem
        kx = self.left.apply(self.left.apply(x[::-1])[::-1])
        y = x - p.kappa * kx + p.kappa * kx[-1] * self.shape
        if isinstance(p.bc, DirichletBC):
            y[-1] = x[-1]
        else:
            y -= self.shape * x[-1]
            y[-1] = (x[1] - x[0]) / p.grid.h
        y[0] = x[0]
        return y

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """P^-1 v: the inverse circulant applied to rows 1..free, which are
        zero-padded to N rows and cut back; the data rows (0, and N for
        Dirichlet data) pass unchanged."""
        n, m = v.shape[0], self.free
        out = v.copy()
        z = np.fft.irfft(np.fft.rfft(v[1 : m + 1], n - 1) * self.precond, n - 1)
        out[1 : m + 1] = z[:m]
        return out


@dataclass(frozen=True)
class SolveReport:
    """A solution and its diagnostics, all in the infinity norm.

    ``residual_norm`` is max |b - A x| over nodes and components.
    ``condition_estimate`` is the largest per-component
    anorm ||x|| / ||b||, with ``AssembledSystem.anorm`` <= ||A||, and at
    least 1: a lower bound on the condition number.  ``iterations`` counts the Arnoldi
    steps of all components.  ``backward_error`` is the largest
    per-component ||b - A x|| / (anorm ||x|| + ||b||), an upper bound on the
    normwise backward error.
    """

    solution: Trajectory
    residual_norm: float
    condition_estimate: float
    iterations: int
    backward_error: float
    context: str = ""


def boundary_shape(grid: Grid, alpha) -> np.ndarray:
    """S_k = ((t_k - a)/(b - a))**alpha; S_0 = 0 and S_N = 1 exactly."""
    o = _order(alpha)
    return ((grid.nodes - grid.a) / (grid.b - grid.a)) ** o.alpha


def assemble(problem: LinearProblem) -> AssembledSystem:
    """The matrix-free system for the integral form of the problem.

    The right integral matrix is R = J L J, so ``LowerToeplitz`` reads L's
    column 0 and symbol t[g] = L[N, N-g] (g < N) off its flip; only that
    O(N) apply, the preconditioner and the right-hand sides are kept.

    The preconditioner is P = I - kappa*C C^T, with C the optimal
    (T. Chan) N x N circulant of the symbol, c[g] = (N - g)/N * t[g]: a
    stand-in for I - kappa*K that one real FFT pair inverts.  Without it
    GMRES needs hundreds of steps when kappa*K has many eigenvalues near 1
    (alpha <= 0.2 with kappa >= 2, for instance).
    """
    grid = problem.grid
    n = grid.n_nodes
    left = LowerToeplitz(np.flip(right_integral_matrix(grid, problem.alpha)))
    c = (n - 1 - np.arange(n - 1)) / (n - 1) * left.symbol
    d = 1.0 - problem.kappa * np.abs(np.fft.rfft(c)) ** 2
    precond = 1.0 / np.copysign(np.maximum(np.abs(d), PRECOND_FLOOR), d)
    s = boundary_shape(grid, problem.alpha)

    bc = problem.bc
    if isinstance(bc, DirichletBC):
        rhs = np.outer(1.0 - s, bc.xa) + np.outer(s, bc.xb)
        rhs[0], rhs[n - 1] = bc.xa, bc.xb
        start = rhs.copy()
        free, row, context = n - 2, 1.0, ""
    else:
        rhs = np.outer(1.0 - s, bc.u0)
        rhs[0], rhs[n - 1] = bc.u0, bc.du0
        start = rhs.copy()
        start[n - 1] = 0.0
        free, row = n - 1, 2.0 / grid.h
        context = "initial data imposed via first-order one-sided difference row"
    # ||A 1|| needs the operator, so anorm holds the row sum until then
    system = AssembledSystem(
        problem, left, s, precond, rhs, start, free, anorm=row, context=context
    )
    return replace(system, anorm=max(row, float(np.max(np.abs(system.apply(np.ones(n)))))))


def _gmres(apply, precondition, b: np.ndarray, x: np.ndarray, anorm: float):
    """Right-preconditioned restarted GMRES for A x = b from the start x,
    with A v = apply(v) and P^-1 v = precondition(v).

    Each cycle runs up to RESTART modified Gram-Schmidt Arnoldi steps on
    A P^-1, reducing the Hessenberg by Givens rotations as it grows, and
    ends early once the rotated residual meets the target; after every
    cycle the true residual decides.  GMRES stops once
    ||b - A x|| <= TOL * (anorm ||x|| + ||b||), anorm <= ||A||, after
    MAX_ITERATIONS steps, or after a cycle that leaves x bitwise unchanged.
    Returns x, the residual and the steps taken.
    """
    n = b.shape[0]
    bnorm = np.max(np.abs(b))
    r = b - apply(x)
    steps = 0
    while True:
        target = TOL * (anorm * np.max(np.abs(x)) + bnorm)
        if not np.max(np.abs(r)) > target or steps >= MAX_ITERATIONS:
            return x, r, steps
        m = min(RESTART, n, MAX_ITERATIONS - steps)
        v = np.zeros((m + 1, n))
        hess = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = np.linalg.norm(r)
        v[0] = r / g[0]
        for j in range(m):
            w = apply(precondition(v[j]))
            for i in range(j + 1):
                hess[i, j] = w @ v[i]
                w -= hess[i, j] * v[i]
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] > 0.0:
                v[j + 1] = w / hess[j + 1, j]
            for i in range(j):
                hess[i, j], hess[i + 1, j] = (
                    cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                    cs[i] * hess[i + 1, j] - sn[i] * hess[i, j],
                )
            rho = math.hypot(hess[j, j], hess[j + 1, j])
            if rho == 0.0:
                # A P^-1 maps a Krylov vector to the span of the earlier ones
                raise _singular(math.inf, "GMRES broke down")
            cs[j], sn[j] = hess[j, j] / rho, hess[j + 1, j] / rho
            hess[j, j], hess[j + 1, j] = rho, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            steps += 1
            # |g[j+1]| is the 2-norm of the residual, which bounds its max
            if not abs(g[j + 1]) > target:
                break
        y = solve_triangular(hess[: j + 1, : j + 1], g[: j + 1], check_finite=False)
        moved = x + precondition(y @ v[: j + 1])
        if moved.tobytes() == x.tobytes():
            # r is unchanged too, so every later cycle would repeat this one
            return x, r, steps
        x = moved
        r = b - apply(x)


def _singular(cond: float, detail: str) -> NumericalFailure:
    return NumericalFailure(
        f"assembled system is numerically singular (condition estimate {cond:.3e}); {detail}"
    )


def solve(problem: LinearProblem) -> SolveReport:
    """Solve by preconditioned restarted GMRES per component.

    Raises NumericalFailure when the solution is not finite, when GMRES
    misses its backward-error target TOL within MAX_ITERATIONS steps or
    stops on a restart cycle that leaves x unchanged, or
    when the relative residual ||b - A x|| / ||b|| exceeds RESIDUAL_MAX.
    """
    # a system that overflows gives non-finite GMRES output, which raises below
    with np.errstate(all="ignore"):
        system = assemble(problem)
    rhs, anorm = system.rhs, system.anorm
    x, residual = np.empty_like(rhs), np.empty_like(rhs)
    cond, steps, backward = 1.0, 0, 0.0
    for j in range(problem.dim):
        # solve for data scaled by a power of two near its size: exact, and
        # tiny data cannot underflow the norms or sink the residual into
        # subnormal rounding
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(rhs[:, j]))))[1])
        b = rhs[:, j] / scale
        with np.errstate(all="ignore"):
            xj, rj, n_steps = _gmres(
                system.apply, system.precondition, b, system.start[:, j] / scale, anorm
            )
            rnorm, xnorm, bnorm = (float(np.max(np.abs(v))) for v in (rj, xj, b))
            if bnorm > 0.0:
                cond = max(cond, anorm * xnorm / bnorm)
            berr = rnorm / (anorm * xnorm + bnorm) if rnorm > 0.0 else 0.0
        steps += n_steps
        if not (np.all(np.isfinite(xj)) and np.all(np.isfinite(rj))):
            raise _singular(cond, "GMRES produced non-finite values")
        if not berr <= TOL:
            raise _singular(
                cond,
                f"GMRES backward error {berr:.1e} above {TOL:g} "
                f"after {n_steps} iterations",
            )
        if not rnorm <= RESIDUAL_MAX * bnorm:
            raise _singular(
                cond, f"relative residual {rnorm / bnorm:.1e} above {RESIDUAL_MAX:g}"
            )
        x[:, j] = xj * scale
        residual[:, j] = rj * scale
        backward = max(backward, berr)

    return SolveReport(
        solution=make_trajectory(problem.grid, x),
        residual_norm=float(np.max(np.abs(residual))),
        condition_estimate=float(cond),
        iterations=steps,
        backward_error=float(backward),
        context=system.context,
    )


@dataclass(frozen=True, eq=False)
class ClassicalReference:
    """Closed-form x(t) = c1*e^t + c2*e^{-t} fitted per component."""

    c1: np.ndarray
    c2: np.ndarray

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.squeeze(np.multiply.outer(np.exp(t), self.c1) + np.multiply.outer(np.exp(-t), self.c2))

    __call__ = value


def classical_reference(a: float, b: float, xa, xb) -> ClassicalReference:
    """Fit c1*e^t + c2*e^{-t} through x(a) = xa, x(b) = xb componentwise."""
    if not (a < b):
        raise ValueError("need a < b")
    xa = np.atleast_1d(np.asarray(xa, dtype=float))
    xb = np.atleast_1d(np.asarray(xb, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("xa and xb must have the same length")
    fit = np.array([[math.exp(a), math.exp(-a)], [math.exp(b), math.exp(-b)]])
    coeff = np.linalg.solve(fit, np.stack([xa, xb]))
    return ClassicalReference(c1=coeff[0], c2=coeff[1])
