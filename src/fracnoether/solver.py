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
reversal), so K X = L(J L(J X)): two applications of L, each a column-0
term plus one ``numpy.fft`` convolution with the Toeplitz symbol, in
O(N log N) time and O(N) memory.  ``assemble`` still reads the symbol and
column 0 off the O(N^2) weight fill of ``right_integral_matrix``.

``solve`` runs restarted GMRES (modified Gram-Schmidt Arnoldi with Givens
rotations) per component, right-preconditioned by a circulant stand-in
for I - kappa*K that one FFT pair inverts.  It stops at a normwise
backward error of TOL and raises NumericalFailure when the solution is not
finite, when GMRES misses TOL within MAX_ITERATIONS steps, or when the
relative residual ||b - A x|| / ||b|| exceeds RESIDUAL_MAX.  The last gate
is the one a nearly singular system trips: its solution is huge, so the
backward error is tiny while the residual is of the size of the data.
The condition estimate ||A|| ||x|| / ||b|| (with a lower bound on ||A||)
is a lower bound on the condition number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular

from .fracops import (
    FractionalOrder,
    Grid,
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


class NumericalFailure(RuntimeError):
    """Raised when the assembled system is singular or numerically unusable."""


def _as_vector(v, dim, name):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have length {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class DirichletBC:
    """Boundary values x(a) = xa, x(b) = xb."""

    xa: np.ndarray
    xb: np.ndarray


@dataclass(frozen=True)
class InitialBC:
    """Initial values x(a) = u0, x'(a) = du0 (imposed by a first-order
    one-sided difference row)."""

    u0: np.ndarray
    du0: np.ndarray


def dirichlet(xa, xb) -> DirichletBC:
    xa = np.atleast_1d(np.asarray(xa, dtype=float))
    xb = np.atleast_1d(np.asarray(xb, dtype=float))
    return DirichletBC(xa=xa, xb=xb)


def initial(u0, du0) -> InitialBC:
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    du0 = np.atleast_1d(np.asarray(du0, dtype=float))
    return InitialBC(u0=u0, du0=du0)


@dataclass(frozen=True)
class LinearProblem:
    """D^alpha_right(caputo_left x) = kappa * x with boundary data."""

    grid: Grid
    alpha: FractionalOrder
    dim: int
    kappa: float
    bc: Union[DirichletBC, InitialBC]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _order(self.alpha))
        kappa = float(self.kappa)
        if not math.isfinite(kappa):
            raise ValueError("kappa must be finite")
        object.__setattr__(self, "kappa", kappa)
        if isinstance(self.bc, DirichletBC):
            _as_vector(self.bc.xa, self.dim, "xa")
            _as_vector(self.bc.xb, self.dim, "xb")
        elif isinstance(self.bc, InitialBC):
            _as_vector(self.bc.u0, self.dim, "u0")
            _as_vector(self.bc.du0, self.dim, "du0")
        else:
            raise TypeError(f"unsupported boundary condition {self.bc!r}")


@dataclass(frozen=True)
class AssembledSystem:
    """The system matrix A as an operator, with its preconditioner and the
    per-component right-hand sides.

    ``symbol_fft`` is the real FFT of the Toeplitz symbol t[g] = L[N, N-g]
    (g < N) of the left integral matrix L, zero-padded so that the
    convolution does not wrap around; ``column0`` is L's column 0 and
    ``shape`` is S.  ``precond`` holds the Fourier eigenvalues of the
    inverse preconditioner (see ``precondition``).
    """

    problem: LinearProblem
    symbol_fft: np.ndarray = field(repr=False)
    column0: np.ndarray = field(repr=False)
    shape: np.ndarray = field(repr=False)
    precond: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def _left(self, v: np.ndarray) -> np.ndarray:
        """L v: column 0 times v[0] plus the Toeplitz part of rows 1..N."""
        n = v.shape[0]
        nfft = 2 * (self.symbol_fft.shape[0] - 1)
        conv = np.fft.irfft(np.fft.rfft(v[1:], nfft) * self.symbol_fft, nfft)
        out = self.column0 * v[0]
        out[1:] += conv[: n - 1]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for one component's node vector x:
        x - kappa*K x + kappa*S*(K x)_N, then the boundary-data rows."""
        p = self.problem
        kx = self._left(self._left(x[::-1])[::-1])
        y = x - p.kappa * kx + p.kappa * kx[-1] * self.shape
        if isinstance(p.bc, DirichletBC):
            y[-1] = x[-1]
        else:
            y -= self.shape * x[-1]
            y[-1] = (x[1] - x[0]) / p.grid.h
        y[0] = x[0]
        return y

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """P^-1 v: the inverse circulant applied to rows 1..m, which are
        zero-padded to N rows and cut back; the data rows (0, and N for
        Dirichlet data) pass unchanged."""
        n = v.shape[0]
        m = n - 2 if isinstance(self.problem.bc, DirichletBC) else n - 1
        out = v.copy()
        z = np.fft.irfft(np.fft.rfft(v[1 : m + 1], n - 1) * self.precond, n - 1)
        out[1 : m + 1] = z[:m]
        return out

    def norm_lower_bound(self) -> float:
        """A lower bound on ||A||_inf: the larger of ||A 1||_inf and the
        absolute row sum of a data row (1) or the difference row (2/h)."""
        p = self.problem
        row = 1.0 if isinstance(p.bc, DirichletBC) else 2.0 / p.grid.h
        return max(row, float(np.max(np.abs(self.apply(np.ones(p.grid.n_nodes))))))


@dataclass(frozen=True)
class SolveReport:
    """A solution and its diagnostics, all in the infinity norm.

    ``residual_norm`` is max |b - A x| over nodes and components.
    ``condition_estimate`` is the largest per-component
    ell ||x|| / ||b||, with ell <= ||A|| from ``norm_lower_bound``, and at
    least 1: a lower bound on the condition number.  ``iterations`` counts the Arnoldi
    steps of all components.  ``backward_error`` is the largest
    per-component ||b - A x|| / (ell ||x|| + ||b||), an upper bound on the
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

    The right integral matrix R = J L J holds L's symbol as its row 0 and
    L's column 0 as its last column reversed; only those O(N) vectors, the
    preconditioner and the right-hand sides are kept.

    The preconditioner is P = I - kappa*C C^T, with C the optimal
    (T. Chan) N x N circulant of the symbol, c[g] = (N - g)/N * t[g]: a
    stand-in for I - kappa*K that one real FFT pair inverts.  Without it
    GMRES needs hundreds of steps when kappa*K has many eigenvalues near 1
    (alpha <= 0.2 with kappa >= 2, for instance).
    """
    grid = problem.grid
    n = grid.n_nodes
    right = right_integral_matrix(grid, problem.alpha)
    # a power of two >= 2N leaves the first N entries of the cyclic
    # convolution free of wrap-around
    nfft = 1 << (2 * (n - 1) - 1).bit_length()
    symbol_fft = np.fft.rfft(right[0, : n - 1], nfft)
    column0 = right[::-1, n - 1].copy()
    c = (n - 1 - np.arange(n - 1)) / (n - 1) * right[0, : n - 1]
    d = 1.0 - problem.kappa * np.abs(np.fft.rfft(c)) ** 2
    precond = 1.0 / np.copysign(np.maximum(np.abs(d), PRECOND_FLOOR), d)
    s = boundary_shape(grid, problem.alpha)

    if isinstance(problem.bc, DirichletBC):
        rhs = np.outer(1.0 - s, problem.bc.xa) + np.outer(s, problem.bc.xb)
        rhs[0] = problem.bc.xa
        rhs[n - 1] = problem.bc.xb
    else:
        rhs = np.outer(1.0 - s, problem.bc.u0)
        rhs[0] = problem.bc.u0
        rhs[n - 1] = problem.bc.du0
    return AssembledSystem(
        problem=problem,
        symbol_fft=symbol_fft,
        column0=column0,
        shape=s,
        precond=precond,
        rhs=rhs,
    )


def _gmres(system: AssembledSystem, b: np.ndarray, x: np.ndarray, anorm: float):
    """Right-preconditioned restarted GMRES for A x = b from the start x.

    Each cycle runs up to RESTART modified Gram-Schmidt Arnoldi steps on
    A P^-1, reducing the Hessenberg by Givens rotations as it grows, and
    ends early once the rotated residual meets the target; after every
    cycle the true residual decides.  GMRES stops once
    ||b - A x|| <= TOL * (anorm ||x|| + ||b||), anorm <= ||A||, or after
    MAX_ITERATIONS steps.  Returns x, the residual and the steps taken.
    """
    n = b.shape[0]
    bnorm = np.max(np.abs(b))
    r = b - system.apply(x)
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
            w = system.apply(system.precondition(v[j]))
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
        x = x + system.precondition(y @ v[: j + 1])
        r = b - system.apply(x)


def _singular(cond: float, detail: str) -> NumericalFailure:
    return NumericalFailure(
        f"assembled system is numerically singular (condition estimate {cond:.3e}); {detail}"
    )


def solve(problem: LinearProblem) -> SolveReport:
    """Solve by preconditioned restarted GMRES per component.

    Raises NumericalFailure when the solution is not finite, when GMRES
    misses its backward-error target TOL within MAX_ITERATIONS steps, or
    when the relative residual ||b - A x|| / ||b|| exceeds RESIDUAL_MAX.
    """
    system = assemble(problem)
    rhs = system.rhs
    ell = system.norm_lower_bound()
    # start from the interpolant (1 - S)*x(a) + S*x(b), with x(b) = 0 for
    # initial data: it meets the data rows exactly, and as those rows of A
    # and of P are unit rows, every GMRES correction is zero there
    x = rhs.copy()
    if isinstance(problem.bc, InitialBC):
        x[-1] = 0.0
    residual = np.empty_like(rhs)
    cond, steps, backward = 1.0, 0, 0.0
    for j in range(problem.dim):
        # solve for data scaled by a power of two near its size: exact, and
        # tiny data cannot underflow the norms or sink the residual into
        # subnormal rounding
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(rhs[:, j]))))[1])
        b = rhs[:, j] / scale
        with np.errstate(all="ignore"):
            xj, rj, n_steps = _gmres(system, b, x[:, j] / scale, ell)
            rnorm, xnorm, bnorm = (float(np.max(np.abs(v))) for v in (rj, xj, b))
            if bnorm > 0.0:
                cond = max(cond, ell * xnorm / bnorm)
            berr = rnorm / (ell * xnorm + bnorm) if rnorm > 0.0 else 0.0
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

    context = ""
    if isinstance(problem.bc, InitialBC):
        context = "initial data imposed via first-order one-sided difference row"
    return SolveReport(
        solution=make_trajectory(problem.grid, x),
        residual_norm=float(np.max(np.abs(residual))),
        condition_estimate=float(cond),
        iterations=steps,
        backward_error=float(backward),
        context=context,
    )


@dataclass(frozen=True)
class ClassicalReference:
    """Closed-form x(t) = c1*e^t + c2*e^{-t} fitted per component."""

    c1: np.ndarray
    c2: np.ndarray

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.squeeze(np.multiply.outer(np.exp(t), self.c1) + np.multiply.outer(np.exp(-t), self.c2))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return np.squeeze(np.multiply.outer(np.exp(t), self.c1) - np.multiply.outer(np.exp(-t), self.c2))

    def second_derivative(self, t):
        return self.value(t)

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
