"""Direct solver for linear fractional Euler-Lagrange boundary problems.

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

K is formed from the integral weight profile in O(N^2) time, with no matrix
product (the integral matrices are Toeplitz off column 0).  The system stays
dense: solves are pivoted LU with a 1-norm condition estimate, and condition
estimates above 1e12 (or non-finite solutions) raise NumericalFailure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .fracops import (
    FractionalOrder,
    Grid,
    Trajectory,
    _order,
    make_trajectory,
    right_integral_matrix,
)

COND_LIMIT = 1e12


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
    """Dense system matrix and per-component right-hand sides."""

    problem: LinearProblem
    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SolveReport:
    solution: Trajectory
    residual_norm: float
    condition_estimate: float
    context: str = ""


def boundary_shape(grid: Grid, alpha) -> np.ndarray:
    """S_k = ((t_k - a)/(b - a))**alpha; S_0 = 0 and S_N = 1 exactly."""
    o = _order(alpha)
    return ((grid.nodes - grid.a) / (grid.b - grid.a)) ** o.alpha


def _integral_product(grid: Grid, o: FractionalOrder) -> np.ndarray:
    """K = I_left @ I_right from the weight profile in O(N^2), no product.

    Off column 0 the left integral matrix L is lower-triangular Toeplitz
    with symbol t[g] = L[N, N-g] (g < N; t[N] = 0), and the right matrix is
    R = J L J, so R[k, j] = t[j-k] for j < N.  Splitting the k = 0 term off
    K[i, j] = sum_k L[i, k] R[k, j] leaves, for j < N,

        K[i, j] = L[i, 0]*t[j] + C[i-1, j-1],   C = T T^T,

    with T the full Toeplitz matrix of t, whose rows obey C[0] = t[0]*t
    and C[i, j] = C[i-1, j-1] + t[i]*t[j].  Row 0 is exactly zero.  The
    last column is L @ R[:, N].  The weights are filled once: R is the
    read-only flipped view from ``right_integral_matrix`` and L is its flip
    back, so K is the only other N x N array.
    """
    n = grid.n_nodes
    right = right_integral_matrix(grid, o)
    left = np.flip(right)
    t = left[n - 1, ::-1].copy()
    t[n - 1] = 0.0
    k = np.empty((n, n))
    c = np.zeros(n)
    for i in range(n):
        # shift C[i-1] to C[i-1, j-1], then close row i of K and of C
        c[1:] = c[:-1]
        c[0] = 0.0
        np.multiply(t, left[i, 0], out=k[i])
        k[i] += c
        c += t[i] * t
    # numpy multiplies by a strided column along another path than by a
    # contiguous one, with different rounding; the copy keeps the BLAS path
    k[:, n - 1] = left @ right[:, n - 1].copy()
    return k


def assemble(problem: LinearProblem) -> AssembledSystem:
    """Build the dense system for the integral form of the problem.

    K = I_left o I_right comes from the weight profile in O(N^2) (see
    ``_integral_product``) and the system matrix is formed in its place;
    the matrix stays dense for the LU solve.
    """
    grid = problem.grid
    o = problem.alpha
    kappa = problem.kappa
    n = grid.n_nodes

    s = boundary_shape(grid, o)
    # m = I - kappa*K + kappa*outer(s, K[N]), without N x N temporaries
    m = _integral_product(grid, o)
    k_n = m[n - 1].copy()
    m *= -kappa
    m.flat[:: n + 1] += 1.0
    for i in range(n):
        m[i] += kappa * (s[i] * k_n)

    if isinstance(problem.bc, DirichletBC):
        rhs = np.outer(1.0 - s, problem.bc.xa) + np.outer(s, problem.bc.xb)
        m[0, :] = 0.0
        m[0, 0] = 1.0
        rhs[0] = problem.bc.xa
        m[n - 1, :] = 0.0
        m[n - 1, n - 1] = 1.0
        rhs[n - 1] = problem.bc.xb
    else:
        # x(b) is unknown: move its right-hand-side coupling S_k * X_N into
        # the matrix, then impose x(a) = u0 and (X_1 - X_0)/h = du0
        rhs = np.outer(1.0 - s, problem.bc.u0)
        m[:, n - 1] -= s
        m[0, :] = 0.0
        m[0, 0] = 1.0
        rhs[0] = problem.bc.u0
        m[n - 1, :] = 0.0
        m[n - 1, 0] = -1.0 / grid.h
        m[n - 1, 1] = 1.0 / grid.h
        rhs[n - 1] = problem.bc.du0

    return AssembledSystem(problem=problem, matrix=m, rhs=rhs)


def _condition_estimate(matrix: np.ndarray, lu: np.ndarray) -> float:
    gecon = get_lapack_funcs(("gecon",), (matrix,))[0]
    anorm = np.linalg.norm(matrix, 1)
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond <= 0.0:
        return math.inf
    return 1.0 / float(rcond)


def solve(problem: LinearProblem) -> SolveReport:
    """Solve by pivoted LU; raises NumericalFailure for singular or
    ill-conditioned systems (condition estimate > 1e12)."""
    system = assemble(problem)
    m, rhs = system.matrix, system.rhs
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # singularity is diagnosed via the condition estimate below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
        cond = _condition_estimate(m, lu)
        if cond > COND_LIMIT:
            raise NumericalFailure(
                f"assembled system is numerically singular (condition estimate {cond:.3e})"
            )
        x = lu_solve((lu, piv), rhs, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("solve produced non-finite values")

    context = ""
    if isinstance(problem.bc, DirichletBC):
        x[0] = problem.bc.xa
        x[-1] = problem.bc.xb
    else:
        x[0] = problem.bc.u0
        context = "initial data imposed via first-order one-sided difference row"

    residual = np.max(np.abs(m @ x - rhs))
    return SolveReport(
        solution=make_trajectory(problem.grid, x),
        residual_norm=float(residual),
        condition_estimate=cond,
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
