"""Solver trajectories and a Lagrangian shared by several test modules."""

import numpy as np

import fracnoether.fracops as F
import fracnoether.lagrangian as LG
import fracnoether.solver as SV


def solve_quadratic(n_sub, alpha, kappa=-1.0, a=0.0, b=1.0):
    """The two-component quadratic problem with Dirichlet data
    (1, 2) -> (2, 1) on [a, b]."""
    grid = F.make_grid(a, b, n_sub)
    problem = SV.LinearProblem(
        grid=grid,
        alpha=alpha,
        dim=2,
        kappa=kappa,
        bc=SV.dirichlet(np.array([1.0, 2.0]), np.array([2.0, 1.0])),
    )
    return SV.solve(problem).solution


def solve_oscillator(n_sub, alpha, omega):
    """The scalar oscillator with u(0) = 0, u'(0) = 1 on [0, 1]."""
    grid = F.make_grid(0.0, 1.0, n_sub)
    problem = SV.LinearProblem(
        grid=grid,
        alpha=alpha,
        dim=1,
        kappa=-(omega**2),
        bc=SV.initial(np.array([0.0]), np.array([1.0])),
    )
    return SV.solve(problem).solution


def quadratic_lagrangian(dim=2):
    """L = (|x|^2 + |v|^2) / 2 with analytic partials."""
    return LG.make_lagrangian(
        dim,
        eval=lambda t, x, v: 0.5 * (np.vecdot(x, x) + np.vecdot(v, v)),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: x,
        d_v=lambda t, x, v: v,
    )
