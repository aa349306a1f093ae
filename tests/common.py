"""Solver trajectories, a Lagrangian and apply counters shared by several
test modules."""

import numpy as np

import fracnoether._kernels as K
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


def count_left_applies(monkeypatch):
    """Record the argument of every D_a+ apply, in either convention."""
    calls = []

    def counting(op):
        def counted(grid, o, y):
            calls.append(y)
            return op(grid, o, y)

        return counted

    for name, op in list(LG._LEFT_OPS.items()):
        monkeypatch.setitem(LG._LEFT_OPS, name, counting(op))
    return calls


def count_right_applies(monkeypatch):
    """Record the argument of every D_b- apply that ``lagrangian`` takes."""
    calls = []
    op = LG.rl_right

    def counted(grid, o, y):
        calls.append(y)
        return op(grid, o, y)

    monkeypatch.setattr(LG, "rl_right", counted)
    return calls


def count_convolutions(monkeypatch):
    """Record the slopes and the profile's blocks of every L1 convolution
    that ``_kernels`` computes (not those it returns kept).  Every profile,
    with its kept results, is dropped first, so the count starts from none."""
    calls = []
    op = K.causal_convolve

    def counted(b, s, blocks):
        calls.append((s.copy(), blocks))
        return op(b, s, blocks)

    K._profile.cache_clear()
    monkeypatch.setattr(K, "causal_convolve", counted)
    return calls
