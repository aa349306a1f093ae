"""Observed convergence orders against closed forms.

Each test refines the grid by halving h and measures the sup error at every
step; the observed order between consecutive grids is log2(e_h / e_{h/2}).
"""

import math

import numpy as np
import pytest

from fracnoether import fracops as F
from fracnoether import solver as S


def observed_orders(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("beta", [2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_l1_caputo_order_is_two_minus_alpha(alpha, beta):
    # cD^alpha t^beta = Gamma(beta+1)/Gamma(beta+1-alpha) * t^(beta-alpha);
    # on smooth data the L1 rule converges like h^(2-alpha)
    errors = []
    # the convolution runs one FFT level at n_sub = 100 and six at 3200
    for n_sub in (100, 200, 400, 800, 1600, 3200):
        g = F.make_grid(0.0, 1.0, n_sub)
        t = g.nodes
        got = F.caputo_left(g, alpha, F.make_trajectory(g, t**beta)).values[:, 0]
        exact = math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * t ** (beta - alpha)
        errors.append(np.max(np.abs(got - exact)))
    for order in observed_orders(errors):
        assert order == pytest.approx(2.0 - alpha, abs=0.1)


def test_solver_order_at_alpha_one():
    # x'' = x with Dirichlet data against the closed form c1 e^t + c2 e^-t
    ref = S.classical_reference(0.0, 1.0, 1.0, 2.0)
    errors = []
    for n_sub in (50, 100, 200, 400):
        g = F.make_grid(0.0, 1.0, n_sub)
        problem = S.LinearProblem(
            grid=g, alpha=1.0, dim=1, kappa=-1.0, bc=S.dirichlet(1.0, 2.0)
        )
        x = S.solve(problem).solution.values[:, 0]
        errors.append(np.max(np.abs(x - ref.value(g.nodes))))
    for order in observed_orders(errors):
        assert order >= 1.95
