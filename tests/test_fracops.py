"""Tests for grids, fractional integral matrices, slope-form derivatives, and
composition rules."""

import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracnoether import _kernels
from fracnoether import fracops as F

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def grid01(n=64):
    return F.make_grid(0.0, 1.0, n)


class TestMakeGrid:
    def test_basic_nodes(self):
        g = F.make_grid(0, 1, 4)
        assert g.h == 0.25
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_symmetric_interval(self):
        g = F.make_grid(-1, 1, 2)
        np.testing.assert_allclose(g.nodes, [-1.0, 0.0, 1.0])
        assert g.h == 1.0

    def test_endpoints_exact_and_spacing(self):
        g = F.make_grid(0.1, 2.3, 37)
        assert g.nodes[0] == 0.1 and g.nodes[-1] == 2.3
        steps = np.diff(g.nodes)
        assert np.max(np.abs(steps - g.h)) < 1e-14

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 4), (2, 2, 8), (0, 1, 0)])
    def test_rejects_bad_domain(self, args):
        with pytest.raises(ValueError):
            F.make_grid(*args)


class TestFractionalOrder:
    @pytest.mark.parametrize("a", [0.0, -0.5, 1.0001, float("nan"), 2.0])
    def test_rejects_out_of_range(self, a):
        with pytest.raises(ValueError):
            F.FractionalOrder(a)

    def test_accepts_closure_at_one(self):
        assert F.FractionalOrder(1.0).alpha == 1.0
        assert F.FractionalOrder(0.3).alpha == 0.3


class TestTrajectory:
    def test_one_dim_promotion(self):
        g = grid01(8)
        x = F.make_trajectory(g, g.nodes)
        assert x.dim == 1 and x.values.shape == (9, 1)

    def test_row_count_enforced(self):
        g = grid01(8)
        with pytest.raises(ValueError):
            F.make_trajectory(g, np.zeros(8))

    def test_nonfinite_rejected_with_node_index(self):
        g = grid01(8)
        vals = np.zeros(9)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="node 3"):
            F.make_trajectory(g, vals)

    def test_masked_rows_store_nan_and_allow_nonfinite(self):
        g = grid01(8)
        vals = np.zeros(9)
        vals[0] = np.nan
        mask = np.ones(9, dtype=bool)
        mask[0] = False
        x = F.make_trajectory(g, vals, mask=mask)
        assert np.isnan(x.values[0, 0])
        assert np.all(np.isfinite(x.defined_values()))

    def test_arrays_read_only(self):
        g = grid01(8)
        x = F.make_trajectory(g, np.zeros(9))
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda g: F.make_trajectory(g, g.nodes, mask=np.ones(8, dtype=bool)),
            r"mask must have shape \(9,\)",
        ),
        (
            lambda g: F.make_trajectory(g, g.nodes, mask=np.ones((9, 1), dtype=bool)),
            r"mask must have shape \(9,\)",
        ),
        (
            lambda g: F.caputo_left(g, 0.5, F.make_trajectory(grid01(16), grid01(16).nodes)),
            "different grids",
        ),
    ],
    ids=["make_trajectory-short-mask", "make_trajectory-2d-mask", "caputo_left-other-grid"],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call(grid01(8))


class TestIntegralMatrices:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_left_constant_exactness(self, alpha):
        g = grid01()
        y = F.left_integral_matrix(g, alpha) @ np.full(g.n_nodes, 3.0)
        exact = 3.0 * g.nodes ** alpha / math.gamma(1.0 + alpha)
        rel = np.abs(y[1:] - exact[1:]) / np.abs(exact[1:])
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_right_constant_exactness(self, alpha):
        g = grid01()
        y = F.right_integral_matrix(g, alpha) @ np.full(g.n_nodes, 3.0)
        exact = 3.0 * (g.b - g.nodes) ** alpha / math.gamma(1.0 + alpha)
        rel = np.abs(y[:-1] - exact[:-1]) / np.abs(exact[:-1])
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_structure_and_sign(self, alpha):
        g = grid01(16)
        a_l = F.left_integral_matrix(g, alpha)
        a_r = F.right_integral_matrix(g, alpha)
        assert np.all(a_l[0] == 0.0)
        assert np.all(a_r[-1] == 0.0)
        assert np.all(a_l >= 0.0) and np.all(a_r >= 0.0)
        # row k of the left matrix touches only columns 0..k
        assert np.all(np.triu(a_l, 1) == 0.0)
        assert np.all(np.tril(a_r, -1) == 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_right_is_flipped_left_bitwise(self, alpha):
        g = grid01(32)
        a_l = F.left_integral_matrix(g, alpha)
        a_r = F.right_integral_matrix(g, alpha)
        assert np.array_equal(a_r, np.flip(a_l))

    def test_matrices_are_read_only(self):
        g = grid01(8)
        left = F.left_integral_matrix(g, 0.5)
        right = F.right_integral_matrix(g, 0.5)
        assert not left.flags.writeable and not right.flags.writeable
        # the right matrix is a view, not a second fill or copy
        assert not right.flags.owndata
        with pytest.raises(ValueError):
            right[1, 1] = 0.0

    def test_alpha_one_is_trapezoid_exact_on_affine(self):
        g = grid01(16)
        y = F.left_integral_matrix(g, 1.0) @ g.nodes
        assert np.max(np.abs(y - g.nodes ** 2 / 2.0)) < 1e-15

    def test_alpha_one_right_integral_of_one(self):
        g = grid01(16)
        y = F.right_integral_matrix(g, 1.0) @ np.ones(g.n_nodes)
        assert np.max(np.abs(y - (1.0 - g.nodes))) < 1e-15

    def test_half_order_integral_of_t_converges(self):
        # int_0^1 (1-s)^{-1/2} s ds / Gamma(1/2) = 1/Gamma(2.5) (Beta identity)
        target = 0.7522527780636750
        errs = []
        for n in (64, 128, 256):
            g = grid01(n)
            errs.append(abs((F.left_integral_matrix(g, 0.5) @ g.nodes)[-1] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-4


class TestCaputo:
    @pytest.mark.parametrize("alpha", (0.3, 0.7, 1.0))
    def test_constant_maps_to_exact_zero(self, alpha):
        g = grid01()
        x = F.make_trajectory(g, np.full(g.n_nodes, 4.2))
        d = F.caputo_left(g, alpha, x)
        assert np.all(d.values == 0.0)
        d_r = F.caputo_right(g, alpha, x)
        assert np.all(d_r.values == 0.0)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
    def test_affine_input_is_exact(self, alpha):
        # with x = t the piecewise-constant slope representation is exact,
        # so the L1 value equals t^(1-alpha)/Gamma(2-alpha) to rounding
        g = grid01(100)
        d = F.caputo_left(g, alpha, F.make_trajectory(g, g.nodes))
        exact = g.nodes ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert np.max(np.abs(d.values[1:, 0] - exact[1:])) < 1e-12

    def test_oracle_value_alpha_03(self):
        # t^{0.7}/Gamma(1.7) at t = 0.7, high-precision reference
        g = grid01(100)
        d = F.caputo_left(g, 0.3, F.make_trajectory(g, g.nodes))
        assert d.values[70, 0] == pytest.approx(0.857387963447334, abs=1e-12)

    def test_classical_limit_left(self):
        g = grid01(100)
        d = F.caputo_left(g, 1.0, F.make_trajectory(g, g.nodes ** 2))
        assert np.max(np.abs(d.values[:, 0] - 2.0 * g.nodes)) < 1e-12

    def test_classical_limit_right_carries_minus(self):
        g = grid01(100)
        d = F.caputo_right(g, 1.0, F.make_trajectory(g, g.nodes))
        assert np.max(np.abs(d.values[:, 0] + 1.0)) < 1e-12

    @pytest.mark.parametrize("alpha", (0.4, 0.8, 1.0))
    def test_reversal_identity(self, alpha):
        # right derivative = left derivative of the reversed path, reversed
        g = grid01(100)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(g.n_nodes)
        lhs = F.caputo_right(g, alpha, F.make_trajectory(g, xs)).values[:, 0]
        rhs = F.caputo_left(g, alpha, F.make_trajectory(g, xs[::-1].copy())).values[::-1, 0]
        assert np.array_equal(lhs, rhs)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.01, 0.99),
        n_sub=st.integers(2, 150),
        a=st.floats(-10.0, 10.0),
        length=st.floats(1e-2, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slope_form_matches_l1_matrix(self, alpha, n_sub, a, length, seed):
        # the dense L1 matrix is the oracle for the slope form; the right
        # derivative is its flip in both indices
        g = F.make_grid(a, a + length, n_sub)
        xs = np.random.default_rng(seed).standard_normal(g.n_nodes)
        c = _kernels.l1_weights(g.n_nodes, g.h, alpha, math.gamma(2.0 - alpha))
        x = F.make_trajectory(g, xs)
        tol = 1e-13 * np.max(np.sum(np.abs(c), axis=1)) * np.max(np.abs(xs))
        left = F.caputo_left(g, alpha, x).values[:, 0]
        right = F.caputo_right(g, alpha, x).values[:, 0]
        assert np.max(np.abs(left - c @ xs)) <= tol
        assert np.max(np.abs(right - np.flip(c) @ xs)) <= tol

    def test_half_order_of_sqrt_growth(self):
        # cD^{1/2} t^{1/2} = Gamma(1.5)/Gamma(1) * t^0 = sqrt(pi)/2
        g = grid01(400)
        d = F.caputo_left(g, 0.5, F.make_trajectory(g, np.sqrt(g.nodes)))
        mid = d.values[g.n_sub // 2 :, 0]
        assert np.max(np.abs(mid - math.sqrt(math.pi) / 2.0)) < 2e-2


class TestRiemannLiouville:
    def test_vanishing_boundary_matches_caputo(self):
        g = grid01(200)
        x = F.make_trajectory(g, g.nodes ** 1.3)
        rl = F.rl_left(g, 0.6, x)
        cap = F.caputo_left(g, 0.6, x)
        assert np.array_equal(rl.values[1:], cap.values[1:])
        assert not rl.mask[0] and np.isnan(rl.values[0, 0])

    def test_constant_formula(self):
        g = grid01(200)
        rl = F.rl_left(g, 0.5, F.make_trajectory(g, np.full(g.n_nodes, 2.0)))
        exact = 2.0 * g.nodes[1:] ** (-0.5) / math.gamma(0.5)
        assert np.max(np.abs(rl.values[1:, 0] - exact)) < 1e-10

    def test_right_oracle_value(self):
        # x = 1 - t on [0,1]: x(b) = 0 so the value is the right Caputo
        # derivative, (1-t)^{1/2}/Gamma(1.5); reference at t = 0.4
        g = grid01(200)
        rl = F.rl_right(g, 0.5, F.make_trajectory(g, 1.0 - g.nodes))
        assert rl.values[80, 0] == pytest.approx(0.8740387444736632, abs=1e-12)
        assert not rl.mask[-1]

    def test_alpha_one_coincides_with_caputo(self):
        g = grid01(50)
        x = F.make_trajectory(g, np.sin(g.nodes))
        rl = F.rl_left(g, 1.0, x)
        cap = F.caputo_left(g, 1.0, x)
        assert np.array_equal(rl.values, cap.values)
        assert rl.mask.all()

    def test_boundary_nodes_masked(self):
        g = grid01(10)
        rng = np.random.default_rng(5)
        x = F.make_trajectory(g, rng.standard_normal(g.n_nodes))
        left = F.rl_left(g, 0.5, x)
        right = F.rl_right(g, 0.5, x)
        assert not left.mask[0] and left.mask[1:].all()
        assert not right.mask[g.n_sub] and right.mask[:-1].all()
        assert F.rl_left(g, 1.0, x).mask.all()
        assert F.rl_right(g, 1.0, x).mask.all()


class TestOverflow:
    @pytest.mark.parametrize("op", [F.caputo_left, F.caputo_right, F.rl_left, F.rl_right])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_overflow_is_a_numerical_failure(self, op, alpha):
        # finite values on a 1e-300 grid: every slope overflows; the
        # failure raises without a RuntimeWarning (an error under pytest)
        g = F.make_grid(0.0, 1e-300, 20)
        x = F.make_trajectory(g, np.cos(np.arange(g.n_nodes)) * 1e10)
        with pytest.raises(F.NumericalFailure, match=f"order {alpha:g} overflows"):
            op(g, alpha, x)

    def test_one_failure_class(self):
        import fracnoether
        from fracnoether import solver

        assert fracnoether.NumericalFailure is solver.NumericalFailure is F.NumericalFailure
        assert issubclass(F.NumericalFailure, RuntimeError)


class TestComposition:
    def test_frozen_residuals_alpha_half(self):
        # recorded from this implementation at first build; guards regressions
        frozen = {32: 5.2567e-3, 64: 1.9276e-3, 128: 6.9737e-4}
        for n, ref in frozen.items():
            g = grid01(n)
            rep = F.check_composition(g, 0.5, F.make_trajectory(g, g.nodes ** 2))
            assert rep.caputo_residual == pytest.approx(ref, rel=5e-3)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8))
    def test_residuals_decrease_with_refinement(self, alpha):
        caputo_res = []
        rl_res = []
        for n in (32, 64, 128, 256):
            g = grid01(n)
            rep = F.check_composition(g, alpha, F.make_trajectory(g, g.nodes ** 2))
            caputo_res.append(rep.caputo_residual)
            rl_res.append(rep.rl_residual)
        assert all(a > b for a, b in zip(caputo_res, caputo_res[1:]))
        assert all(a > b for a, b in zip(rl_res, rl_res[1:]))

    def test_constant_input_zero_caputo_residual(self):
        g = grid01(32)
        rep = F.check_composition(g, 0.5, F.make_trajectory(g, np.full(g.n_nodes, 3.0)))
        assert rep.caputo_residual == 0.0

    def test_classical_order(self):
        g = grid01(64)
        rep = F.check_composition(g, 1.0, F.make_trajectory(g, g.nodes))
        assert rep.caputo_residual < 1e-13

    @pytest.mark.parametrize("masked", (0, 20))
    def test_partly_masked_trajectory_rejected(self, masked):
        # a masked node used to give a finite wrong rl_residual (node 0) or
        # NaN residuals (node 20)
        g = grid01(40)
        mask = np.ones(g.n_nodes, dtype=bool)
        mask[masked] = False
        x = F.make_trajectory(g, np.column_stack([g.nodes**2, g.nodes]), mask=mask)
        with pytest.raises(ValueError, match="fully defined trajectory"):
            F.check_composition(g, 0.5, x)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.01, 0.99), st.just(1.0)),
        n_sub=st.integers(2, 150),
        a=st.floats(-10.0, 10.0),
        length=st.floats(1e-2, 10.0),
        dim=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # the benchmark size, with an FFT length (6400) that is not a power of two
    @example(alpha=0.57, n_sub=3200, a=0.0, length=1.0, dim=2, seed=0)
    @example(alpha=1.0, n_sub=3200, a=-1.0, length=3.0, dim=1, seed=1)
    def test_structured_apply_matches_dense_product(self, alpha, n_sub, a, length, dim, seed):
        # check_composition and the solver apply the integral matrix by its
        # column 0 and Toeplitz symbol; the dense product is the oracle
        g = F.make_grid(a, a + length, n_sub)
        m = F.left_integral_matrix(g, alpha)
        ys = np.random.default_rng(seed).standard_normal((g.n_nodes, dim))
        out = _kernels.LowerToeplitz(m).apply(ys)
        tol = 1e-13 * np.max(np.sum(np.abs(m), axis=1)) * np.max(np.abs(ys))
        assert out.shape == ys.shape
        assert np.all(out[0] == 0.0)
        assert np.max(np.abs(out - m @ ys)) <= tol


def _derivative_values(op, g, alpha, xs):
    return op(g, alpha, F.make_trajectory(g, xs)).values[:, 0]


class TestOperatorProperties:
    @pytest.mark.parametrize("alpha", (0.3, 0.6, 1.0))
    def test_linearity(self, alpha):
        g = grid01(60)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(g.n_nodes)
            y = rng.standard_normal(g.n_nodes)
            c1, c2 = rng.standard_normal(2)
            for apply in (
                lambda v: F.left_integral_matrix(g, alpha) @ v,
                lambda v: _derivative_values(F.caputo_left, g, alpha, v),
                lambda v: _derivative_values(F.caputo_right, g, alpha, v),
            ):
                combined = apply(c1 * x + c2 * y)
                split = c1 * apply(x) + c2 * apply(y)
                scale = max(np.max(np.abs(combined)), 1.0)
                assert np.max(np.abs(combined - split)) < 1e-12 * scale

    def test_causality(self):
        g = grid01(40)
        rng = np.random.default_rng(3)
        base = rng.standard_normal(g.n_nodes)
        bumped = base.copy()
        bumped[25] += 1.0
        m = F.left_integral_matrix(g, 0.5)
        for apply, untouched in (
            (lambda v: m @ v, slice(None, 25)),  # nodes strictly left of the bump
            (lambda v: _derivative_values(F.caputo_left, g, 0.5, v), slice(None, 25)),
            (lambda v: _derivative_values(F.caputo_right, g, 0.5, v), slice(26, None)),
        ):
            delta = apply(bumped) - apply(base)
            assert np.max(np.abs(delta[untouched])) == 0.0

    def test_alpha_to_one_continuity_of_integral(self):
        g = grid01(50)
        x = np.cos(g.nodes)
        ref = F.left_integral_matrix(g, 1.0) @ x
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            y = F.left_integral_matrix(g, 1.0 - eps) @ x
            gaps.append(np.max(np.abs(y - ref)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-5


# ---------------------------------------------------------------------------
# the causal convolution: one near-field product on LEAF-node blocks plus FFT
# levels, at every size; N_PRESET (the preset grids) has two FFT levels,
# N_BLOCKED six

N_PRESET = 200
N_BLOCKED = 3000


def _direct_convolve(b, s):
    return np.column_stack([np.convolve(b, s[:, j])[: b.shape[0]] for j in range(s.shape[1])])


class TestBlockedConvolution:
    # bump positions on a leaf boundary, one past it, on the top power-of-two
    # boundary, and off every boundary
    BUMPS = (2 * _kernels.LEAF, 2 * _kernels.LEAF + 1, 2048, 2049, 1777)
    PRESET_BUMPS = (_kernels.LEAF, _kernels.LEAF + 1, 2 * _kernels.LEAF, 2 * _kernels.LEAF + 1, 177)

    @pytest.mark.parametrize(
        "n_sub, bump",
        [pytest.param(N_BLOCKED, bump, id=str(bump)) for bump in BUMPS]
        + [pytest.param(N_PRESET, bump, id=f"n{N_PRESET}-{bump}") for bump in PRESET_BUMPS],
    )
    def test_causality_bitwise(self, n_sub, bump):
        g = grid01(n_sub)
        rng = np.random.default_rng(bump)
        base = rng.standard_normal((g.n_nodes, 2))
        for pos, left_of_bump in ((bump, True), (g.n_sub - bump, False)):
            bumped = base.copy()
            bumped[pos] += 1.0
            untouched = slice(None, pos) if left_of_bump else slice(pos + 1, None)
            ops = (F.caputo_left, F.rl_left) if left_of_bump else (F.caputo_right, F.rl_right)
            for op in ops:
                before = op(g, 0.5, F.make_trajectory(g, base)).values[untouched]
                after = op(g, 0.5, F.make_trajectory(g, bumped)).values[untouched]
                assert before.tobytes() == after.tobytes(), op.__name__

    @pytest.mark.parametrize(
        "n_sub, alpha",
        [pytest.param(N_BLOCKED, alpha, id=str(alpha)) for alpha in (0.3, 0.7)]
        + [pytest.param(N_PRESET, alpha, id=f"n{N_PRESET}-{alpha}") for alpha in (0.3, 0.7)],
    )
    def test_constant_maps_to_exact_zero(self, n_sub, alpha):
        g = grid01(n_sub)
        x = F.make_trajectory(g, np.full((g.n_nodes, 2), 4.2))
        assert np.all(F.caputo_left(g, alpha, x).values == 0.0)
        assert np.all(F.caputo_right(g, alpha, x).values == 0.0)
        assert F.check_composition(g, alpha, x).caputo_residual == 0.0

    @pytest.mark.parametrize("n", (1, 2, 63, 64, 65, N_PRESET + 1, 3201))
    def test_zero_input_gives_positive_zeros(self, n):
        b = np.random.default_rng(n).standard_normal(n)
        for rows in (n, max(n - 1, 1)):
            out = _kernels.causal_convolve(b, np.zeros((rows, 2)), {})
            assert out.shape == (n, 2)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
    def test_matches_direct_branch(self, alpha, monkeypatch):
        # the direct sum, patched in for the convolution, is the oracle
        g = F.make_grid(-1.0, 2.0, 3200)
        t = g.nodes
        x = F.make_trajectory(g, np.column_stack([np.sin(3.0 * t), (t + 1.0) ** 2.5]))

        def run():
            ops = (F.caputo_left, F.caputo_right, F.rl_left, F.rl_right)
            return [op(g, alpha, x).values for op in ops]

        blocked = run()
        # drop the kept results, so the oracle computes every convolution
        _kernels._profile.cache_clear()
        monkeypatch.setattr(_kernels, "causal_convolve", lambda b, s, blocks: _direct_convolve(b, s))
        for got, ref in zip(blocked, run()):
            defined = np.isfinite(ref)
            assert np.array_equal(defined, np.isfinite(got))
            scale = np.max(np.abs(ref[defined]))
            assert np.max(np.abs(got[defined] - ref[defined])) <= 1e-13 * scale

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 300), st.sampled_from((63, 64, 65, 129, 2049, 3201, 4097))),
        short_input=st.booleans(),
        dim=st.integers(1, 3),
        zero_head=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_convolve(self, n, short_input, dim, zero_head, seed):
        # lengths below, on and around the leaf size and powers of two; the
        # input has n or n - 1 rows, as the two callers pass
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if zero_head:
            b[0] = 0.0
        s = rng.standard_normal((n - 1 if short_input else n, dim))
        got = _kernels.causal_convolve(b, s, {})
        tol = 1e-13 * np.sum(np.abs(b)) * np.max(np.abs(s))
        assert got.shape == (n, dim)
        assert np.max(np.abs(got - _direct_convolve(b, s))) <= tol

    def test_matches_direct_sum_at_every_small_size(self):
        # every n up to 300 and the sizes around leaf and power-of-two
        # boundaries, each with 1 to 3 components and n or n - 1 input rows
        rng = np.random.default_rng(17)
        for n in [*range(2, 301), 2049, 3201, 4097]:
            b = rng.standard_normal(n)
            for dim in (1, 2, 3):
                for rows in (n, n - 1):
                    s = rng.standard_normal((rows, dim))
                    got = _kernels.causal_convolve(b, s, {})
                    tol = 1e-13 * np.sum(np.abs(b)) * np.max(np.abs(s))
                    assert np.max(np.abs(got - _direct_convolve(b, s))) <= tol, (n, dim, rows)

    def test_repeat_calls_bit_identical(self):
        # the first call builds the weight profile and its convolution
        # blocks, the second reuses them; both must give the same bits
        for n_sub in (N_PRESET, 3200):
            g = grid01(n_sub)
            x = F.make_trajectory(g, np.column_stack([g.nodes**2, np.cos(g.nodes)]))

            def run():
                # drop the kept results: the convolutions run again on the kept blocks
                l1 = _kernels._profile(g.n_nodes, g.h, 1.0 - 0.6, math.gamma(2.0 - 0.6))
                l1[1].pop("results", None)
                rep = F.check_composition(g, 0.6, x)
                d = F.rl_right(g, 0.6, x).values
                return rep.caputo_residual.hex(), rep.rl_residual.hex(), [v.hex() for v in d.ravel()]

            _kernels._profile.cache_clear()
            assert run() == run()


class TestWeightProfileMemo:
    def test_read_only_and_shared(self):
        w = _kernels.weight_profile(50, 0.02, 0.5, math.gamma(1.5))
        assert not w.flags.writeable
        assert _kernels.weight_profile(50, 0.02, 0.5, math.gamma(1.5)) is w
        with pytest.raises(ValueError):
            w[1] = 0.0

    def test_kept_results_are_keyed_by_shape(self):
        # equal bytes in another shape are another input
        args, s = (5, 0.25, 0.5, math.gamma(1.5)), np.arange(1.0, 9.0)
        assert _kernels.profile_convolve(*args, s.reshape(4, 2)).shape == (5, 2)
        assert _kernels.profile_convolve(*args, s.reshape(2, 4)).shape == (5, 4)

    def test_rl_correction_leaves_the_kept_convolution(self):
        # the RL derivative reads the convolution the Caputo one keeps
        g = grid01(N_PRESET)
        x = F.make_trajectory(g, np.column_stack([g.nodes**2, np.sin(g.nodes)]))
        _kernels._profile.cache_clear()
        caputo = F.caputo_left(g, 0.4, x).values.tobytes()
        F.rl_left(g, 0.4, x)
        assert F.caputo_left(g, 0.4, x).values.tobytes() == caputo

    def test_one_build_per_order_and_grid(self):
        # every operator at one order on one grid shares two profiles: the
        # L1 profile (1 - alpha) and the integral profile (alpha)
        g = grid01(200)
        x = F.make_trajectory(g, np.column_stack([g.nodes**2, np.sin(g.nodes)]))
        _kernels._profile.cache_clear()
        for op in (F.caputo_left, F.caputo_right, F.rl_left, F.rl_right):
            op(g, 0.4, x)
        F.check_composition(g, 0.4, x)
        F.right_integral_matrix(g, 0.4)
        assert _kernels._profile.cache_info().misses == 2


# ---------------------------------------------------------------------------
# the one Toeplitz fill of the weight matrices and its reader


def _integral_rows(n, h, alpha, ga1):
    """Per-row reference build of ``_kernels.integral_weights``."""
    w = _kernels.weight_profile(n, h, alpha, ga1)
    v = np.zeros(n)
    v[1 : n - 1] = (w[2:] + w[1 : n - 1]) * 0.5
    out = np.zeros((n, n))
    half_w1 = (0.0 + w[1]) * 0.5
    for k in range(1, n):
        out[k, 1:k] = v[1:k][::-1]
        out[k, 0] = (w[k] + 0.0) * 0.5
        out[k, k] = half_w1
    return out


def _l1_rows(n, h, alpha, g2):
    """Per-row reference build of ``_kernels.l1_weights``."""
    b = _kernels.weight_profile(n, h, 1.0 - alpha, g2)
    u = np.zeros(n)
    u[1 : n - 1] = (b[2:n] - b[1 : n - 1]) / h
    out = np.zeros((n, n))
    diag = (b[1] - 0.0) / h
    for k in range(1, n):
        out[k, 1:k] = u[1:k][::-1]
        out[k, 0] = (0.0 - b[k]) / h
        out[k, k] = diag
    return out


class TestToeplitzFill:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 400),
        h=st.floats(1e-3, 10.0),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
    )
    # the benchmark size: 3201 rows are 50 full LEAF blocks and one of 1 row
    @example(n=3201, h=1.0 / 3200, alpha=0.57)
    # the last serial size and the first two-thread sizes: 1600, 1601 and
    # 1666 rows are 25, 26 and 27 blocks, so the two threads meet after an
    # even and an odd count (3201 rows are 51)
    @example(n=_kernels._TWO_THREAD_ROWS - 1, h=0.37, alpha=0.25)
    @example(n=_kernels._TWO_THREAD_ROWS, h=1.0 / 1600, alpha=0.5)
    @example(n=_kernels._TWO_THREAD_ROWS + _kernels.LEAF + 1, h=2.0, alpha=0.9)
    def test_fills_match_row_reference_bitwise(self, n, h, alpha):
        ga1 = math.gamma(alpha + 1.0)
        assert _kernels.integral_weights(n, h, alpha, ga1).tobytes() == (
            _integral_rows(n, h, alpha, ga1).tobytes()
        )
        if alpha < 1.0:
            g2 = math.gamma(2.0 - alpha)
            assert _kernels.l1_weights(n, h, alpha, g2).tobytes() == (
                _l1_rows(n, h, alpha, g2).tobytes()
            )

    @pytest.mark.parametrize(
        "n", (_kernels._TWO_THREAD_ROWS - 1, _kernels._TWO_THREAD_ROWS, 3201)
    )
    def test_fill_copies_each_block_once_from_both_ends(self, n, monkeypatch):
        # the caller takes 0, 1, ... and the helper (if it runs) the rest from
        # the last block down; below the two-thread size the caller takes all
        copies = []
        copy = _kernels._copy_block

        def recorded(out, windows, b):
            copies.append((threading.current_thread() is threading.main_thread(), b))
            copy(out, windows, b)

        monkeypatch.setattr(_kernels, "_copy_block", recorded)
        _kernels._lower_toeplitz(np.ones(n), np.ones(n - 1))
        blocks = -(-n // _kernels.LEAF)
        top = [b for by_caller, b in copies if by_caller]
        bottom = [b for by_caller, b in copies if not by_caller]
        assert top == list(range(len(top)))
        assert bottom == list(range(blocks - 1, len(top) - 1, -1))
        if n < _kernels._TWO_THREAD_ROWS:
            assert not bottom

    def test_fill_leaves_the_threads_as_it_found_them(self):
        before = threading.enumerate()
        n = _kernels._TWO_THREAD_ROWS
        _kernels.integral_weights(n, 1.0 / (n - 1), 0.5, math.gamma(1.5))
        assert threading.enumerate() == before

    def test_helper_failure_propagates_and_leaves_no_thread(self, monkeypatch):
        # the caller waits in its first block until the helper's first block
        # has failed, so the failure happens whatever the scheduling
        copy = _kernels._copy_block
        failed = threading.Event()

        def failing(out, windows, b):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(timeout=30)
                copy(out, windows, b)
            else:
                failed.set()
                raise RuntimeError(f"injected into block {b}")

        monkeypatch.setattr(_kernels, "_copy_block", failing)
        before = threading.enumerate()
        n = 3201
        last = -(-n // _kernels.LEAF) - 1
        with pytest.raises(RuntimeError, match=f"injected into block {last}$"):
            _kernels.integral_weights(n, 1.0 / (n - 1), 0.5, math.gamma(1.5))
        assert threading.enumerate() == before

    @pytest.mark.parametrize("n", (3, 4, 17, 200))
    def test_parts_invert_the_fill(self, n):
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n)
        s = rng.standard_normal(n - 1)
        m = _kernels._lower_toeplitz(c, s)
        assert np.all(np.triu(m, 1) == 0.0)
        assert np.array_equal(np.diag(m)[1:], np.full(n - 1, s[0]))
        parts = _kernels.LowerToeplitz(m)
        assert parts.column0.tobytes() == c.tobytes()
        assert parts.symbol.tobytes() == s.tobytes()
        assert not np.shares_memory(parts.column0, m) and not np.shares_memory(parts.symbol, m)

    def test_fft_length_is_the_least_5_smooth_bound(self):
        # brute force: every 2^i 3^j 5^k up to 5000 = 2^3 5^4
        smooth = [
            2**i * 3**j * 5**k
            for i in range(13)
            for j in range(8)
            for k in range(6)
            if 2**i * 3**j * 5**k <= 5000
        ]
        for n in range(1, 5001):
            assert _kernels._fft_length(n) == min(m for m in smooth if m >= n), n
        assert _kernels._fft_length(2 * 3200 - 1) == 6400

    @pytest.mark.parametrize("n_sub", (2, 3, 63, 64, 200, 3200))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_dimensional_apply_is_columnwise(self, n_sub, alpha):
        # the solver applies one column, check_composition several at once;
        # both give the same bits, and zero input gives +0.0
        g = F.make_grid(-1.0, 2.0, n_sub)
        apply = _kernels.LowerToeplitz(F.left_integral_matrix(g, alpha)).apply
        ys = np.random.default_rng(n_sub).standard_normal((g.n_nodes, 3))
        out = apply(ys)
        assert out.shape == ys.shape
        for j in range(3):
            assert out[:, j].tobytes() == apply(ys[:, j]).tobytes()
        zeros = apply(np.zeros((g.n_nodes, 2)))
        assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))


# ---------------------------------------------------------------------------
# undefined input nodes: a derivative node is defined only if every node its
# stencil reads is defined


@settings(max_examples=80, deadline=None)
@given(
    op=st.sampled_from((F.caputo_left, F.caputo_right, F.rl_left, F.rl_right)),
    n_sub=st.one_of(
        st.integers(2, 60),
        st.integers(_kernels.LEAF - 3, 1800),
    ),
    alpha=st.one_of(st.just(1.0), st.floats(0.05, 0.95)),
    where=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_masked_node_masks_exactly_the_nodes_that_read_it(op, n_sub, alpha, where, seed):
    # oracle: node k reads node j iff its value changes, bit for bit, when
    # x_j does; the masked node itself stays masked
    g = F.make_grid(-1.0, 2.0, n_sub)
    j = round(where * n_sub)
    vals = np.random.default_rng(seed).standard_normal((g.n_nodes, 2))
    base = op(g, alpha, F.make_trajectory(g, vals))
    bumped_vals = vals.copy()
    bumped_vals[j] += 1.0
    bumped = op(g, alpha, F.make_trajectory(g, bumped_vals))
    reads_j = np.any(base.values != bumped.values, axis=1)
    mask = np.ones(g.n_nodes, dtype=bool)
    mask[j] = False
    got = op(g, alpha, F.make_trajectory(g, vals, mask=mask))
    expected = base.mask & ~reads_j
    expected[j] = False
    assert np.array_equal(got.mask, expected)
    assert got.values[expected].tobytes() == base.values[expected].tobytes()
