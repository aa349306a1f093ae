"""Tests for Lagrangian evaluation, actions, EL residuals, and the extension."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnoether import fracops as F
from fracnoether import lagrangian as Lmod
from fracnoether import presets as PR

from common import count_left_applies, quadratic_lagrangian

# classical BVP x'' = x, x(0)=1, x(1)=2: x = C1 e^t + C2 e^{-t}
C1 = 0.6944004854896559
C2 = 0.3055995145103441


def classical_solution(nodes):
    return C1 * np.exp(nodes) + C2 * np.exp(-nodes)


class TestMakeLagrangian:
    def test_finite_difference_fallback_partials(self):
        L = Lmod.make_lagrangian(
            2,
            eval=lambda t, x, v: np.sin(t) * x[..., 0] * x[..., 1] + 0.5 * np.vecdot(v, v),
        )
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = rng.uniform(0.0, 2.0)
            x = rng.standard_normal(2)
            v = rng.standard_normal(2)
            ref_t = math.cos(t) * x[0] * x[1]
            ref_x = np.array([math.sin(t) * x[1], math.sin(t) * x[0]])
            scale = max(1.0, abs(ref_t))
            assert abs(L.d_t(t, x, v) - ref_t) < 1e-5 * scale
            assert np.allclose(L.d_x(t, x, v), ref_x, atol=1e-5, rtol=1e-5)
            assert np.allclose(L.d_v(t, x, v), v, atol=1e-5, rtol=1e-5)

    def test_supplied_partials_consistent_with_eval(self):
        # the analytic partials handed to the presets must match finite
        # differences of eval — guards sign slips in hand-written gradients
        L = quadratic_lagrangian()
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = rng.uniform(0.0, 1.0)
            x = rng.standard_normal(2)
            v = rng.standard_normal(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1e-6
                fd = (L.eval(t, x + e, v) - L.eval(t, x - e, v)) / 2e-6
                assert abs(L.d_x(t, x, v)[i] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            Lmod.make_lagrangian(0, eval=lambda t, x, v: 0.0)


class TestAction:
    def test_zero_trajectory(self):
        g = F.make_grid(0.0, 1.0, 50)
        L = quadratic_lagrangian()
        x = F.make_trajectory(g, np.zeros((g.n_nodes, 2)))
        assert Lmod.action(L, x, 0.5) == 0.0

    def test_constant_trajectory_alpha_one(self):
        g = F.make_grid(0.0, 1.0, 50)
        L = quadratic_lagrangian()
        x = F.make_trajectory(g, np.tile([1.0, 0.0], (g.n_nodes, 1)))
        assert Lmod.action(L, x, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_velocity_lagrangian_converges_to_analytic_value(self):
        # action of L = v along x = t at alpha = 1/2 is
        # int_0^1 t^{1/2}/Gamma(3/2) dt = 2/(3 Gamma(3/2))
        target = 0.7522527780636750
        L = Lmod.make_lagrangian(
            1,
            eval=lambda t, x, v: v[..., 0],
            d_t=lambda t, x, v: 0.0,
            d_x=lambda t, x, v: np.zeros_like(x),
            d_v=lambda t, x, v: np.ones_like(v),
        )
        errs = []
        for n in (64, 128, 256):
            g = F.make_grid(0.0, 1.0, n)
            errs.append(abs(Lmod.action(L, F.make_trajectory(g, g.nodes), 0.5) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-3

    def test_nonfinite_integrand_names_node(self):
        g = F.make_grid(0.0, 1.0, 10)
        L = Lmod.make_lagrangian(
            1,
            eval=lambda t, x, v: 1.0 / (x[..., 0] - 0.5),
            d_t=lambda t, x, v: 0.0,
            d_x=lambda t, x, v: np.zeros_like(x),
            d_v=lambda t, x, v: np.zeros_like(v),
        )
        x = F.make_trajectory(g, g.nodes)  # hits x = 0.5 at node 5
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="node 5"):
                Lmod.action(L, x, 1.0)

    def test_dim_mismatch(self):
        g = F.make_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            Lmod.action(quadratic_lagrangian(2), F.make_trajectory(g, g.nodes), 0.5)


class TestElResidual:
    def test_quadratic_matches_operator_composition(self):
        # residual = D_right(caputo x) + x, assembled from the same operators
        g = F.make_grid(0.0, 1.0, 100)
        rng = np.random.default_rng(5)
        xv = rng.standard_normal((g.n_nodes, 2))
        x = F.make_trajectory(g, xv)
        r = Lmod.el_residual(quadratic_lagrangian(), x, 0.6)
        direct = F.rl_right(g, 0.6, F.caputo_left(g, 0.6, x))
        assert np.array_equal(r.values[:-1], direct.values[:-1] + xv[:-1])
        assert not r.mask[-1]

    def test_zero_trajectory_zero_residual(self):
        g = F.make_grid(0.0, 1.0, 60)
        x = F.make_trajectory(g, np.zeros((g.n_nodes, 2)))
        r = Lmod.el_residual(quadratic_lagrangian(), x, 0.6)
        assert np.all(r.values[r.mask] == 0.0)

    def test_classical_solution_small_interior_residual(self):
        g = F.make_grid(0.0, 1.0, 200)
        x = F.make_trajectory(g, classical_solution(g.nodes))
        r = Lmod.el_residual(quadratic_lagrangian(1), x, 1.0)
        assert np.max(np.abs(r.values[1:-1, 0])) < 1e-3

    def test_translation_equivariance_autonomous(self):
        # same sampled values on a shifted grid give identical residuals
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(101)
        g0 = F.make_grid(0.0, 1.0, 100)
        g1 = F.make_grid(2.5, 3.5, 100)
        L = quadratic_lagrangian(1)
        r0 = Lmod.el_residual(L, F.make_trajectory(g0, vals), 0.7)
        r1 = Lmod.el_residual(L, F.make_trajectory(g1, vals), 0.7)
        assert np.array_equal(r0.values[:-1], r1.values[:-1])


class TestExtend:
    def setup_method(self):
        self.L = quadratic_lagrangian()
        self.E = Lmod.extend(self.L, 0.6)
        self.t = 0.3
        self.x = np.array([1.0, -2.0])
        self.v = np.array([0.5, 2.0])

    def test_restriction_to_unit_w_is_identity(self):
        assert self.E.eval(0.0, self.t, self.x, 1.0, self.v) == self.L.eval(
            self.t, self.x, self.v
        )
        np.testing.assert_array_equal(
            self.E.d_v(0.0, self.t, self.x, 1.0, self.v),
            np.asarray(self.L.d_v(self.t, self.x, self.v)),
        )

    def test_d_w_on_unit_slice(self):
        got = self.E.d_w(0.0, self.t, self.x, 1.0, self.v)
        want = self.L.eval(self.t, self.x, self.v) - 0.6 * np.dot(
            self.v, self.L.d_v(self.t, self.x, self.v)
        )
        assert got == pytest.approx(want, abs=1e-14)

    def test_alpha_one_is_jost_extension(self):
        E1 = Lmod.extend(self.L, 1.0)
        w = 1.7
        want = self.L.eval(self.t, self.x, self.v / w) * w
        assert E1.eval(0.0, self.t, self.x, w, self.v) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("w", (0.5, 1.0, 2.0))
    def test_partials_match_finite_differences(self, w):
        E, t, x, v = self.E, self.t, self.x, self.v
        step = 1e-6
        fd_t = (E.eval(0.0, t + step, x, w, v) - E.eval(0.0, t - step, x, w, v)) / (2 * step)
        assert abs(E.d_t(0.0, t, x, w, v) - fd_t) < 1e-5
        fd_w = (E.eval(0.0, t, x, w + step, v) - E.eval(0.0, t, x, w - step, v)) / (2 * step)
        assert abs(E.d_w(0.0, t, x, w, v) - fd_w) < 1e-5 * max(1.0, abs(fd_w))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd_v = (E.eval(0.0, t, x, w, v + e) - E.eval(0.0, t, x, w, v - e)) / (2 * step)
            assert abs(E.d_v(0.0, t, x, w, v)[i] - fd_v) < 1e-5 * max(1.0, abs(fd_v))
            fd_x = (E.eval(0.0, t, x + e, w, v) - E.eval(0.0, t, x - e, w, v)) / (2 * step)
            assert abs(E.d_x(0.0, t, x, w, v)[i] - fd_x) < 1e-5 * max(1.0, abs(fd_x))

    @pytest.mark.parametrize("w", (0.0, -1.0))
    def test_nonpositive_w_rejected(self, w):
        with pytest.raises(ValueError):
            self.E.eval(0.0, self.t, self.x, w, self.v)
        with pytest.raises(ValueError):
            self.E.d_w(0.0, self.t, self.x, w, self.v)


class TestExtendedElResidual:
    def test_first_residual_matches_el_residual_bitwise(self):
        g = F.make_grid(0.0, 1.0, 80)
        rng = np.random.default_rng(13)
        x = F.make_trajectory(g, rng.standard_normal((g.n_nodes, 2)))
        L = quadratic_lagrangian()
        ra, _ = Lmod.extended_el_residual(Lmod.extend(L, 0.6), x)
        r = Lmod.el_residual(L, x, 0.6)
        assert np.array_equal(ra.values, r.values, equal_nan=True)
        assert np.array_equal(ra.mask, r.mask)

    def test_left_derivative_of_x_taken_once(self, monkeypatch):
        # both residuals read the same D_a+ x
        calls = count_left_applies(monkeypatch)
        g = F.make_grid(0.0, 1.0, 40)
        x = F.make_trajectory(g, np.stack([np.sin(g.nodes), g.nodes**2], axis=1))
        Lmod.extended_el_residual(Lmod.extend(quadratic_lagrangian(), 0.6), x)
        assert len(calls) == 1 and calls[0] is x

    def test_autonomous_reduction(self):
        # for autonomous L the second residual is -d/dtau(L - alpha v.p)
        g = F.make_grid(0.0, 1.0, 80)
        rng = np.random.default_rng(17)
        x = F.make_trajectory(g, rng.standard_normal((g.n_nodes, 2)))
        L = quadratic_lagrangian()
        alpha = 0.6
        _, rb = Lmod.extended_el_residual(Lmod.extend(L, alpha), x)
        v = F.caputo_left(g, alpha, x)
        lvals = 0.5 * (np.sum(x.values**2, axis=1) + np.sum(v.values**2, axis=1))
        inner = lvals - alpha * np.sum(v.values**2, axis=1)
        ref = -np.gradient(inner, g.h, edge_order=2)
        assert np.max(np.abs(rb.values - ref)) < 1e-11

    def test_alpha_factor_flag(self):
        g = F.make_grid(0.0, 1.0, 80)
        rng = np.random.default_rng(19)
        x = F.make_trajectory(g, rng.standard_normal((g.n_nodes, 2)))
        E = Lmod.extend(quadratic_lagrangian(), 0.6)
        _, with_a = Lmod.extended_el_residual(E, x, alpha_factor=True)
        _, without_a = Lmod.extended_el_residual(E, x, alpha_factor=False)
        assert np.max(np.abs(with_a.values - without_a.values)) > 1e-3

    def test_second_residual_vanishes_on_classical_solution(self):
        sups = []
        L = quadratic_lagrangian(1)
        for n in (100, 200, 400):
            g = F.make_grid(0.0, 1.0, n)
            x = F.make_trajectory(g, classical_solution(g.nodes))
            _, rb = Lmod.extended_el_residual(Lmod.extend(L, 1.0), x)
            sups.append(np.max(np.abs(rb.values)))
        assert sups[0] > sups[1] > sups[2]
        assert sups[-1] < 5e-3


class TestSecondElQuantity:
    def test_quadratic_closed_form(self):
        g = F.make_grid(0.0, 1.0, 100)
        rng = np.random.default_rng(23)
        xv = rng.standard_normal((g.n_nodes, 2))
        x = F.make_trajectory(g, xv)
        q = Lmod.second_el_quantity(quadratic_lagrangian(), x, 0.6)
        v = F.caputo_left(g, 0.6, x)
        ref = 0.5 * (np.sum(xv**2, axis=1) - np.sum(v.values**2, axis=1))
        assert np.max(np.abs(q.values - ref)) < 1e-12

    def test_constant_trajectory(self):
        g = F.make_grid(0.0, 1.0, 50)
        x = F.make_trajectory(g, np.tile([1.0, 0.0], (g.n_nodes, 1)))
        q = Lmod.second_el_quantity(quadratic_lagrangian(), x, 0.4)
        assert np.max(np.abs(q.values - 0.5)) < 1e-14

    def test_constant_along_classical_solution(self):
        g = F.make_grid(0.0, 1.0, 200)
        x = F.make_trajectory(g, classical_solution(g.nodes))
        q = Lmod.second_el_quantity(quadratic_lagrangian(1), x, 1.0)
        drift = (q.values.max() - q.values.min()) / abs(q.values.mean())
        assert drift < 1e-3


class TestAlong:
    @pytest.mark.parametrize(
        "name, call",
        [
            ("action", lambda L, x: Lmod.action(L, x, 0.5)),
            (
                "action",
                lambda L, x: Lmod.action(
                    Lmod.make_lagrangian(2, eval=lambda t, x, v: 1.0), x, 0.5
                ),
            ),
            ("el_residual", lambda L, x: Lmod.el_residual(L, x, 0.5)),
            ("second_el_quantity", lambda L, x: Lmod.second_el_quantity(L, x, 0.5)),
            (
                "extended_el_residual",
                lambda L, x: Lmod.extended_el_residual(Lmod.extend(L, 0.5), x),
            ),
        ],
        ids=["action", "action-0d", "el_residual", "second", "extended"],
    )
    def test_masked_trajectory_raises_before_any_apply(self, name, call, monkeypatch):
        # a masked row reads as 0 in D_a+, which corrupts every later node
        # that still looks defined; refuse it up front
        calls = count_left_applies(monkeypatch)
        g = F.make_grid(0.0, 1.0, 20)
        x = F.make_trajectory(
            g,
            np.stack([1.0 + g.nodes, g.nodes**2], axis=1),
            mask=np.arange(g.n_nodes) != 3,
        )
        with pytest.raises(
            ValueError, match=f"^{name} requires a fully defined trajectory$"
        ):
            call(PR.kappa_lagrangian(-1.0, dim=2), x)
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
        n_sub=st.integers(4, 2000),
        dim=st.integers(1, 3),
        a=st.floats(-3.0, 3.0),
        length=st.floats(0.1, 5.0),
        convention=st.sampled_from(["caputo", "rl"]),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_zero_series_skip_matches_operator(
        self, alpha, n_sub, dim, a, length, convention, zero
    ):
        # n_sub spans grids inside one near-field block and grids with FFT levels
        g = F.make_grid(a, a + length, n_sub)
        x = F.make_trajectory(g, np.cos(np.outer(g.nodes, np.arange(1, dim + 1))))
        along = Lmod._along(PR.kappa_lagrangian(-1.0, dim=dim), x, alpha, "test", convention)
        zeros = np.full((g.n_nodes, dim), zero)
        got = along.left(zeros)
        ref = Lmod._LEFT_OPS[convention](g, along.o, F.make_trajectory(g, zeros))
        assert np.array_equal(got, ref.values, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref.values))
        assert np.array_equal(~np.isnan(got).any(axis=1), ref.mask)


class TestQuantitySeries:
    def test_auto_mask_nonfinite(self):
        g = F.make_grid(0.0, 1.0, 4)
        s = Lmod.make_series(g, [1.0, 2.0, np.nan, 3.0, np.inf])
        assert list(s.mask) == [True, True, False, True, False]
        assert np.array_equal(s.defined_values(), [1.0, 2.0, 3.0])

    def test_explicit_mask_rejects_hidden_nonfinite(self):
        g = F.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="node 2"):
            Lmod.make_series(g, [1.0, 2.0, np.nan, 3.0, 4.0], mask=np.ones(5, bool))

    def test_length_enforced(self):
        g = F.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Lmod.make_series(g, [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(4,), (5, 1)], ids=["short", "2d"])
    def test_mask_shape_enforced(self, shape):
        g = F.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="mask shape mismatch"):
            Lmod.make_series(g, np.zeros(5), mask=np.ones(shape, dtype=bool))
