"""Tests for conserved-quantity assembly, drift statistics, and the
invariance/conservation residual series."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracnoether.fracops as F
from fracnoether import _kernels
import fracnoether.lagrangian as LG
import fracnoether.noether as NO
import fracnoether.presets as PR
import fracnoether.solver as SV
import fracnoether.symmetry as SY
from fracnoether import cli

from common import solve_oscillator, solve_quadratic

# Frozen drift values for the quadratic two-component problem with
# Dirichlet data (1,2) -> (2,1) on [0,1].  Regenerate by evaluating
# noether_quantity(time_translation) on solver output at the stated N.
TRANSLATION_DRIFT_CLASSICAL = {
    100: 5.9592344583036924e-05,
    200: 1.5179107262184425e-05,
    400: 3.830679866686757e-06,
}
TRANSLATION_DRIFT_FRACTIONAL = {0.8: 1.0306520055984232, 0.5: 1.350491811187145}

# second-form quantity L - v . dL/dv along the same solutions at N = 200
Q_DRIFT = {1.0: 1.609493954925347e-05, 0.5: 3.798666816762158}

# oscillator quantity drift, keyed (omega, alpha), at N = 100/200/400
OSCILLATOR_DRIFT = {
    (0.5, 0.7): [1.5070967330265692, 1.4734487308925028, 1.4455359695988972],
    (0.5, 0.9): [1.5260221293451353, 1.5218549374200048, 1.5143421776207253],
    (1.0, 0.7): [1.516120462635995, 1.5018733538358267, 1.4844544521484797],
    (1.0, 0.9): [1.4494359052086396, 1.3324023880117302, 1.2584777896421973],
}

# sup of the transfer-theorem residual for time translation; the
# classical case converges, the fractional case is endpoint-dominated
WEAK_SUP_CLASSICAL = {
    100: 0.008215190482296464,
    200: 0.004117893933766936,
    400: 0.002061470006651689,
}
WEAK_SUP_HALF_200 = 919.1959717707813

# unweighted infinitesimal-criterion sup for the homogeneous Lagrangian
# under the dilation that is an exact symmetry of the weighted form
UNWEIGHTED_CRITERION_SUP = {0.5: 0.9898054216779886, 0.75: 0.3306170864600293}


def series_of(values, mask=None):
    values = np.asarray(values, dtype=float)
    grid = F.make_grid(0.0, 1.0, values.shape[0] - 1)
    return LG.make_series(grid, values, mask=mask)


def assert_same_series(q, ref):
    assert np.array_equal(q.values, ref.values, equal_nan=True)
    assert np.array_equal(q.mask, ref.mask)


class TestDrift:
    def test_constant_series(self):
        report = NO.drift(series_of([5.0, 5.0, 5.0]))
        assert report.relative_drift == 0.0
        assert report.min == report.max == report.mean == 5.0

    def test_ramp_series(self):
        report = NO.drift(series_of([0.0, 0.5, 1.0]))
        assert report.min == 0.0
        assert report.max == 1.0
        assert report.mean == 0.5
        assert report.relative_drift == 2.0

    def test_zero_mean_uses_floor(self):
        report = NO.drift(series_of([-1.0, 0.0, 1.0]))
        assert report.relative_drift == 2.0 / 1e-12

    def test_statistics_are_ordered(self):
        rng = np.random.default_rng(3)
        report = NO.drift(series_of(rng.normal(size=33)))
        assert report.min <= report.mean <= report.max
        assert report.relative_drift >= 0.0

    def test_masked_nodes_ignored(self):
        mask = np.array([True, False, True])
        values = np.array([2.0, np.nan, 2.0])
        report = NO.drift(series_of(values, mask=mask))
        assert report.relative_drift == 0.0
        assert report.mean == 2.0

    def test_too_few_defined_nodes(self):
        mask = np.array([True, False, False])
        values = np.array([1.0, np.nan, np.nan])
        with pytest.raises(ValueError, match="defined nodes"):
            NO.drift(series_of(values, mask=mask))

    def test_report_carries_series(self):
        s = series_of([1.0, 2.0, 3.0])
        assert NO.drift(s).series is s


class TestNoetherQuantity:
    def test_initial_node_is_boundary_term(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(64, 0.5)
        q = NO.noether_quantity(L, SY.time_translation(), x, 0.5)
        dxa = F.caputo_left(x.grid, F.FractionalOrder(0.5), x).values
        l0 = L.eval(x.grid.nodes[0], x.values[0], dxa[0])
        assert q.values[0] == l0

    def test_dilation_boundary_term_vanishes(self):
        # zeta(t) = c t is zero at a = 0, so the series starts at 0
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(64, 1.0)
        q = NO.noether_quantity(L, SY.dilation(0.5), x, 1.0)
        assert q.values[0] == 0.0

    def test_translation_equals_autonomous(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        for alpha in (1.0, 0.5):
            x = solve_quadratic(80, alpha)
            q_tr = NO.noether_quantity(L, SY.time_translation(), x, alpha)
            q_au = NO.autonomous_quantity(L, x, alpha)
            assert np.array_equal(q_tr.values, q_au.values, equal_nan=True)
            assert np.array_equal(q_tr.mask, q_au.mask)

    def test_space_only_group_drops_zeta_terms(self):
        # with zeta = 0 the quantity reduces to the cumulative integral
        # of p . D[xi] - D_right[p] . xi, assembled here independently
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(100, 0.7)
        o = F.FractionalOrder(0.7)
        q = NO.noether_quantity(L, SY.space_rotation(), x, 0.7)

        grid = x.grid
        dxa = F.caputo_left(grid, o, x).values
        p = np.array(
            [
                np.asarray(L.d_v(t, xv, vv), dtype=float)
                for t, xv, vv in zip(grid.nodes, x.values, dxa)
            ]
        )
        xi = np.column_stack([-x.values[:, 1], x.values[:, 0]])
        dxi = F.caputo_left(grid, o, F.make_trajectory(grid, xi)).values
        dbp = F.rl_right(grid, o, F.make_trajectory(grid, p)).values
        integrand = np.sum(p * dxi, axis=1) - np.sum(dbp * xi, axis=1)
        fmask = np.isfinite(integrand)
        reference = NO._cumtrapz_masked(integrand, fmask, grid.h)

        assert q.values[0] == 0.0
        assert np.max(np.abs(q.values[q.mask] - reference[q.mask])) < 1e-14

    def test_variants_differ_by_el_residual(self):
        # the two forms differ exactly by the cumulative integral of the
        # Euler-Lagrange residual contracted with xdot zeta - xi
        L = PR.kappa_lagrangian(-1.0, dim=2)
        for alpha in (1.0, 0.5):
            x = solve_quadratic(200, alpha)
            qa = NO.noether_quantity(L, SY.time_translation(), x, alpha)
            qb = NO.noether_quantity(
                L, SY.time_translation(), x, alpha, variant="conslaw2"
            )
            residual = LG.el_residual(L, x, alpha).values
            xdot = np.gradient(x.values, x.grid.h, axis=0, edge_order=2)
            integrand = np.sum(residual * xdot, axis=1)
            fmask = np.isfinite(integrand)
            predicted = NO._cumtrapz_masked(integrand, fmask, x.grid.h)
            both = qa.mask & qb.mask
            gap = qa.values[both] - qb.values[both]
            assert np.max(np.abs(gap - predicted[both])) < 1e-12

    def test_masks_by_variant_and_convention(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(64, 0.5)
        g = SY.time_translation()
        q = NO.noether_quantity(L, g, x, 0.5)
        assert q.mask[0] and not q.mask[-1] and np.all(q.mask[1:-1])
        q2 = NO.noether_quantity(L, g, x, 0.5, variant="conslaw2")
        assert np.all(q2.mask)
        q_rl = NO.noether_quantity(L, g, x, 0.5, convention="rl")
        assert not q_rl.mask[0] and not q_rl.mask[-1] and np.all(q_rl.mask[1:-1])
        x1 = solve_quadratic(64, 1.0)
        q1 = NO.noether_quantity(L, g, x1, 1.0)
        assert np.all(q1.mask)

    def test_context_names_conventions(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(32, 0.5)
        q = NO.noether_quantity(L, SY.time_translation(), x, 0.5)
        assert "caputo" in q.context and "rl" in q.context
        q_rl = NO.noether_quantity(
            L, SY.time_translation(), x, 0.5, convention="rl"
        )
        assert "D_a+ = rl" in q_rl.context

    def test_classical_drift_decreases(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        drifts = []
        for n_sub, frozen in TRANSLATION_DRIFT_CLASSICAL.items():
            x = solve_quadratic(n_sub, 1.0)
            q = NO.noether_quantity(L, SY.time_translation(), x, 1.0)
            d = NO.drift(q).relative_drift
            assert np.isclose(d, frozen, rtol=5e-3)
            drifts.append(d)
        assert drifts[0] > drifts[1] > drifts[2]

    def test_fractional_drift_is_large(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        for alpha, frozen in TRANSLATION_DRIFT_FRACTIONAL.items():
            x = solve_quadratic(200, alpha)
            q = NO.noether_quantity(L, SY.time_translation(), x, alpha)
            d = NO.drift(q).relative_drift
            assert np.isclose(d, frozen, rtol=5e-3)
            assert d > 100 * TRANSLATION_DRIFT_CLASSICAL[200]

    def test_repeat_calls_bit_identical(self):
        # at N = 3200 the derivatives take the blocked FFT convolution; the
        # first call builds the weight profile and its per-level kernels, the
        # second reuses them, and both must give the same bits
        grid = F.make_grid(0.0, 1.0, 3200)
        exact = SV.classical_reference(0.0, 1.0, [1.0, 2.0], [2.0, 1.0])(grid.nodes)
        x = F.make_trajectory(grid, exact)
        L = PR.kappa_lagrangian(-1.0, dim=2)

        def run():
            q = NO.noether_quantity(L, SY.time_translation(), x, 0.5)
            return [v.hex() for v in q.values[q.mask]], q.mask.tolist()

        _kernels._profile.cache_clear()
        assert run() == run()

    def test_validation(self, monkeypatch):
        # every bad argument raises before any fractional apply
        calls = []

        def counting(op):
            def counted(grid, o, y):
                calls.append(y)
                return op(grid, o, y)

            return counted

        for name, op in list(LG._LEFT_OPS.items()):
            monkeypatch.setitem(LG._LEFT_OPS, name, counting(op))
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(32, 0.5)
        g = SY.time_translation()
        with pytest.raises(ValueError, match="dim"):
            NO.noether_quantity(PR.kappa_lagrangian(-1.0, dim=3), g, x, 0.5)
        with pytest.raises(
            ValueError, match="^variant must be 'conslaw' or 'conslaw2', got 'bogus'$"
        ):
            NO.noether_quantity(L, g, x, 0.5, variant="bogus")
        with pytest.raises(
            ValueError,
            match=r"^convention must be one of \['caputo', 'rl'\], got 'grunwald'$",
        ):
            NO.noether_quantity(L, g, x, 0.5, convention="grunwald")
        masked = F.make_trajectory(
            x.grid, x.values, mask=np.arange(x.grid.n_nodes) > 0
        )
        with pytest.raises(ValueError, match="fully defined"):
            NO.noether_quantity(L, g, masked, 0.5)
        assert calls == []


class TestAutonomousQuantity:
    def test_rejects_time_dependent_lagrangian(self):
        L = LG.make_lagrangian(
            2,
            lambda t, x, v: t * np.vecdot(v, v),
            d_t=lambda t, x, v: np.vecdot(v, v),
            d_x=lambda t, x, v: np.zeros_like(x),
            d_v=lambda t, x, v: 2.0 * np.asarray(t)[..., None] * v,
        )
        x = solve_quadratic(32, 0.5)
        with pytest.raises(ValueError, match="not autonomous"):
            NO.autonomous_quantity(L, x, 0.5)

    @pytest.mark.parametrize("rate, rejected", [(2e-9, True), (5e-10, False)])
    def test_autonomy_threshold_is_1e_9(self, rate, rejected):
        L = LG.make_lagrangian(
            2,
            lambda t, x, v: rate * t + 0.5 * np.vecdot(v, v),
            d_t=lambda t, x, v: rate,
            d_x=lambda t, x, v: np.zeros_like(x),
            d_v=lambda t, x, v: v,
        )
        x = solve_quadratic(32, 0.5)
        if rejected:
            with pytest.raises(ValueError, match=r"= 2\.000e-09 > 1e-09"):
                NO.autonomous_quantity(L, x, 0.5)
        else:
            NO.autonomous_quantity(L, x, 0.5)
        assert "tol" not in inspect.signature(NO.autonomous_quantity).parameters

    def test_constant_trajectory(self):
        # xdot = 0 and dL/dv = v = 0 kill every integrand term, leaving
        # the potential energy of the frozen configuration
        L = PR.kappa_lagrangian(-1.0, dim=2)
        grid = F.make_grid(0.0, 1.0, 50)
        c = np.array([0.7, -1.2])
        x = F.make_trajectory(grid, np.tile(c, (grid.n_nodes, 1)))
        for alpha in (0.5, 1.0):
            q = NO.autonomous_quantity(L, x, alpha)
            assert np.all(q.defined_values() == 0.5 * float(c @ c))


    @pytest.mark.parametrize("case", ["caputo", "rl", "oscillator"])
    def test_left_derivative_of_x_taken_once(self, case, monkeypatch):
        # the dL/dt check's D_a+ x is reused by the quantity: x and xdot
        # are differentiated once each (xi = 0 needs no apply), like the
        # time-translation noether_quantity it must equal bit for bit; the
        # oscillator quantity is the Caputo case of its stock Lagrangian
        convention = "caputo" if case == "oscillator" else case
        calls = []
        op = LG._LEFT_OPS[convention]

        def counted(grid, o, x):
            calls.append(x)
            return op(grid, o, x)

        monkeypatch.setitem(LG._LEFT_OPS, convention, counted)
        if case == "oscillator":
            L = PR.oscillator_lagrangian(1.3)
            x = solve_oscillator(32, 0.5, 1.3)
            q = NO.oscillator_quantity(x, 1.3, 0.5)
        else:
            L = PR.kappa_lagrangian(-1.0, dim=2)
            x = solve_quadratic(32, 0.5)
            q = NO.autonomous_quantity(L, x, 0.5, convention=convention)
        assert len(calls) == 2
        assert calls[0] is x
        ref = NO.noether_quantity(
            L, SY.time_translation(), x, 0.5, convention=convention
        )
        assert np.array_equal(q.values, ref.values, equal_nan=True)
        assert np.array_equal(q.mask, ref.mask)


class TestOscillatorQuantity:
    def test_zero_trajectory(self):
        grid = F.make_grid(0.0, 1.0, 40)
        u = F.make_trajectory(grid, np.zeros((grid.n_nodes, 1)))
        q = NO.oscillator_quantity(u, 1.0, 0.5)
        assert np.all(q.defined_values() == 0.0)

    def test_classical_sine_value(self):
        # at alpha = 1 the integrand telescopes to -d/dt(u'^2), so the
        # series equals u'(a)^2 - (u'^2 + omega^2 u^2)/2 = 1/2 for
        # u = sin t with omega = 1
        errors = []
        for n_sub in (100, 200, 400):
            grid = F.make_grid(0.0, 1.0, n_sub)
            u = F.make_trajectory(grid, np.sin(grid.nodes)[:, None])
            q = NO.oscillator_quantity(u, 1.0, 1.0)
            errors.append(float(np.max(np.abs(q.defined_values() - 0.5))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] < 5e-5

    def test_matches_autonomous_form(self):
        omega = 0.7
        u = solve_oscillator(200, 0.9, omega)
        q = NO.oscillator_quantity(u, omega, 0.9)
        q_ref = NO.autonomous_quantity(PR.oscillator_lagrangian(omega), u, 0.9)
        assert_same_series(q, q_ref)

    def test_drift_decreases_with_resolution(self):
        for (omega, alpha), frozen in OSCILLATOR_DRIFT.items():
            drifts = []
            for n_sub in (100, 200, 400):
                u = solve_oscillator(n_sub, alpha, omega)
                q = NO.oscillator_quantity(u, omega, alpha)
                drifts.append(NO.drift(q).relative_drift)
            assert np.allclose(drifts, frozen, rtol=5e-3)
            assert drifts[0] > drifts[1] > drifts[2]

    def test_nonzero_start_warns(self):
        grid = F.make_grid(0.0, 1.0, 40)
        u = F.make_trajectory(grid, (1.0 + np.sin(grid.nodes))[:, None])
        with pytest.warns(UserWarning, match=r"u\(a\)"):
            NO.oscillator_quantity(u, 1.0, 0.5)

    def test_validation(self):
        grid = F.make_grid(0.0, 1.0, 40)
        u2 = F.make_trajectory(grid, np.zeros((grid.n_nodes, 2)))
        with pytest.raises(ValueError, match="scalar"):
            NO.oscillator_quantity(u2, 1.0, 0.5)
        u = F.make_trajectory(grid, np.zeros((grid.n_nodes, 1)))
        with pytest.raises(ValueError, match="omega"):
            NO.oscillator_quantity(u, -1.0, 0.5)


class TestTimeTranslationIdentities:
    # the autonomous and oscillator quantities are the time-translation
    # noether_quantity; zeta-dot is exactly 0 for zeta = 1 on any
    # interval, so they agree bit for bit.  alpha = 1 is drawn on its own:
    # there the end nodes are defined, and an inexact zeta-dot shows

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
        omega=st.floats(0.1, 5.0),
        n_sub=st.integers(4, 300),
        a=st.floats(-3.0, 3.0),
        length=st.floats(0.1, 5.0),
        amp=st.floats(-2.0, 2.0),
        curve=st.floats(-2.0, 2.0),
    )
    def test_oscillator(self, alpha, omega, n_sub, a, length, amp, curve):
        grid = F.make_grid(a, a + length, n_sub)
        s = grid.nodes - grid.a
        # u(a) = 0, where the Caputo and RL forms coincide
        u = F.make_trajectory(grid, (amp * np.sin(omega * s) + curve * s**2)[:, None])
        L = PR.oscillator_lagrangian(omega)
        q = NO.oscillator_quantity(u, omega, alpha)
        assert_same_series(q, NO.autonomous_quantity(L, u, alpha))
        assert_same_series(q, NO.noether_quantity(L, SY.time_translation(), u, alpha))

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
        kappa=st.floats(-5.0, 5.0),
        dim=st.integers(1, 3),
        n_sub=st.integers(4, 300),
        a=st.floats(-3.0, 3.0),
        length=st.floats(0.1, 5.0),
        convention=st.sampled_from(["caputo", "rl"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kappa_family(self, alpha, kappa, dim, n_sub, a, length, convention, seed):
        grid = F.make_grid(a, a + length, n_sub)
        s = (grid.nodes - grid.a)[:, None]
        c = np.random.default_rng(seed).normal(size=(3, dim))
        x = F.make_trajectory(grid, c[0] + c[1] * s + np.sin(c[2] * s))
        L = PR.kappa_lagrangian(kappa, dim=dim)
        assert_same_series(
            NO.autonomous_quantity(L, x, alpha, convention=convention),
            NO.noether_quantity(
                L, SY.time_translation(), x, alpha, convention=convention
            ),
        )


def extension_criterion(E, g, x, alpha):
    """The invariance criterion read off the autonomous extension E on the
    slice w = 1: zeta dL~/dt + xi . dL~/dx + zeta-dot dL~/dw + D[xi] . dL~/dv,
    with D the left Caputo derivative of order alpha."""
    grid = x.grid
    v = F.caputo_left(grid, alpha, x).values
    zeta = np.array([g.zeta(t) for t in grid.nodes])
    zeta_dot = np.gradient(zeta, grid.h, edge_order=2)
    xi = np.array([g.xi(row) for row in x.values])
    dxi = F.caputo_left(grid, alpha, F.make_trajectory(grid, xi)).values
    at = (grid.nodes, grid.nodes, x.values, 1.0, v)
    return (
        zeta * E.d_t(*at)
        + np.vecdot(xi, E.d_x(*at))
        + zeta_dot * E.d_w(*at)
        + np.vecdot(dxi, E.d_v(*at))
    )


def _criterion_case(name, alpha):
    grid = F.make_grid(0.0, 1.0, 64)
    if name.startswith("example2"):
        # rotation is no symmetry of example 2, so its xi and D[xi] terms
        # do not cancel (under kappa they cancel by isotropy)
        g = SY.dilation(-1.0) if name == "example2-dilation" else SY.space_rotation()
        return PR.example2_lagrangian(alpha), g, PR.example2_trajectory(grid)
    values = np.column_stack([1.0 + grid.nodes, np.sin(2.0 * grid.nodes)])
    x = F.make_trajectory(grid, values)
    g = SY.space_rotation() if name == "kappa-rotation" else SY.quadratic_time()
    return PR.kappa_lagrangian(-1.0, dim=2), g, x


class TestInfinitesimalCriterion:
    def test_autonomous_translation_is_exactly_zero(self):
        # zeta-dot, xi, and dL/dt all vanish identically, on any interval
        L = PR.kappa_lagrangian(-1.0, dim=2)
        for a, b, n_sub in ((0.0, 1.0, 64), (-2.0, 5.0, 80), (0.0, 0.3, 64)):
            x = solve_quadratic(n_sub, 0.5, a=a, b=b)
            r = NO.infinitesimal_criterion_residual(L, SY.time_translation(), x, 0.5)
            assert np.all(r.values == 0.0), (a, b)

    def test_time_dependent_lagrangian_fails(self):
        # for L = t |v|^2 under translation the residual is |v|^2
        L = LG.make_lagrangian(
            2,
            lambda t, x, v: t * np.vecdot(v, v),
            d_t=lambda t, x, v: np.vecdot(v, v),
            d_x=lambda t, x, v: np.zeros_like(x),
            d_v=lambda t, x, v: 2.0 * np.asarray(t)[..., None] * v,
        )
        grid = F.make_grid(0.0, 1.0, 64)
        x = F.make_trajectory(grid, np.column_stack([grid.nodes, grid.nodes**2]))
        r = NO.infinitesimal_criterion_residual(L, SY.time_translation(), x, 0.5)
        dxa = F.caputo_left(grid, F.FractionalOrder(0.5), x).values
        vsq = np.sum(dxa**2, axis=1)
        assert np.max(np.abs(r.values - vsq)) < 1e-14
        assert np.max(np.abs(r.defined_values())) > 1.0

    def test_homogeneous_lagrangian_dilation(self):
        # the alpha-weighted term turns the residual into Euler's
        # homogeneity identity, which cancels nodewise; dropping the
        # weight leaves an order-one defect
        for alpha in (0.5, 0.75):
            L = PR.example2_lagrangian(alpha)
            grid = F.make_grid(0.0, 1.0, 200)
            q = PR.example2_trajectory(grid)
            g = SY.dilation(-1.0)
            weighted = NO.infinitesimal_criterion_residual(L, g, q, alpha)
            assert np.max(np.abs(weighted.defined_values())) < 1e-13
            plain = NO.infinitesimal_criterion_residual(
                L, g, q, alpha, ce_alpha_factor=False
            )
            sup = np.max(np.abs(plain.defined_values()))
            assert np.isclose(sup, UNWEIGHTED_CRITERION_SUP[alpha], rtol=1e-6)

    def test_context_names_weighting(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(32, 0.5)
        r = NO.infinitesimal_criterion_residual(L, SY.time_translation(), x, 0.5)
        assert "alpha-weighted" in r.context
        r2 = NO.infinitesimal_criterion_residual(
            L, SY.time_translation(), x, 0.5, ce_alpha_factor=False
        )
        assert "unweighted" in r2.context


    @pytest.mark.parametrize("alpha", (0.4, 0.75, 1.0))
    @pytest.mark.parametrize("weighted", (True, False))
    @pytest.mark.parametrize(
        "case",
        (
            "example2-dilation",
            "example2-rotation",
            "kappa-rotation",
            "kappa-quadratic-time",
        ),
    )
    def test_matches_jost_extension(self, case, weighted, alpha):
        # the weighted criterion is the extension of order alpha; the
        # unweighted one is the extension of order 1 (w-slot L - v . dL/dv)
        L, g, x = _criterion_case(case, alpha)
        E = LG.extend(L, alpha if weighted else 1.0)
        oracle = extension_criterion(E, g, x, alpha)
        r = NO.infinitesimal_criterion_residual(
            L, g, x, alpha, ce_alpha_factor=weighted
        )
        assert np.all(r.mask)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(r.values - oracle)) <= 1e-13 * scale


class TestWeakTheoremResidual:
    def test_zero_trajectory(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        grid = F.make_grid(0.0, 1.0, 40)
        x = F.make_trajectory(grid, np.zeros((grid.n_nodes, 2)))
        r = NO.weak_theorem_residual(L, SY.time_translation(), x, 0.5)
        assert np.all(r.defined_values() == 0.0)

    def test_classical_residual_converges(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        sups = []
        for n_sub, frozen in WEAK_SUP_CLASSICAL.items():
            x = solve_quadratic(n_sub, 1.0)
            r = NO.weak_theorem_residual(L, SY.time_translation(), x, 1.0)
            assert np.all(r.mask)
            sup = float(np.max(np.abs(r.defined_values())))
            assert np.isclose(sup, frozen, rtol=5e-3)
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]

    def test_fractional_residual_stays_large(self):
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(200, 0.5)
        r = NO.weak_theorem_residual(L, SY.time_translation(), x, 0.5)
        sup = float(np.max(np.abs(r.defined_values())))
        assert np.isclose(sup, WEAK_SUP_HALF_200, rtol=1e-2)
        assert sup > 10 * WEAK_SUP_CLASSICAL[200]

    def test_fractional_mask(self):
        # the right derivative of dL/dv is undefined at the last node
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(64, 0.5)
        r = NO.weak_theorem_residual(L, SY.time_translation(), x, 0.5)
        assert not r.mask[-1] and np.all(r.mask[:-1])

    def test_nan_momentum_masks_every_node_whose_right_derivative_reads_it(self):
        # dL/dv is NaN where x < 0.3 (nodes 19-21); D_b- p at t reads p on
        # [t, b], so nodes 0-21 are undefined, not computed with 0 for NaN
        grid = F.make_grid(0.0, 1.0, 40)
        x = F.make_trajectory(grid, np.abs(grid.nodes - 0.5) + 0.25)
        L = LG.make_lagrangian(
            1,
            eval=lambda t, x, v: 0.5 * v[..., 0] ** 2 * PR.guarded_power(x[..., 0] - 0.3, 0.5),
        )
        for g in (SY.time_translation(), SY.dilation(-1.0)):
            r = NO.weak_theorem_residual(L, g, x, 0.5)
            assert np.flatnonzero(~r.mask).tolist() == list(range(23)) + [40]
        with pytest.raises(ValueError, match="non-finite trajectory value at node 19"):
            LG.el_residual(L, x, 0.5)


class TestMaskedIntegrand:
    def test_quantity_undefined_from_first_masked_integrand_node(self):
        # dL/dv is NaN where x < 0.3 (nodes 19-21), so the conslaw
        # integrand is masked at nodes 0-22 and the cumulative integral at
        # every node k >= 1 reads a masked node; node 0 is L alone
        grid = F.make_grid(0.0, 1.0, 40)
        x = F.make_trajectory(grid, np.abs(grid.nodes - 0.5) + 0.25)
        L = LG.make_lagrangian(
            1,
            eval=lambda t, x, v: 0.5 * v[..., 0] ** 2 * PR.guarded_power(x[..., 0] - 0.3, 0.5),
        )
        q = NO.noether_quantity(L, SY.time_translation(), x, 0.5)
        assert np.flatnonzero(q.mask).tolist() == [0]
        assert np.all(np.isnan(q.values[1:]))
        # conslaw2 needs no right derivative: nodes 0-17 stay defined
        q2 = NO.noether_quantity(L, SY.time_translation(), x, 0.5, variant="conslaw2")
        assert np.flatnonzero(q2.mask).tolist() == list(range(18))

    def test_rl_masked_node_zero_is_the_zero_endpoint(self):
        # the rl convention leaves D_a+ and so the integrand undefined at
        # node 0 only; the quantity stays defined at every later node
        L = PR.kappa_lagrangian(-1.0, dim=2)
        x = solve_quadratic(32, 0.5)
        q = NO.noether_quantity(L, SY.time_translation(), x, 0.5, convention="rl")
        assert np.all(q.mask[1:-1])


class TestSinglePath:
    # every series takes D_b- of the momentum through _Along.right_of_momentum,
    # the one rl_right call outside fracops
    @pytest.mark.parametrize(
        "call",
        [
            lambda L, x, u: LG.el_residual(L, x, 0.5),
            lambda L, x, u: NO.noether_quantity(L, SY.time_translation(), x, 0.5),
            lambda L, x, u: NO.autonomous_quantity(L, x, 0.5),
            lambda L, x, u: NO.oscillator_quantity(u, 1.0, 0.5),
            lambda L, x, u: NO.weak_theorem_residual(L, SY.space_rotation(), x, 0.5),
        ],
        ids=["el_residual", "conslaw", "autonomous", "oscillator", "weak"],
    )
    def test_one_right_derivative_per_series(self, call, monkeypatch):
        calls = []
        op = LG.rl_right

        def counted(grid, o, y):
            calls.append(y)
            return op(grid, o, y)

        monkeypatch.setattr(LG, "rl_right", counted)
        grid = F.make_grid(0.0, 1.0, 32)
        s = grid.nodes
        x = F.make_trajectory(grid, np.stack([np.sin(s), s + s**2], axis=1))
        u = F.make_trajectory(grid, np.sin(s))
        call(PR.kappa_lagrangian(-1.0, dim=2), x, u)
        assert len(calls) == 1

    def test_quantity_modules_bind_no_fractional_derivative(self):
        for module in (NO, SY):
            for name in ("rl_right", "rl_left", "_LEFT_OPS"):
                assert not hasattr(module, name), (module.__name__, name)


# every public function returning a QuantitySeries, in each variant;
# make_series is the constructor and carries its caller's context
CONVENTIONS = ("caputo", "rl")
ROTATION = SY.space_rotation()
SERIES_CALLS = {
    **{
        f"noether_quantity-{v}-{c}": lambda L, x, u, v=v, c=c: NO.noether_quantity(
            L, ROTATION, x, 0.5, variant=v, convention=c
        )
        for v in ("conslaw", "conslaw2")
        for c in CONVENTIONS
    },
    **{
        f"autonomous_quantity-{c}": lambda L, x, u, c=c: NO.autonomous_quantity(
            L, x, 0.5, convention=c
        )
        for c in CONVENTIONS
    },
    **{
        f"infinitesimal_criterion_residual-{w}-{c}": (
            lambda L, x, u, w=w, c=c: NO.infinitesimal_criterion_residual(
                L, ROTATION, x, 0.5, ce_alpha_factor=w, convention=c
            )
        )
        for w in (True, False)
        for c in CONVENTIONS
    },
    **{
        f"weak_theorem_residual-{c}": lambda L, x, u, c=c: NO.weak_theorem_residual(
            L, ROTATION, x, 0.5, convention=c
        )
        for c in CONVENTIONS
    },
    **{
        f"extended_el_residual-{w}": lambda L, x, u, w=w: LG.extended_el_residual(
            LG.extend(L, 0.5), x, w
        )[1]
        for w in (True, False)
    },
    "oscillator_quantity": lambda L, x, u: NO.oscillator_quantity(u, 1.0, 0.5),
    "second_el_quantity": lambda L, x, u: LG.second_el_quantity(L, x, 0.5),
}


class TestSeriesContext:
    def test_every_public_series_function_is_covered(self):
        annotated = {
            name
            for module in (LG, NO)
            for name, fn in vars(module).items()
            if inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == module.__name__
            and inspect.signature(fn).return_annotation == "QuantitySeries"
        }
        assert "noether_quantity" in annotated
        covered = {name.split("-")[0] for name in SERIES_CALLS}
        assert annotated - {"make_series"} <= covered

    @pytest.mark.parametrize("name", sorted(SERIES_CALLS))
    def test_context_names_d_b_exactly_when_applied(self, name, monkeypatch):
        calls = []
        op = LG.rl_right

        def counted(grid, o, y):
            calls.append(y)
            return op(grid, o, y)

        monkeypatch.setattr(LG, "rl_right", counted)
        grid = F.make_grid(0.0, 1.0, 32)
        s = grid.nodes
        x = F.make_trajectory(grid, np.stack([np.sin(s), s + s**2], axis=1))
        u = F.make_trajectory(grid, np.sin(s))
        series = SERIES_CALLS[name](PR.kappa_lagrangian(-1.0, dim=2), x, u)
        assert isinstance(series, LG.QuantitySeries)
        assert series.context
        assert ("D_b-" in series.context) == bool(calls), (series.context, len(calls))

    @pytest.mark.parametrize("module", [NO, SY, cli])
    def test_only_lagrangian_spells_the_operators(self, module):
        # string constants outside docstrings; contexts and CSV headers
        # take their operator clause from lagrangian._operators
        tree = ast.parse(inspect.getsource(module))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        literals = [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ]
        assert not [v for v in literals if "D_a+" in v or "D_b-" in v or v in ("caputo", "rl")]

    @pytest.mark.parametrize("name", sorted(SERIES_CALLS))
    def test_each_evaluator_is_sampled_once(self, name, monkeypatch):
        # one batch call plus the last-node cross-check per evaluator
        calls = {}

        def counting(L):
            def wrap(key, fn):
                def call(*args):
                    calls[key] = calls.get(key, 0) + 1
                    return fn(*args)

                return call

            return LG.LagrangianSpec(
                dim=L.dim, **{k: wrap(k, getattr(L, k)) for k in ("eval", "d_t", "d_x", "d_v")}
            )

        oscillator = NO.oscillator_lagrangian
        monkeypatch.setattr(NO, "oscillator_lagrangian", lambda omega: counting(oscillator(omega)))
        grid = F.make_grid(0.0, 1.0, 32)
        s = grid.nodes
        x = F.make_trajectory(grid, np.stack([np.sin(s), s + s**2], axis=1))
        u = F.make_trajectory(grid, np.sin(s))
        SERIES_CALLS[name](counting(PR.kappa_lagrangian(-1.0, dim=2)), x, u)
        assert calls
        assert max(calls.values()) <= 2, calls
