"""Tests for transformation groups, their classification, and invariance."""

import dataclasses
import math

import numpy as np
import pytest

from fracnoether import fracops as F
from fracnoether import lagrangian as Lmod
from fracnoether import presets as P
from fracnoether import symmetry as G

from common import count_convolutions, quadratic_lagrangian

# analytic value of both chain-rule sides for the dilation group with
# c = 1 at s = 0.3, alpha = 0.5, x = t^2, evaluated at t = 0.6:
# Gamma(3)/Gamma(2.5) * 0.6^1.5 * e^{-0.15}
CHAIN_RULE_POINT = 0.6018336952584199


def not_a_group():
    # phi0_s(t) = t + s^2 fails the composition law (s = s' = 0.5 gives
    # t + 1 vs t + 0.5)
    return G.GroupSpec(
        phi0=lambda s, t: t + s * s,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: 0.0,
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def smooth_trajectory(n_sub=64):
    grid = F.make_grid(0.0, 1.0, n_sub)
    values = np.column_stack([np.sin(grid.nodes), grid.nodes**2])
    return grid, F.make_trajectory(grid, values)


ALL_FACTORIES = [
    G.time_translation,
    lambda: G.dilation(0.9),
    lambda: G.localized_dilation(0.5, 1.0),
    G.space_rotation,
    G.quadratic_time,
]


class TestGroupSpecs:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_s_zero_is_identity(self, factory):
        g = factory()
        for t in (0.0, 0.3, 1.7):
            # (t - a) + a style maps can round; the identity is exact
            # only up to one addition
            assert abs(g.phi0(0.0, t) - t) < 1e-15
        x = np.array([0.4, -1.2])
        assert np.allclose(g.phi1(0.0, x), x, atol=1e-15)

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_generators_match_finite_differences(self, factory):
        g = factory()
        step = 1e-6
        for t in (0.2, 0.7, 1.5):
            fd = (g.phi0(step, t) - g.phi0(-step, t)) / (2.0 * step)
            assert abs(fd - g.zeta(t)) < 1e-5 * max(1.0, abs(fd))
        x = np.array([0.3, -0.8])
        fd = (np.asarray(g.phi1(step, x)) - np.asarray(g.phi1(-step, x))) / (
            2.0 * step
        )
        assert np.allclose(fd, g.xi(x), atol=1e-5)

    def test_affine_form_where_declared(self):
        # phi0_s(t) = e^{lam s} t + phi0_s(0) whenever lam is stored
        for g in (G.time_translation(), G.dilation(-0.7), G.localized_dilation(0.3, 2.0)):
            for s in (-0.4, 0.25):
                for t in (0.1, 1.9):
                    affine = math.exp(g.lam * s) * t + g.phi0(s, 0.0)
                    assert abs(g.phi0(s, t) - affine) < 1e-14

    def test_rotation_requires_two_components(self):
        g = G.space_rotation()
        with pytest.raises(ValueError, match="2-vector"):
            g.phi1(0.1, np.array([1.0, 2.0, 3.0]))

    def test_localized_dilation_reduces_to_dilation(self):
        ga = G.localized_dilation(0.8, 0.0)
        gb = G.dilation(0.8)
        for s in (-0.5, 0.2):
            for t in (0.0, 0.6, 1.0):
                assert ga.phi0(s, t) == gb.phi0(s, t)


class TestGroupLaw:
    def test_translation_passes(self):
        report = G.check_group_law(G.time_translation())
        assert report.passed
        # the law holds identically; only addition rounding remains
        assert report.max_violation < 1e-14
        assert report.samples == 16 * 33

    @pytest.mark.parametrize(
        "group", [G.dilation(1.0), G.localized_dilation(0.6, 0.5)]
    )
    def test_affine_families_pass(self, group):
        report = G.check_group_law(group)
        assert report.passed
        assert "composition law" in report.context

    def test_non_group_fails(self):
        report = G.check_group_law(not_a_group())
        assert not report.passed
        # s = s' = 0.5 alone forces a gap of 0.5
        assert report.max_violation >= 0.5

    def test_custom_samples(self):
        report = G.check_group_law(
            G.dilation(2.0), s_samples=[0.1], t_samples=np.linspace(0.0, 0.5, 5)
        )
        assert report.passed
        assert report.samples == 5

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            G.check_group_law(G.dilation(1.0), s_samples=[])

    @pytest.mark.parametrize(
        "check", [G.check_group_law, G.check_admissible], ids=["group_law", "admissible"]
    )
    def test_empty_time_samples_rejected(self, check):
        with pytest.raises(ValueError, match="t_samples must be non-empty"):
            check(G.dilation(1.0), t_samples=[])


LARGE_RATES = [-40.0, -25.0, -5.0, 1.0, 20.0, 25.0, 30.0, 40.0]


class TestScaleFree:
    """The group-law and admissibility checks judge rounding relative to
    the values, so an exact group passes a tight tolerance at every rate
    (absolute differences read 1.2e-7 for the group law of dilation(20)),
    while neither a large offset nor a declared rate hides a violation."""

    @pytest.mark.parametrize("c", LARGE_RATES)
    @pytest.mark.parametrize("a", [None, -3.0, 0.5, 2.0], ids=["dilation", "a-3", "a0.5", "a2"])
    def test_exact_dilations_pass_tightly(self, c, a):
        g = G.dilation(c) if a is None else G.localized_dilation(c, a)
        reports = [
            G.check_group_law(g, tol=1e-12),
            G.check_admissible(g, tol=1e-12),
            G.check_localization(g, 0.0 if a is None else a, tol=1e-12),
        ]
        assert all(r.passed for r in reports), [r.max_violation for r in reports]

    def test_scaled_non_group_fails(self):
        # e^{25 s} t + s breaks the offset law by |s'| (e^{25 s} - 1); at
        # t = 0 that is the whole scale of phi0_s o phi0_s'
        g = G.GroupSpec(
            phi0=lambda s, t: math.exp(25.0 * s) * t + s,
            phi1=lambda s, x: np.asarray(x, dtype=float),
            zeta=lambda t: 25.0 * t + 1.0,
            xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lam=25.0,
        )
        report = G.check_group_law(g)
        assert not report.passed
        assert report.max_violation > 0.5

    def test_declared_rate_does_not_hide_a_composition_failure(self):
        # t + s^2 has slope 1 whatever lam declares; a scale of e^{40 s}
        # would shrink the gap 0.5 at s = s' = 0.5 below 1e-8
        g = dataclasses.replace(not_a_group(), lam=40.0)
        report = G.check_group_law(g, s_samples=[0.5], tol=1e-6)
        assert not report.passed
        assert report.max_violation == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e6])
    def test_added_constant_keeps_a_curved_map_failing(self, offset):
        # t + s t^2 deviates from its affine fit by about s / 6 whatever
        # constant is added
        g = G.GroupSpec(
            phi0=lambda s, t: t + s * t * t + offset,
            phi1=lambda s, x: np.asarray(x, dtype=float),
            zeta=lambda t: t * t,
            xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        report = G.check_admissible(g, tol=1e-6)
        assert not report.passed
        assert report.max_violation == pytest.approx(0.0807, abs=1e-3)

    @pytest.mark.parametrize(
        "group, a, moved",
        [
            (G.time_translation(), 1e6, 0.5),
            (G.localized_dilation(1.0, 1000.0005), 1000.0, 3.2e-4),
        ],
        ids=["translation", "dilation"],
    )
    def test_localization_stays_absolute_far_from_zero(self, group, a, moved):
        report = G.check_localization(group, a, tol=1e-6)
        assert not report.passed
        assert report.max_violation == pytest.approx(moved, rel=0.02)


class TestAdmissible:
    @pytest.mark.parametrize(
        "group",
        [G.time_translation(), G.dilation(-0.7), G.localized_dilation(0.4, 1.5)],
    )
    def test_affine_time_maps_pass(self, group):
        report = G.check_admissible(group)
        assert report.passed
        assert report.max_violation <= 1e-9

    def test_quadratic_time_fails(self):
        report = G.check_admissible(G.quadratic_time())
        assert not report.passed
        assert report.max_violation > 1e-3

    def test_wrong_declared_rate_fails(self):
        # affine map whose stored lam disagrees with the actual slope
        g = G.GroupSpec(
            phi0=lambda s, t: math.exp(0.5 * s) * t,
            phi1=lambda s, x: np.asarray(x, dtype=float),
            zeta=lambda t: 0.5 * t,
            xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lam=0.3,
        )
        report = G.check_admissible(g)
        assert not report.passed

    def test_needs_three_time_samples(self):
        with pytest.raises(ValueError, match="3 time samples"):
            G.check_admissible(G.dilation(1.0), t_samples=[0.0, 1.0])


class TestLocalization:
    def test_localized_family_passes(self):
        report = G.check_localization(G.localized_dilation(0.8, 2.0), 2.0)
        assert report.passed
        assert report.max_violation == 0.0

    def test_dilation_about_origin_passes(self):
        report = G.check_localization(G.dilation(1.3), 0.0)
        assert report.passed

    def test_translation_fails_endpoint(self):
        report = G.check_localization(G.time_translation(), 0.0)
        assert not report.passed
        # worst sampled |phi0_s(a) - a| = max |s| = 0.5
        assert report.max_violation == pytest.approx(0.5, abs=1e-15)
        assert "classification not evaluated" in report.context

    def test_fixed_endpoint_but_nonaffine_fails_classification(self):
        # t + s t^2 fixes t = 0 yet is not of dilation form
        report = G.check_localization(G.quadratic_time(), 0.0)
        assert not report.passed
        assert report.max_violation > 1e-3


class TestChainRule:
    def setup_method(self):
        self.grid = F.make_grid(0.0, 1.0, 250)
        self.x = F.make_trajectory(self.grid, self.grid.nodes**2)

    def test_dilation_both_sides_near_analytic_point(self):
        # node 150 sits at t = 0.6 on the original grid and at
        # tau = 0.6 e^{0.3} on the transformed one
        order = F.FractionalOrder(0.5)
        s = 0.3
        factor = math.exp(s)
        tau = np.array([factor * t for t in self.grid.nodes])
        tgrid = F.make_grid(tau[0], tau[-1], 250)
        z = np.interp(tgrid.nodes, tau, self.grid.nodes**2)
        lhs = F.caputo_left(tgrid, order, F.make_trajectory(tgrid, z)).values[150, 0]
        rhs = F.caputo_left(self.grid, order, self.x).values[150, 0] * factor**-0.5
        assert abs(lhs - CHAIN_RULE_POINT) < 1e-3
        assert abs(rhs - CHAIN_RULE_POINT) < 1e-3

    def test_dilation_commutes_with_discretization(self):
        # the L1 weights scale exactly under a dilation of the grid, so
        # the two sides agree far below the discretization error
        report = G.check_chain_rule(G.dilation(1.0), self.x, 0.5, 0.3, tol=1e-12)
        assert report.passed

    def test_translation_shifts_base_point_only(self):
        report = G.check_chain_rule(
            G.time_translation(), self.x, 0.5, 0.4, tol=1e-9
        )
        assert report.passed

    def test_identity_transform_exact(self):
        report = G.check_chain_rule(G.dilation(1.0), self.x, 0.5, 0.0, tol=0.0)
        assert report.passed
        assert report.max_violation == 0.0

    def test_non_affine_map_fails(self):
        report = G.check_chain_rule(G.quadratic_time(), self.x, 0.5, 0.3, tol=1e-3)
        assert not report.passed
        assert report.max_violation > 1e-2

    def test_non_increasing_map_rejected(self):
        # t + s t^2 with s = -1 turns around inside [0, 1]
        with pytest.raises(ValueError, match="strictly increasing"):
            G.check_chain_rule(G.quadratic_time(), self.x, 0.5, -1.0, tol=1.0)

    def test_masked_trajectory_rejected(self):
        values = self.grid.nodes**2
        mask = np.ones(self.grid.n_nodes, dtype=bool)
        mask[3] = False
        x = F.make_trajectory(self.grid, values, mask=mask)
        with pytest.raises(ValueError, match="fully defined"):
            G.check_chain_rule(G.dilation(1.0), x, 0.5, 0.3, tol=1.0)


@pytest.fixture
def derivatives(monkeypatch):
    """The trajectory of every fracops derivative apply, in order."""
    calls = []
    op = F._derivative

    def counted(grid, alpha, x, rl, right):
        calls.append(x)
        return op(grid, alpha, x, rl, right)

    monkeypatch.setattr(F, "_derivative", counted)
    return calls


class TestInvariance:
    def test_autonomous_under_translation_exact(self):
        _, traj = smooth_trajectory()
        for alpha in (0.5, 1.0):
            report = G.check_invariance(
                quadratic_lagrangian(), G.time_translation(), traj, alpha
            )
            assert report.passed
            assert report.max_violation == 0.0

    def test_rotation_invariance_of_isotropic_lagrangian(self):
        _, traj = smooth_trajectory()
        report = G.check_invariance(
            quadratic_lagrangian(), G.space_rotation(), traj, 0.6, tol=1e-12
        )
        assert report.passed

    def test_time_dependent_lagrangian_fails_translation(self):
        _, traj = smooth_trajectory()
        L = Lmod.make_lagrangian(2, eval=lambda t, x, v: t * np.vecdot(v, v))
        report = G.check_invariance(L, G.time_translation(), traj, 0.6)
        assert not report.passed
        assert report.max_violation > 1e-2

    def test_identity_parameter_exact(self):
        _, traj = smooth_trajectory()
        L = Lmod.make_lagrangian(2, eval=lambda t, x, v: t * np.vecdot(v, v))
        report = G.check_invariance(
            L, G.dilation(0.5), traj, 0.6, s_samples=[0.0], tol=0.0
        )
        assert report.passed
        assert report.max_violation == 0.0

    def test_dilation_invariant_lagrangian(self):
        # L = t v^2 satisfies L(e^s t, x, e^{-s} v) e^s = L(t, x, v), an
        # invariance the check should confirm at alpha = 1 in both modes
        grid = F.make_grid(0.0, 1.0, 64)
        traj = F.make_trajectory(grid, grid.nodes**2)
        L = Lmod.make_lagrangian(1, eval=lambda t, x, v: t * v[..., 0] ** 2)
        for fixed_base in (False, True):
            report = G.check_invariance(
                L, G.dilation(1.0), traj, 1.0, tol=1e-13, fixed_base=fixed_base
            )
            assert report.passed

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_fixed_base_equals_rewritten_form_for_localized_groups(self, alpha):
        # for an affine map fixing a, evaluating on the transformed grid
        # is exactly the change of variables of the original-grid form,
        # so the two modes must agree to rounding even off invariance
        _, traj = smooth_trajectory()
        group = G.localized_dilation(0.4, 0.0)
        default = G.check_invariance(quadratic_lagrangian(), group, traj, alpha)
        fixed = G.check_invariance(
            quadratic_lagrangian(), group, traj, alpha, fixed_base=True
        )
        assert fixed.max_violation == pytest.approx(
            default.max_violation, rel=1e-12
        )

    @pytest.mark.parametrize(
        "group, convolutions",
        [(G.time_translation(), 1), (G.dilation(0.5), 1), (G.space_rotation(), 5)],
        ids=["translation", "dilation", "rotation"],
    )
    def test_identity_space_map_reuses_the_left_derivative_of_x(
        self, group, convolutions, monkeypatch
    ):
        # a space map that leaves x unchanged needs no convolution per s
        # sample: D_a+ of x is the one taken for the reference action
        calls = count_convolutions(monkeypatch)
        _, traj = smooth_trajectory()
        G.check_invariance(quadratic_lagrangian(), group, traj, 0.5)
        assert len(calls) == convolutions

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_identity_space_map_takes_no_apply_per_sample(self, alpha, derivatives):
        # the one fracops apply is the context's own D_a+ x
        _, traj = smooth_trajectory()
        G.check_invariance(quadratic_lagrangian(), G.dilation(-1.0), traj, alpha)
        assert len(derivatives) == 1
        assert derivatives[0] is traj

    def test_fixed_base_keeps_the_context_of_x(self, derivatives):
        # the actions along the resampled paths replace no shared context:
        # a later call on (L, x) takes no new D_a+ x
        _, traj = smooth_trajectory()
        L = quadratic_lagrangian()
        G.check_invariance(L, G.localized_dilation(0.4, 0.0), traj, 0.6, fixed_base=True)
        assert len(derivatives) == 5
        Lmod.action(L, traj, 0.6)
        assert len(derivatives) == 5

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_left_of_x_is_bit_identical_to_an_apply(self, alpha):
        grid, traj = smooth_trajectory()
        along = Lmod._along(quadratic_lagrangian(), traj, alpha, "test")
        applied = F.caputo_left(grid, alpha, F.make_trajectory(grid, traj.values.copy()))
        assert along.left(traj.values.copy()).tobytes() == applied.values.tobytes()
        # so left() may take D_a+ x itself for a series equal to x bit for
        # bit, as under an identity space map
        assert along.dxa.tobytes() == applied.values.tobytes()
        assert along.left(traj.values.copy()) is along.dxa

    def test_fixed_base_rejects_moving_base_point(self):
        _, traj = smooth_trajectory()
        with pytest.raises(ValueError, match="phi0_s\\(a\\) = a"):
            G.check_invariance(
                quadratic_lagrangian(),
                G.time_translation(),
                traj,
                0.6,
                fixed_base=True,
            )

    def test_fixed_base_rejects_small_move_far_from_zero(self):
        # a base point that moves by 1e-4 has moved at any size of a, as
        # check_localization reports it
        grid = F.make_grid(1e6, 1e6 + 1.0, 64)
        s = grid.nodes - grid.a
        traj = F.make_trajectory(grid, np.column_stack([np.sin(s), s**2]))
        g = G.time_translation()
        assert not G.check_localization(g, grid.a, s_samples=[1e-4]).passed
        with pytest.raises(ValueError, match="phi0_s\\(a\\) = a"):
            G.check_invariance(
                quadratic_lagrangian(), g, traj, 0.6, s_samples=[1e-4], fixed_base=True
            )

    def test_fixed_base_rejects_nan_base_point(self):
        _, traj = smooth_trajectory()
        with pytest.raises(ValueError, match="phi0_s\\(a\\) = a"):
            G.check_invariance(
                quadratic_lagrangian(), nan_time_map(0.1), traj, 0.6, fixed_base=True
            )

    def test_dimension_mismatch_rejected(self):
        grid = F.make_grid(0.0, 1.0, 16)
        traj = F.make_trajectory(grid, grid.nodes)
        with pytest.raises(ValueError, match="dim"):
            G.check_invariance(quadratic_lagrangian(), G.time_translation(), traj, 0.5)

    def test_report_counts_parameter_samples(self):
        _, traj = smooth_trajectory()
        report = G.check_invariance(
            quadratic_lagrangian(),
            G.time_translation(),
            traj,
            0.5,
            s_samples=[-0.2, 0.1, 0.3],
        )
        assert report.samples == 3


def nan_time_map(bad_s, base_ok=False):
    """Identity time map except at parameter ``bad_s``, where it is NaN
    (at every t, or at every t but 0 when ``base_ok``)."""

    def phi0(s, t):
        if s != bad_s:
            return t
        return np.where(base_ok & (np.asarray(t) == 0.0), t, math.nan)

    return G.GroupSpec(
        phi0=phi0,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: 0.0,
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


class TestNaNViolations:
    """A NaN sample must surface as the violation and fail the check, not
    be dropped by the fold over samples."""

    @pytest.mark.parametrize("fixed_base", [False, True])
    def test_invariance_nan_action_fails(self, fixed_base):
        # example 2 is NaN at negative velocities; x1 = 1 - t has D^alpha < 0
        grid = F.make_grid(0.0, 1.0, 64)
        values = np.column_stack([1.0 - grid.nodes, grid.nodes**2])
        x = F.make_trajectory(grid, values)
        report = G.check_invariance(
            P.example2_lagrangian(0.6), G.dilation(-1.0), x, 0.6, fixed_base=fixed_base
        )
        assert not report.passed
        assert math.isnan(report.max_violation)

    def test_group_law_nan_time_map_fails(self):
        report = G.check_group_law(nan_time_map(0.1))
        assert not report.passed
        assert math.isnan(report.max_violation)

    def test_admissible_nan_time_map_fails(self):
        report = G.check_admissible(nan_time_map(0.1))
        assert not report.passed
        assert math.isnan(report.max_violation)

    def test_localization_nan_base_point_fails(self):
        # the NaN sample comes after finite ones, where max() would keep 0
        report = G.check_localization(nan_time_map(0.1), 0.0)
        assert not report.passed
        assert math.isnan(report.max_violation)
        assert report.context.startswith("base point moves")

    def test_localization_nan_off_base_point_fails(self):
        report = G.check_localization(nan_time_map(0.1, base_ok=True), 0.0)
        assert not report.passed
        assert math.isnan(report.max_violation)


# quadratic_time's violations on q = (t, t^2) at n_sub = 400 (chain rule
# at s = 0.5; invariance of quadratic_lagrangian() over the default s),
# recorded when K(s) was a centered difference at the interval midpoint;
# on uniform nodes the least-squares slope of a quadratic map is its
# derivative there
QUADRATIC_TIME_VIOLATIONS = {
    0.5: (0.1355326365910685, 0.07138231777435154),
    0.8: (0.2487707485536348, 0.1539658687419202),
}


def recording_dilation(c, shapes):
    """phi0_s(t) = e^{cs} t, written for arrays only (``t.copy()``) and
    without ``lam``; every call appends the type and shape of ``t``."""

    def phi0(s, t):
        shapes.append((type(t), np.shape(t)))
        return np.exp(c * s) * t.copy()

    return G.GroupSpec(
        phi0=phi0,
        phi1=lambda s, x: np.asarray(x, dtype=float),
        zeta=lambda t: c * t,
        xi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


class TestDilationFactor:
    def setup_method(self):
        self.grid = F.make_grid(0.0, 1.0, 400)
        self.q = P.example2_trajectory(self.grid)

    def test_without_lam_is_the_fitted_slope(self):
        g = G.quadratic_time()
        t = self.grid.nodes
        assert G.dilation_factor(g, 0.3, t) == G._fitted_slope(g, 0.3, t)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_exact_symmetry_without_lam_passes_a_tight_chain_rule(self, alpha):
        bare = dataclasses.replace(G.dilation(-1.0), lam=None)
        report = G.check_chain_rule(bare, self.q, alpha, 0.5, tol=1e-12)
        assert report.passed, report.max_violation

    def test_array_only_time_map_passes_every_check(self):
        g = recording_dilation(-1.0, [])
        L = P.example2_lagrangian(0.5)
        reports = [
            G.check_group_law(g),
            G.check_admissible(g),
            G.check_localization(g, 0.0),
            G.check_chain_rule(g, self.q, 0.5, 0.5, tol=1e-12),
            G.check_invariance(L, g, self.q, 0.5, tol=1e-12),
            G.check_invariance(L, g, self.q, 0.5, tol=1e-12, fixed_base=True),
        ]
        assert all(r.passed for r in reports), [r.max_violation for r in reports]

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_quadratic_time_violations_unchanged(self, alpha):
        g = G.quadratic_time()
        chain = G.check_chain_rule(g, self.q, alpha, 0.5).max_violation
        invariance = G.check_invariance(quadratic_lagrangian(), g, self.q, alpha)
        expected_chain, expected_invariance = QUADRATIC_TIME_VIOLATIONS[alpha]
        assert chain == pytest.approx(expected_chain, rel=1e-9)
        assert invariance.max_violation == pytest.approx(expected_invariance, rel=1e-9)

    @pytest.mark.parametrize(
        "check",
        [
            lambda g, q: G.check_group_law(g),
            lambda g, q: G.check_admissible(g),
            lambda g, q: G.check_localization(g, 0.0),
            lambda g, q: G.check_chain_rule(g, q, 0.5, 0.5),
            lambda g, q: G.check_invariance(P.example2_lagrangian(0.5), g, q, 0.5),
            lambda g, q: G.check_invariance(
                P.example2_lagrangian(0.5), g, q, 0.5, fixed_base=True
            ),
        ],
        ids=[
            "group_law",
            "admissible",
            "localization",
            "chain_rule",
            "invariance",
            "invariance-fixed-base",
        ],
    )
    def test_time_map_is_only_called_on_arrays(self, check):
        shapes = []
        check(recording_dilation(0.5, shapes), self.q)
        assert shapes
        assert all(kind is np.ndarray and len(shape) == 1 for kind, shape in shapes), shapes
