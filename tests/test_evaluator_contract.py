"""The array evaluator contract: Lagrangian and group evaluators take whole
node arrays (component axis last), agree with one-node calls, and a
leftover scalar-style evaluator is rejected instead of silently giving a
wrong series."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracnoether.fracops as F
import fracnoether.lagrangian as LG
import fracnoether.noether as NO
import fracnoether.presets as PR
import fracnoether.symmetry as SY

# state components: ordinary values plus the edge cases of the evaluators
# (negative and exactly zero velocities leave the domain of example 2's
# powers or sit on its boundary; NaN must propagate)
COMPONENT = st.one_of(
    st.floats(-10.0, 10.0),
    st.just(0.0),
    st.just(-0.0),
    st.just(float("nan")),
)


def states(n, dim):
    return arrays(np.float64, (n, dim), elements=COMPONENT)


def times(n):
    return arrays(np.float64, (n,), elements=st.floats(0.0, 2.0))


def stacked(fn, *columns):
    """Per-node calls of fn stacked into one array."""
    return np.array([np.asarray(fn(*row), dtype=float) for row in zip(*columns)])


def batch(fn, shape, *args):
    return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def lagrangian_series(L, t, x, v):
    """(batch, per-node) pairs for the four evaluators of L."""
    n = t.shape[0]
    pairs = []
    for name in ("eval", "d_t", "d_x", "d_v"):
        fn = getattr(L, name)
        shape = (n,) if name in ("eval", "d_t") else (n, L.dim)
        pairs.append((batch(fn, shape, t, x, v), stacked(fn, t, x, v).reshape(shape)))
    return pairs


@st.composite
def kappa_case(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 5))
    L = PR.kappa_lagrangian(draw(st.floats(-5.0, 5.0)), dim=dim)
    return L, draw(times(n)), draw(states(n, dim)), draw(states(n, dim))


class TestStockLagrangiansBatchEqualsNodes:
    @settings(max_examples=60, deadline=None)
    @given(kappa_case())
    def test_kappa_family_bitwise(self, case):
        L, t, x, v = case
        for got, want in lagrangian_series(L, t, x, v):
            assert_bitwise(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.05, 5.0),
        times(8),
        states(8, 1),
        states(8, 1),
    )
    def test_oscillator_bitwise(self, omega, t, x, v):
        L = PR.oscillator_lagrangian(omega)
        for got, want in lagrangian_series(L, t, x, v):
            assert_bitwise(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(1, 12).flatmap(lambda n: st.tuples(times(n), states(n, 2), states(n, 2))),
    )
    def test_example2_nan_pattern_and_values(self, alpha, data):
        t, x, v = data
        L = PR.example2_lagrangian(alpha)
        # a tiny alpha overflows the powers to inf (and inf * 0 to NaN);
        # both sides must still agree
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = lagrangian_series(L, t, x, v)
        for got, want in pairs:
            assert np.array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, equal_nan=True)


GROUPS = {
    "translation": SY.time_translation,
    "dilation": lambda: SY.dilation(-0.7),
    "localized dilation": lambda: SY.localized_dilation(0.6, 0.4),
    "rotation": SY.space_rotation,
    "quadratic time": SY.quadratic_time,
}


class TestStockGroupsBatchEqualsNodes:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(-1.0, 1.0),
        data=st.integers(1, 12).flatmap(
            lambda n: st.tuples(times(n), st.integers(1, 4).flatmap(lambda d: states(n, d)))
        ),
    )
    def test_bitwise(self, name, s, data):
        g = GROUPS[name]()
        t, x = data
        if name == "rotation":
            x = np.column_stack([x[:, 0], x[:, -1]])
        assert_bitwise(batch(g.zeta, t.shape, t), stacked(g.zeta, t))
        assert_bitwise(batch(g.phi0, t.shape, s, t), stacked(lambda tk: g.phi0(s, tk), t))
        assert_bitwise(batch(g.xi, x.shape, x), stacked(g.xi, x))
        assert_bitwise(batch(g.phi1, x.shape, s, x), stacked(lambda xk: g.phi1(s, xk), x))


class TestGuardedPowerArrays:
    def test_elementwise_edge_cases_without_warnings(self):
        base = np.array([0.0, 0.0, 0.0, 2.0, 4.0, -1.0, np.nan, 1.0, -0.0])
        exponent = np.array([0.0, 2.0, -1.0, 3.0, 0.5, 0.5, 1.0, np.nan, 2.0])
        want = np.array([1.0, 0.0, np.nan, 8.0, 2.0, np.nan, np.nan, np.nan, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = PR.guarded_power(base, exponent)
        np.testing.assert_array_equal(got, want)

    def test_scalar_in_scalar_out(self):
        assert isinstance(PR.guarded_power(4.0, 0.5), float)


def row_indexing_lagrangian():
    # the scalar-style spelling of t v^2 on dim 1: under the array
    # contract v[0] is node 0's row, broadcast over every node
    return LG.make_lagrangian(1, eval=lambda t, x, v: t * v[0] ** 2)


class TestContractGuard:
    def setup_method(self):
        self.grid = F.make_grid(0.0, 1.0, 32)
        self.x = F.make_trajectory(self.grid, self.grid.nodes**2)

    def test_row_indexing_evaluator_rejected(self):
        L = row_indexing_lagrangian()
        with pytest.raises(ValueError, match="Lagrangian eval evaluator .*<lambda>.*last node"):
            LG.action(L, self.x, 0.5)

    def test_row_indexing_rejected_in_invariance_check(self):
        with pytest.raises(ValueError, match="Lagrangian eval evaluator"):
            SY.check_invariance(row_indexing_lagrangian(), SY.dilation(1.0), self.x, 1.0)

    def test_wrong_output_shape_rejected(self):
        L = LG.make_lagrangian(
            1,
            eval=lambda t, x, v: 0.5 * v[..., 0] ** 2,
            d_v=lambda t, x, v: v[..., 0],  # (N+1,) where (N+1, 1) is due
        )
        with pytest.raises(ValueError, match=r"Lagrangian d_v evaluator .*\(33, 1\).*\(33,\)"):
            LG.el_residual(L, self.x, 0.5)

    def test_component_count_rejected(self):
        L = LG.make_lagrangian(
            2, eval=lambda t, x, v: np.vecdot(v, v), d_x=lambda t, x, v: np.zeros(2)
        )
        x = F.make_trajectory(self.grid, np.column_stack([self.grid.nodes] * 2))
        with pytest.raises(ValueError, match="Lagrangian d_x evaluator"):
            LG.el_residual(L, x, 0.5)

    def test_zero_d_results_broadcast(self):
        # a constant Lagrangian: 0-d eval, and finite-difference partials
        # that broadcast to the node shape
        L = LG.make_lagrangian(1, eval=lambda t, x, v: 2.0)
        assert LG.action(L, self.x, 0.5) == pytest.approx(2.0, abs=1e-15)
        residual = LG.el_residual(L, self.x, 0.5)
        assert np.all(residual.values[residual.mask] == 0.0)

    def test_nan_at_last_node_accepted(self):
        # NaN matches NaN in the one-node cross-check
        L = LG.make_lagrangian(
            1, eval=lambda t, x, v: np.where(t < 1.0, v[..., 0], np.nan), d_t=lambda t, x, v: 0.0
        )
        series = LG.second_el_quantity(L, self.x, 0.5)
        assert not series.mask[-1] and np.all(series.mask[:-1])


class TestGroupShapeErrors:
    def setup_method(self):
        grid = F.make_grid(0.0, 1.0, 32)
        self.x = F.make_trajectory(grid, np.column_stack([grid.nodes, grid.nodes**2]))

    def group(self, **overrides):
        fields = dict(
            phi0=lambda s, t: t,
            phi1=lambda s, x: x,
            zeta=lambda t: 0.0,
            xi=lambda x: np.zeros_like(x),
        )
        fields.update(overrides)
        return SY.GroupSpec(**fields)

    def test_xi_component_count(self):
        g = self.group(xi=lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="xi must return one component per configuration"):
            NO.noether_quantity(PR.kappa_lagrangian(-1.0), g, self.x, 0.5)

    def test_phi1_component_count(self):
        g = self.group(phi1=lambda s, x: x[..., :1])
        with pytest.raises(ValueError, match="phi1 must preserve the component count"):
            SY.check_chain_rule(g, self.x, 0.5, 0.1)

    def test_zeta_one_value_per_node(self):
        g = self.group(zeta=lambda t: np.zeros(3))
        with pytest.raises(ValueError, match="zeta must return one value per node"):
            NO.infinitesimal_criterion_residual(PR.kappa_lagrangian(-1.0), g, self.x, 0.5)
