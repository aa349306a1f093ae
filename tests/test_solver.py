"""Tests for the linear fractional boundary-value solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnoether import _kernels
from fracnoether import fracops as F
from fracnoether import lagrangian as Lmod
from fracnoether import solver as S

# x'' = x, x(0)=1, x(1)=2 => x = C1 e^t + C2 e^{-t}
C1 = 0.6944004854896559
C2 = 0.3055995145103441

# sup |EL residual| over the centered window [a + (b-a)/8, b - (b-a)/8]
# on the computed alpha < 1 trajectories; converges upward to a finite
# limit even though the full-interior sup grows like h^{-alpha}
WINDOW_SUP = {
    0.5: {100: 2.754321930102323, 200: 2.8104502025099105, 400: 2.8107599610200626},
    0.75: {100: 2.2365723266053936, 200: 2.30623633983953, 400: 2.3073413420243982},
}


def harmonic_problem(n_sub, alpha, dim=2, kappa=-1.0):
    grid = F.make_grid(0.0, 1.0, n_sub)
    if dim == 2:
        bc = S.dirichlet((1.0, 2.0), (2.0, 1.0))
    else:
        bc = S.dirichlet(1.0, 2.0)
    return S.LinearProblem(grid=grid, alpha=alpha, dim=dim, kappa=kappa, bc=bc)


class TestProblemValidation:
    def test_dirichlet_factory(self):
        bc = S.dirichlet((1.0, 2.0), (3.0, 4.0))
        assert isinstance(bc, S.DirichletBC)
        assert np.array_equal(bc.xa, [1.0, 2.0])

    def test_initial_factory(self):
        bc = S.initial(0.0, 1.0)
        assert isinstance(bc, S.InitialBC)
        assert bc.u0.shape == (1,) and bc.du0.shape == (1,)

    def test_bc_length_mismatch(self):
        grid = F.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="length"):
            S.LinearProblem(
                grid=grid, alpha=0.5, dim=2, kappa=-1.0, bc=S.dirichlet(1.0, 2.0)
            )

    def test_nonfinite_kappa_rejected(self):
        grid = F.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="kappa"):
            S.LinearProblem(
                grid=grid, alpha=0.5, dim=1, kappa=np.nan, bc=S.dirichlet(1.0, 2.0)
            )

    @pytest.mark.parametrize(
        "bc, message",
        [
            (S.dirichlet([np.nan], [1.0]), "xa must be finite"),
            (S.initial([0.0], [np.inf]), "du0 must be finite"),
        ],
        ids=["dirichlet-nan-xa", "initial-inf-du0"],
    )
    def test_nonfinite_boundary_data_rejected(self, bc, message):
        grid = F.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError, match=message):
            S.LinearProblem(grid=grid, alpha=0.5, dim=1, kappa=-1.0, bc=bc)

    def test_alpha_out_of_range_rejected(self):
        grid = F.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            S.LinearProblem(
                grid=grid, alpha=1.5, dim=1, kappa=-1.0, bc=S.dirichlet(1.0, 2.0)
            )

    def test_unknown_bc_type_rejected(self):
        grid = F.make_grid(0.0, 1.0, 8)
        with pytest.raises(TypeError):
            S.LinearProblem(grid=grid, alpha=0.5, dim=1, kappa=-1.0, bc=(1.0, 2.0))

    def test_order_object_accepted(self):
        grid = F.make_grid(0.0, 1.0, 8)
        p = S.LinearProblem(
            grid=grid,
            alpha=F.FractionalOrder(0.5),
            dim=1,
            kappa=-1.0,
            bc=S.dirichlet(1.0, 2.0),
        )
        assert p.alpha.alpha == 0.5


# frozen dataclasses with array fields compare and hash by identity: value
# equality of arrays is ambiguous
IDENTITY_EQUAL = {
    "DirichletBC": lambda: S.dirichlet((1.0, 2.0), (3.0, 4.0)),
    "InitialBC": lambda: S.initial((1.0, 2.0), (3.0, 4.0)),
    "LinearProblem": lambda: harmonic_problem(16, 0.5),
    "AssembledSystem": lambda: S.assemble(harmonic_problem(16, 0.5)),
    "ClassicalReference": lambda: S.classical_reference(0.0, 1.0, (1.0, 2.0), (2.0, 1.0)),
}


@pytest.mark.parametrize("make", IDENTITY_EQUAL.values(), ids=IDENTITY_EQUAL.keys())
def test_equal_values_compare_unequal_and_hash(make):
    first, second = make(), make()
    assert (first == second) is False
    assert first == first
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


class TestBoundaryShape:
    def test_endpoints_exact(self):
        grid = F.make_grid(2.5, 3.5, 16)
        for alpha in (0.3, 0.5, 1.0):
            s = S.boundary_shape(grid, alpha)
            assert s[0] == 0.0
            assert s[-1] == 1.0
            assert np.all(np.diff(s) > 0.0)

    def test_alpha_one_is_affine(self):
        grid = F.make_grid(0.0, 2.0, 10)
        s = S.boundary_shape(grid, 1.0)
        assert np.allclose(s, grid.nodes / 2.0, atol=1e-15)


def dense_system(problem):
    """The system matrix I - kappa*K + kappa*outer(S, K[N]) with its data
    rows, from the dense operator product K = I_left @ I_right."""
    grid, order, kappa = problem.grid, problem.alpha, problem.kappa
    k_mat = F.left_integral_matrix(grid, order) @ F.right_integral_matrix(grid, order)
    s = S.boundary_shape(grid, order)
    m = np.eye(grid.n_nodes) - kappa * k_mat + kappa * np.outer(s, k_mat[-1])
    m[0] = 0.0
    m[0, 0] = 1.0
    m[-1] = 0.0
    if isinstance(problem.bc, S.DirichletBC):
        m[-1, -1] = 1.0
    else:
        # x(b) is unknown: its right-hand-side coupling S_k X_N moves into
        # the matrix, and row N is the one-sided difference
        m[1:-1, -1] -= s[1:-1]
        m[-1, 0] = -1.0 / grid.h
        m[-1, 1] = 1.0 / grid.h
    return m


class TestAssemble:
    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.0),
        n_sub=st.integers(2, 300),
        a=st.floats(-10.0, 10.0),
        length=st.floats(1e-2, 10.0),
        kappa=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_matches_dense_oracle(self, alpha, n_sub, a, length, kappa, seed):
        # the FFT apply against the dense system matrix, row by row within
        # 1e-13 of that row's |M| |x|, for both kinds of data rows
        grid = F.make_grid(a, a + length, n_sub)
        x = np.random.default_rng(seed).standard_normal(grid.n_nodes)
        for bc in (S.dirichlet(1.0, 2.0), S.initial(0.0, 1.0)):
            p = S.LinearProblem(grid=grid, alpha=alpha, dim=1, kappa=kappa, bc=bc)
            m = dense_system(p)
            got = S.assemble(p).apply(x)
            assert np.all(np.abs(got - m @ x) <= 1e-13 * (np.abs(m) @ np.abs(x)))

    @pytest.mark.parametrize(
        "bc",
        [S.dirichlet((1.0, 2.0), (2.0, 1.0)), S.initial((0.0, 1.0), (1.0, 0.0))],
        ids=["dirichlet", "initial"],
    )
    def test_assemble_peak_allocation(self, bc):
        # one (N+1)^2 array alive at once, the integral weight fill; the
        # system keeps only O(N) vectors
        grid = F.make_grid(0.0, 1.0, 800)
        p = S.LinearProblem(grid=grid, alpha=0.5, dim=2, kappa=-1.0, bc=bc)
        S.assemble(p)
        tracemalloc.start()
        try:
            S.assemble(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * grid.n_nodes**2

    @pytest.mark.parametrize(
        "bc",
        [S.dirichlet((1.0, 2.0), (2.0, 1.0)), S.initial((0.0, 1.0), (1.0, 0.0))],
        ids=["dirichlet", "initial"],
    )
    def test_one_weight_fill_per_assemble(self, bc, monkeypatch):
        # the symbol and column 0 both come from one right integral matrix,
        # a flipped view of one left fill
        fills = []
        integral_weights = _kernels.integral_weights

        def counted(*args):
            fills.append(args)
            return integral_weights(*args)

        monkeypatch.setattr(_kernels, "integral_weights", counted)
        grid = F.make_grid(0.0, 1.0, 50)
        S.assemble(S.LinearProblem(grid=grid, alpha=0.5, dim=2, kappa=-1.0, bc=bc))
        assert len(fills) == 1

    def test_dirichlet_rows_on_unit_vectors(self):
        system = S.assemble(harmonic_problem(16, 0.5))
        n = 17
        for j, e in enumerate(np.eye(n)):
            y = system.apply(e)
            assert y[0] == (1.0 if j == 0 else 0.0)
            assert y[-1] == (1.0 if j == n - 1 else 0.0)
        assert np.array_equal(system.rhs[0], [1.0, 2.0])
        assert np.array_equal(system.rhs[-1], [2.0, 1.0])

    def test_initial_rows_on_unit_vectors(self):
        # row 0 pins x(a); row N is the one-sided difference (X_1 - X_0)/h
        grid = F.make_grid(0.0, 1.0, 16)
        p = S.LinearProblem(
            grid=grid, alpha=1.0, dim=1, kappa=0.25, bc=S.initial(0.5, 1.0)
        )
        system = S.assemble(p)
        row_n = np.zeros(17)
        row_n[0] = -1.0 / grid.h
        row_n[1] = 1.0 / grid.h
        for j, e in enumerate(np.eye(17)):
            y = system.apply(e)
            assert y[0] == (1.0 if j == 0 else 0.0)
            assert y[-1] == row_n[j]
        assert system.rhs[0] == 0.5
        assert system.rhs[-1] == 1.0

    def test_rhs_interpolates_boundary_data(self):
        grid = F.make_grid(0.0, 1.0, 16)
        system = S.assemble(harmonic_problem(16, 0.5))
        s = S.boundary_shape(grid, 0.5)
        ref = np.outer(1.0 - s, [1.0, 2.0]) + np.outer(s, [2.0, 1.0])
        assert np.max(np.abs(system.rhs - ref)) < 1e-15


class TestAgainstDenseOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.0),
        n_sub=st.integers(2, 300),
        a=st.floats(-10.0, 10.0),
        length=st.floats(1e-2, 10.0),
        kappa=st.floats(-5.0, 5.0),
        initial=st.booleans(),
        data=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    )
    def test_solve_matches_numpy_solve(
        self, alpha, n_sub, a, length, kappa, initial, data
    ):
        # GMRES against numpy.linalg.solve on the dense oracle matrix: the
        # two agree to a multiple of the condition number times rounding,
        # and a solve is refused only when the oracle is ill-conditioned
        grid = F.make_grid(a, a + length, n_sub)
        bc = (S.initial if initial else S.dirichlet)(data[:2], data[2:])
        p = S.LinearProblem(grid=grid, alpha=alpha, dim=2, kappa=kappa, bc=bc)
        m = dense_system(p)
        cond = np.linalg.cond(m)
        try:
            report = S.solve(p)
        except S.NumericalFailure:
            assert cond > 1e10
            return
        expected = np.linalg.solve(m, S.assemble(p).rhs)
        scale = max(np.max(np.abs(expected)), 1e-300)
        err = np.max(np.abs(report.solution.values - expected)) / scale
        assert err <= 1e-13 * cond
        assert report.backward_error <= S.TOL
        assert 1.0 <= report.condition_estimate <= cond * grid.n_nodes


class TestGmres:
    def test_plain_callables_match_numpy_solve(self):
        # a small nonsymmetric dense system with the identity preconditioner
        rng = np.random.default_rng(7)
        a = np.eye(12) * 4.0 + rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        anorm = float(np.max(np.sum(np.abs(a), axis=1)))
        x, r, steps = S._gmres(lambda v: a @ v, lambda v: v, b, np.zeros(12), anorm)
        expected = np.linalg.solve(a, b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(r, b - a @ x)
        assert 0 < steps <= 12

    def test_breakdown_raises(self):
        # A = 0: the first Arnoldi step has no direction left to rotate
        with pytest.raises(S.NumericalFailure, match="GMRES broke down"):
            S._gmres(lambda v: np.zeros_like(v), lambda v: v, np.ones(8), np.zeros(8), 1.0)


class TestAssembledMembers:
    def test_dirichlet_members(self):
        p = harmonic_problem(16, 0.5)
        system = S.assemble(p)
        assert system.free == 16 - 1
        assert np.array_equal(system.start, system.rhs)
        assert system.start is not system.rhs
        ones = system.apply(np.ones(17))
        assert system.anorm == max(1.0, float(np.max(np.abs(ones))))
        assert system.anorm >= 1.0
        assert system.context == ""

    def test_initial_members(self):
        grid = F.make_grid(0.0, 1.0, 16)
        p = S.LinearProblem(
            grid=grid, alpha=0.5, dim=2, kappa=1.0, bc=S.initial((0.5, 1.0), (1.0, -2.0))
        )
        system = S.assemble(p)
        assert system.free == 16
        assert np.array_equal(system.start[:-1], system.rhs[:-1])
        assert np.array_equal(system.start[-1], [0.0, 0.0])
        assert np.array_equal(system.rhs[-1], [1.0, -2.0])
        assert system.anorm >= 2.0 / grid.h
        assert "one-sided difference" in system.context

    @pytest.mark.parametrize(
        "bc",
        [S.dirichlet((1.0, 2.0), (2.0, 1.0)), S.initial((0.0, 1.0), (1.0, 0.0))],
        ids=["dirichlet", "initial"],
    )
    def test_precondition_passes_the_data_rows(self, bc):
        p = S.LinearProblem(grid=F.make_grid(0.0, 1.0, 16), alpha=0.5, dim=2, kappa=1.0, bc=bc)
        system = S.assemble(p)
        v = np.arange(1.0, 18.0)
        out = system.precondition(v)
        assert out[0] == v[0]
        assert (out[-1] == v[-1]) == (system.free == 15)


class TestClassicalReference:
    def test_fit_coefficients(self):
        ref = S.classical_reference(0.0, 1.0, 1.0, 2.0)
        assert abs(ref.c1[0] - C1) < 1e-15
        assert abs(ref.c2[0] - C2) < 1e-15

    def test_interpolates_boundary_data(self):
        ref = S.classical_reference(0.0, 1.0, (1.0, 2.0), (2.0, 1.0))
        assert np.allclose(ref.value(0.0), [1.0, 2.0], atol=1e-14)
        assert np.allclose(ref.value(1.0), [2.0, 1.0], atol=1e-14)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            S.classical_reference(1.0, 1.0, 1.0, 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            S.classical_reference(0.0, 1.0, (1.0, 2.0), 1.0)


class TestSolveDirichlet:
    def test_kappa_zero_alpha_one_is_affine(self):
        report = S.solve(
            S.LinearProblem(
                grid=F.make_grid(0.0, 1.0, 40),
                alpha=1.0,
                dim=1,
                kappa=0.0,
                bc=S.dirichlet(1.0, 3.0),
            )
        )
        nodes = report.solution.grid.nodes
        assert np.max(np.abs(report.solution.values[:, 0] - (1.0 + 2.0 * nodes))) < 1e-12

    def test_kappa_zero_solution_is_boundary_shape(self):
        # with no coupling the solution is exactly the interpolant
        # (1-S) x(a) + S x(b)
        grid = F.make_grid(0.0, 1.0, 40)
        report = S.solve(
            S.LinearProblem(
                grid=grid, alpha=0.5, dim=1, kappa=0.0, bc=S.dirichlet(0.0, 1.0)
            )
        )
        s = S.boundary_shape(grid, 0.5)
        assert np.max(np.abs(report.solution.values[:, 0] - s)) < 1e-12

    def test_classical_limit_convergence(self):
        # alpha = 1 solve approaches c1 e^t + c2 e^{-t}; sup error at
        # N = 200 well under 1e-3 and decreasing as N doubles
        ref = S.classical_reference(0.0, 1.0, 1.0, 2.0)
        errs = []
        for n_sub in (50, 100, 200):
            report = S.solve(harmonic_problem(n_sub, 1.0, dim=1))
            nodes = report.solution.grid.nodes
            errs.append(
                np.max(np.abs(report.solution.values[:, 0] - ref.value(nodes)))
            )
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-3
        # quadrature and difference rows are second order: ~4x per halving
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_classical_limit_two_components(self):
        ref = S.classical_reference(0.0, 1.0, (1.0, 2.0), (2.0, 1.0))
        report = S.solve(harmonic_problem(200, 1.0))
        nodes = report.solution.grid.nodes
        assert np.max(np.abs(report.solution.values - ref.value(nodes))) <= 1e-3

    def test_endpoints_bitwise(self):
        report = S.solve(harmonic_problem(32, 0.5))
        assert np.array_equal(report.solution.values[0], [1.0, 2.0])
        assert np.array_equal(report.solution.values[-1], [2.0, 1.0])

    def test_residual_and_condition(self):
        report = S.solve(harmonic_problem(200, 0.5))
        scale = np.max(np.abs(report.solution.values))
        assert report.residual_norm <= 1e-8 * max(1.0, scale)
        assert 1.0 <= report.condition_estimate < 1e3
        assert report.context == ""

    def test_repeat_solves_bit_identical(self):
        # the condition estimate comes from the solution, not from a
        # threaded factorization, so every reported number repeats exactly
        def run():
            r = S.solve(harmonic_problem(300, 0.7))
            return (
                [v.hex() for v in r.solution.values.ravel()],
                r.residual_norm.hex(),
                r.condition_estimate.hex(),
                r.backward_error.hex(),
                r.iterations,
            )

        assert run() == run()

    @pytest.mark.parametrize(
        "bc",
        [S.dirichlet((1.0, 2.0), (2.0, 1.0)), S.initial((0.0, 1.0), (1.0, 0.0))],
        ids=["dirichlet", "initial"],
    )
    def test_report_diagnostics(self, bc):
        grid = F.make_grid(0.0, 1.0, 200)
        report = S.solve(
            S.LinearProblem(grid=grid, alpha=0.5, dim=2, kappa=-1.0, bc=bc)
        )
        assert 0 < report.iterations <= 2 * S.MAX_ITERATIONS
        assert 0.0 <= report.backward_error <= S.TOL

    def test_superposition_in_boundary_data(self):
        # the map (xa, xb) -> solution is affine; solve three related
        # problems and check the convex combination transfers
        def solution(xa, xb):
            p = S.LinearProblem(
                grid=F.make_grid(0.0, 1.0, 32),
                alpha=0.6,
                dim=1,
                kappa=-1.0,
                bc=S.dirichlet(xa, xb),
            )
            return S.solve(p).solution.values[:, 0]

        lam = 0.3
        first = solution(1.0, 2.0)
        second = solution(-0.5, 0.7)
        mixed = solution(
            lam * 1.0 + (1.0 - lam) * -0.5, lam * 2.0 + (1.0 - lam) * 0.7
        )
        assert np.max(np.abs(mixed - (lam * first + (1.0 - lam) * second))) < 1e-10

    def test_general_interval(self):
        # translation of the interval only reparameterizes the shape
        # factor; endpoints still match the data exactly
        grid = F.make_grid(2.0, 3.5, 48)
        report = S.solve(
            S.LinearProblem(
                grid=grid, alpha=0.7, dim=1, kappa=-1.0, bc=S.dirichlet(0.5, -1.0)
            )
        )
        assert report.solution.values[0, 0] == 0.5
        assert report.solution.values[-1, 0] == -1.0
        assert np.all(np.isfinite(report.solution.values))


class TestSolveInitial:
    def test_oscillator_alpha_one(self):
        # x'' = -omega^2 x with x(0)=0, x'(0)=1 has solution sin(omega t)/omega;
        # kappa = omega^2 because the two-sided operator at alpha=1 is -d^2/dt^2
        for omega in (0.5, 1.0):
            errs = []
            for n_sub in (100, 200):
                grid = F.make_grid(0.0, 1.0, n_sub)
                p = S.LinearProblem(
                    grid=grid,
                    alpha=1.0,
                    dim=1,
                    kappa=omega**2,
                    bc=S.initial(0.0, 1.0),
                )
                report = S.solve(p)
                exact = np.sin(omega * grid.nodes) / omega
                errs.append(np.max(np.abs(report.solution.values[:, 0] - exact)))
            assert errs[0] > errs[1]
            assert errs[1] < 1e-4

    def test_initial_values_imposed(self):
        grid = F.make_grid(0.0, 1.0, 64)
        p = S.LinearProblem(
            grid=grid, alpha=1.0, dim=1, kappa=0.25, bc=S.initial(0.5, -1.0)
        )
        report = S.solve(p)
        x = report.solution.values[:, 0]
        assert x[0] == 0.5
        assert abs((x[1] - x[0]) / grid.h - (-1.0)) < 1e-9
        assert "first-order" in report.context


class TestConsistency:
    def test_alpha_one_el_residual_decreases(self):
        # the solver solution should approximately satisfy the
        # stationarity condition; at alpha = 1 the interior sup shrinks
        L = Lmod.make_lagrangian(
            2,
            eval=lambda t, x, v: 0.5 * (np.dot(x, x) + np.dot(v, v)),
            d_t=lambda t, x, v: 0.0,
            d_x=lambda t, x, v: x,
            d_v=lambda t, x, v: v,
        )
        sups = []
        for n_sub in (100, 200, 400):
            report = S.solve(harmonic_problem(n_sub, 1.0))
            res = Lmod.el_residual(L, report.solution, 1.0)
            sups.append(np.max(np.abs(res.values[1:-1])))
        assert sups[0] > sups[1] > sups[2]
        assert sups[1] <= 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_fractional_el_residual_window_stabilizes(self, alpha):
        # for alpha < 1 the residual near the endpoints grows like
        # h^{-alpha} (the L1 rule is not pointwise consistent against the
        # singular layer), so convergence is judged on a centered window
        L = Lmod.make_lagrangian(
            2,
            eval=lambda t, x, v: 0.5 * (np.dot(x, x) + np.dot(v, v)),
            d_t=lambda t, x, v: 0.0,
            d_x=lambda t, x, v: x,
            d_v=lambda t, x, v: v,
        )
        window_sups = {}
        for n_sub in (100, 200, 400):
            report = S.solve(harmonic_problem(n_sub, alpha))
            res = Lmod.el_residual(L, report.solution, alpha)
            nodes = report.solution.grid.nodes
            window = (nodes >= 0.125) & (nodes <= 0.875)
            window_sups[n_sub] = np.max(np.abs(res.values[window]))
        for n_sub, frozen in WINDOW_SUP[alpha].items():
            assert window_sups[n_sub] == pytest.approx(frozen, rel=5e-3)
        gaps = [
            abs(window_sups[200] - window_sups[100]),
            abs(window_sups[400] - window_sups[200]),
        ]
        assert gaps[0] > gaps[1]


class TestNumericalFailure:
    def test_singular_kappa_raises(self):
        # on the two-interval grid the interior equation is scalar:
        # x1*(1 - kappa*(K_11 - S_1*K_N1)) = rhs_1, so kappa equal to the
        # reciprocal makes the matrix exactly singular
        grid = F.make_grid(0.0, 1.0, 2)
        k_mat = (
            F.left_integral_matrix(grid, 0.5)
            @ F.right_integral_matrix(grid, 0.5)
        )
        s = S.boundary_shape(grid, 0.5)
        kappa_star = 1.0 / (k_mat[1, 1] - s[1] * k_mat[2, 1])
        p = S.LinearProblem(
            grid=grid, alpha=0.5, dim=1, kappa=kappa_star, bc=S.dirichlet(1.0, 2.0)
        )
        with pytest.raises(S.NumericalFailure, match="condition estimate"):
            S.solve(p)

    def test_iteration_cap_raises(self, monkeypatch):
        # a GMRES that cannot reach its backward-error target within the
        # cap is refused, with the same wording as a singular system
        monkeypatch.setattr(S, "MAX_ITERATIONS", 2)
        with pytest.raises(S.NumericalFailure, match="condition estimate .*after 2 iterations"):
            S.solve(harmonic_problem(64, 0.5))

    @pytest.mark.parametrize("a, b", [(0.0, 1e200), (1e300, 1.0000000001e300)])
    def test_cycle_that_leaves_x_unchanged_stops(self, a, b):
        # the oscillator's data overflow and the first cycle, 21 steps on
        # the 21 nodes, leaves x = 0: every later cycle would repeat it
        p = S.LinearProblem(
            grid=F.make_grid(a, b, 20),
            alpha=0.5,
            dim=1,
            kappa=-1.0,
            bc=S.initial(np.array([0.0]), np.array([1.0])),
        )
        message = (
            r"condition estimate 1\.000e\+00\); "
            r"GMRES backward error 1\.0e\+00 above 1e-14 after 21 iterations$"
        )
        with pytest.raises(S.NumericalFailure, match=message):
            S.solve(p)

    def test_non_finite_solution_raises(self, monkeypatch):
        monkeypatch.setattr(S.AssembledSystem, "precondition", lambda self, v: v * np.nan)
        with pytest.raises(S.NumericalFailure, match="non-finite"):
            S.solve(harmonic_problem(16, 0.5))

    def test_failure_is_runtime_error(self):
        assert issubclass(S.NumericalFailure, RuntimeError)
