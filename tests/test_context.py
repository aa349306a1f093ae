"""One evaluation context per (L, x, alpha, convention), shared by every
public series and check: sharing changes no value, mask or context, each
ingredient is taken once, and one context is alive at a time."""

import math
import pathlib
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from fracnoether import _kernels, cli
from fracnoether import fracops as F
from fracnoether import lagrangian as LG
from fracnoether import noether as NO
from fracnoether import presets as PR
from fracnoether import symmetry as SY

from common import count_convolutions, count_left_applies, count_right_applies

ALPHA = 0.6
N_SUB = 48
PRESETS = pathlib.Path(__file__).resolve().parents[1] / "presets"


def _rotation_and_translation():
    # zeta = 1 and xi = Jx: the quantities take D_a+ of both xdot and xi,
    # and check_invariance D_a+ of four rotated copies of x
    rotation = SY.space_rotation()
    return SY.GroupSpec(
        phi0=lambda s, t: t + s, phi1=rotation.phi1, zeta=lambda t: 1.0, xi=rotation.xi, lam=0.0
    )


GROUP = _rotation_and_translation()


def _lagrangian():
    return PR.kappa_lagrangian(-1.0, dim=2)


def _paths():
    grid = F.make_grid(0.0, 1.0, N_SUB)
    s = grid.nodes
    x = F.make_trajectory(grid, np.stack([1.0 + np.sin(s), s + s**2], axis=1))
    u = F.make_trajectory(grid, np.sin(s))
    return x, u


def _calls(convention):
    # the public functions that evaluate a Lagrangian along x, in each
    # variant; those that take a convention take ``convention``
    c = {"convention": convention}
    return {
        "noether_quantity-conslaw": lambda L, x, u: NO.noether_quantity(L, GROUP, x, ALPHA, **c),
        "noether_quantity-conslaw2": lambda L, x, u: NO.noether_quantity(
            L, GROUP, x, ALPHA, variant="conslaw2", **c
        ),
        "autonomous_quantity": lambda L, x, u: NO.autonomous_quantity(L, x, ALPHA, **c),
        "oscillator_quantity": lambda L, x, u: NO.oscillator_quantity(u, 1.3, ALPHA),
        "criterion-weighted": lambda L, x, u: NO.infinitesimal_criterion_residual(
            L, GROUP, x, ALPHA, **c
        ),
        "criterion-unweighted": lambda L, x, u: NO.infinitesimal_criterion_residual(
            L, GROUP, x, ALPHA, ce_alpha_factor=False, **c
        ),
        "weak_theorem_residual": lambda L, x, u: NO.weak_theorem_residual(L, GROUP, x, ALPHA, **c),
        "el_residual": lambda L, x, u: LG.el_residual(L, x, ALPHA),
        "second_el_quantity": lambda L, x, u: LG.second_el_quantity(L, x, ALPHA),
        "extended_el_residual-weighted": lambda L, x, u: LG.extended_el_residual(
            LG.extend(L, ALPHA), x
        ),
        "extended_el_residual-unweighted": lambda L, x, u: LG.extended_el_residual(
            LG.extend(L, ALPHA), x, alpha_factor=False
        ),
        "action": lambda L, x, u: LG.action(L, x, ALPHA),
        "check_invariance": lambda L, x, u: SY.check_invariance(L, GROUP, x, ALPHA),
    }


def _fingerprint(result):
    """Every byte a caller can read off a result."""
    if isinstance(result, tuple):
        return tuple(_fingerprint(r) for r in result)
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, SY.CheckReport):
        return (result.passed, result.max_violation.hex(), result.samples, result.context)
    context = result.context if isinstance(result, LG.QuantitySeries) else None
    return (result.values.tobytes(), result.mask.tobytes(), context)


@pytest.fixture(scope="module", params=["caputo", "rl"])
def fresh(request):
    # each function alone on its own (L, x): a context of its own
    convention = request.param
    return convention, {
        name: _fingerprint(call(_lagrangian(), *_paths()))
        for name, call in _calls(convention).items()
    }


class TestSharingChangesNothing:
    @pytest.mark.parametrize("order", ["listed", "reversed", "shuffled"])
    def test_every_function_after_all_others(self, fresh, order):
        convention, reference = fresh
        calls = list(_calls(convention).items())
        if order == "reversed":
            calls.reverse()
        elif order == "shuffled":
            random.Random(25).shuffle(calls)
        L, (x, u) = _lagrangian(), _paths()
        # twice through: the second pass reads only what the first cached
        for _ in range(2):
            for name, call in calls:
                assert _fingerprint(call(L, x, u)) == reference[name], name

    def test_conventions_alternating_on_one_trajectory(self, fresh):
        # the slot swaps between the two conventions' contexts on every call
        convention, reference = fresh
        other = "rl" if convention == "caputo" else "caputo"
        L, (x, u) = _lagrangian(), _paths()
        for name, call in _calls(convention).items():
            _calls(other)[name](L, x, u)
            assert _fingerprint(call(L, x, u)) == reference[name], name

    def test_conslaw2_after_conslaw_names_no_right_derivative(self):
        L, (x, _) = _lagrangian(), _paths()
        assert "D_b-" in NO.noether_quantity(L, GROUP, x, ALPHA).context
        q2 = NO.noether_quantity(L, GROUP, x, ALPHA, variant="conslaw2")
        assert "D_b-" not in q2.context


class TestLeftMap:
    def test_equal_bytes_hit_and_one_ulp_misses(self, monkeypatch):
        calls = count_convolutions(monkeypatch)
        L, (x, _) = _lagrangian(), _paths()
        along = LG._along(L, x, ALPHA, "test")
        y = np.cos(np.outer(x.grid.nodes, [1.0, 2.0]))
        first = along.left(y)
        assert len(calls) == 2  # D_a+ x, then D_a+ y
        # equal bytes in another array, through another lookup, and y in the
        # other convention: no new convolution; x's bytes give D_a+ x itself
        again = LG._along(L, x, ALPHA, "test").left(y.copy())
        assert again.tobytes() == first.tobytes()
        assert along.left(x.values.copy()) is along.dxa
        LG._along(L, x, ALPHA, "test", "rl").left(y.copy())
        assert len(calls) == 2
        bumped = y.copy()
        bumped[7, 1] = np.nextafter(bumped[7, 1], math.inf)
        other = along.left(bumped)
        assert len(calls) == 3
        # on a fresh profile, with fresh blocks, the same bits
        _kernels._profile.cache_clear()
        applied = F.caputo_left(x.grid, ALPHA, F.make_trajectory(x.grid, bumped))
        assert len(calls) == 4
        assert other.tobytes() == applied.values.tobytes()

    def test_xi_equal_to_x_takes_d_a_x_itself(self, monkeypatch):
        # phi1_s(x) = e^s x has xi(x) = x, here a copy equal to x bit for
        # bit: the quantity applies D_a+ to x and xdot only
        applies = count_left_applies(monkeypatch)

        def scaling(sign):
            return SY.GroupSpec(
                phi0=lambda s, t: t,
                phi1=lambda s, x: math.exp(sign * s) * np.asarray(x, dtype=float),
                zeta=lambda t: 0.0,
                xi=lambda x: sign * np.array(x, dtype=float),
                lam=0.0,
            )

        L, (x, _) = _lagrangian(), _paths()
        q = NO.noether_quantity(L, scaling(1.0), x, ALPHA)
        xdot = np.gradient(x.values, x.grid.h, axis=0, edge_order=2)
        assert applies[0] is x
        assert [y.values.tobytes() for y in applies[1:]] == [xdot.tobytes()]
        # against the applied path: xi = -x is applied (after xdot again),
        # and every rounding step is symmetric under negation, so the values
        # are equal (node 0 is 0.0 against -0.0)
        inverse = NO.noether_quantity(L, scaling(-1.0), x, ALPHA)
        assert [y.values.tobytes() for y in applies[3:]] == [(-x.values).tobytes()]
        assert np.array_equal(q.mask, inverse.mask)
        assert np.array_equal(q.values, -inverse.values, equal_nan=True)

    def test_many_series_keep_a_bounded_map(self, monkeypatch):
        calls = count_convolutions(monkeypatch)
        L, (x, _) = _lagrangian(), _paths()
        along = LG._along(L, x, ALPHA, "test")
        series = [np.cos(np.outer(x.grid.nodes, [1.0, k])) for k in range(2, 22)]
        for y in series:
            along.left(y)
        # the blocks of the L1 profile, as the last convolution saw them
        assert len(calls[-1][1]["results"]) == _kernels._KEPT
        # the newest series are kept, the oldest recomputed bit for bit
        along.left(series[-1])
        assert len(calls) == 1 + len(series)
        old = along.left(series[0])
        assert len(calls) == 2 + len(series)
        _kernels._profile.cache_clear()
        applied = F.caputo_left(x.grid, ALPHA, F.make_trajectory(x.grid, series[0]))
        assert old.tobytes() == applied.values.tobytes()

    def test_cached_ingredients_are_read_only(self, monkeypatch):
        calls = count_convolutions(monkeypatch)
        L, (x, u) = _lagrangian(), _paths()
        for call in _calls("caputo").values():
            call(L, x, u)
        along = LG._along(L, x, ALPHA, "test")
        kept = [out for _, blocks in calls for _, out in blocks["results"]]
        cached = [along.dxa, along._right, *along._partials.values(), *kept]
        assert len(along._partials) == 4 and len(kept) >= _kernels._KEPT
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def _counting_lagrangian(L, calls):
    # counts the batch calls per evaluator and series (t, x, v by bytes)
    def wrap(name, fn):
        def call(t, x, v):
            if np.ndim(t) == 1:
                key = (name, *(np.asarray(a, dtype=float).tobytes() for a in (t, x, v)))
                calls[key] = calls.get(key, 0) + 1
            return fn(t, x, v)

        return call

    return LG.LagrangianSpec(
        dim=L.dim, **{k: wrap(k, getattr(L, k)) for k in ("eval", "d_t", "d_x", "d_v")}
    )


class TestApplyBudget:
    def test_analysis_battery_takes_each_ingredient_once(self, monkeypatch):
        # the analysis-3200 job at a small grid: example2 under the
        # dilation, then the harmonic closed form at alpha = 1
        convolutions = count_convolutions(monkeypatch)
        rights = count_right_applies(monkeypatch)
        evaluations = {}
        grid = F.make_grid(0.0, 1.0, 64)
        q = PR.example2_trajectory(grid)
        L = _counting_lagrangian(PR.example2_lagrangian(ALPHA), evaluations)
        g = SY.dilation(-1.0)
        NO.noether_quantity(L, g, q, ALPHA)
        NO.noether_quantity(L, g, q, ALPHA, variant="conslaw2")
        NO.infinitesimal_criterion_residual(L, g, q, ALPHA)
        F.check_composition(grid, ALPHA, q)
        SY.check_chain_rule(g, q, ALPHA, 0.5)
        SY.check_invariance(L, g, q, ALPHA)
        # D_a+ q, D_b- p and D_a+ qdot on the grid, then D_a+ on the chain
        # rule's dilated grid: the composition check, the chain rule's
        # original-grid side and the invariance samples reuse D_a+ q
        qdot = np.gradient(q.values, grid.h, axis=0, edge_order=2)
        slopes = [s.tobytes() for s, _ in convolutions]
        assert len(slopes) == 4
        assert slopes[0] == (np.diff(q.values, axis=0) / grid.h).tobytes()
        assert slopes[2] == (np.diff(qdot, axis=0) / grid.h).tobytes()
        assert len(rights) == 1

        xh = F.make_trajectory(grid, np.column_stack([np.cosh(grid.nodes), np.sinh(grid.nodes)]))
        Lh = _counting_lagrangian(PR.kappa_lagrangian(-1.0, dim=2), evaluations)
        tt = SY.time_translation()
        NO.noether_quantity(Lh, tt, xh, 1.0)
        NO.autonomous_quantity(Lh, xh, 1.0)
        NO.weak_theorem_residual(Lh, tt, xh, 1.0)
        LG.el_residual(Lh, xh, 1.0)
        # alpha = 1 takes finite differences, no convolution
        assert len(convolutions) == 4
        assert len(rights) == 2

        # each evaluator once per series: the four partials along q and
        # along xh, and eval on each of the four transformed series
        assert set(evaluations.values()) == {1}
        names = sorted(key[0] for key in evaluations)
        assert names == ["d_t"] * 2 + ["d_v"] * 2 + ["d_x"] * 2 + ["eval"] * 6

    def test_composition_check_convolves_once(self, monkeypatch):
        # the Caputo and RL derivatives of x share their slopes
        convolutions = count_convolutions(monkeypatch)
        x, _ = _paths()
        F.check_composition(x.grid, ALPHA, x)
        assert len(convolutions) == 1

    def test_check_command_on_example2_convolves_twice(self, monkeypatch, tmp_path):
        # the probe (t, t^2), which is also the preset trajectory, and the
        # chain rule's resampled probe on the dilated grid
        convolutions = count_convolutions(monkeypatch)
        config = str(PRESETS / "example2.cfg")
        assert cli.main(["check", "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert len(convolutions) == 2


class TestOneSlot:
    def test_a_call_on_another_trajectory_releases_x(self):
        L, (x, _) = _lagrangian(), _paths()
        y, _ = _paths()
        LG.action(L, x, ALPHA)
        held = weakref.ref(x)
        context = weakref.ref(LG._along(L, x, ALPHA, "test"))
        LG.action(L, y, ALPHA)
        del x
        assert held() is None
        assert context() is None

    def test_each_key_part_selects_a_new_context(self):
        L, (x, _) = _lagrangian(), _paths()

        def context(L, x, alpha, convention="caputo", what="test"):
            return LG._along(L, x, alpha, what, convention)

        for key in (
            (_lagrangian(), x, ALPHA),
            (L, _paths()[0], ALPHA),
            (L, x, 0.7),
            (L, x, ALPHA, "rl"),
        ):
            first = context(L, x, ALPHA)
            assert context(*key) is not first, key
        # the same order as a FractionalOrder, asked for by another caller
        shared = context(L, x, ALPHA)
        assert context(L, x, F.FractionalOrder(ALPHA), what="other") is shared


class TestThreads:
    def test_concurrent_calls_read_their_own_context(self):
        # more threads than cores, switching every microsecond: two share
        # one (L, x), two alternate between trajectories, so the slot and
        # the left map change under every call; each result stays the one
        # computed alone
        L, (x, u) = _lagrangian(), _paths()
        y = F.make_trajectory(x.grid, x.values[::-1])
        calls = _calls("caputo")
        names = ["noether_quantity-conslaw", "weak_theorem_residual", "check_invariance"]
        reference = {
            (name, which): _fingerprint(
                calls[name](_lagrangian(), F.make_trajectory(x.grid, p.values), u)
            )
            for name in names
            for which, p in (("x", x), ("y", y))
        }
        failures = []

        def work(paths):
            try:
                for k in range(30):
                    which, path = paths[k % len(paths)]
                    name = names[k % len(names)]
                    if _fingerprint(calls[name](L, path, u)) != reference[name, which]:
                        failures.append((name, which))
            except Exception as exc:  # reported below, with the thread's inputs
                failures.append(repr(exc))

        shared, both = [("x", x)], [("x", x), ("y", y)]
        threads = [threading.Thread(target=work, args=(p,)) for p in (shared, shared, both, both)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
