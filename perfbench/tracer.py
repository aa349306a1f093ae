"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps each target function and rebinds the wrapper
wherever the package holds the original: module attributes (so names
bound with ``from .fracops import caputo_left`` are covered) and the
values of module-level dicts (``noether._LEFT_OPS``,
``cli._COMMANDS``).  ``restore`` puts the originals back.  No package
source is touched.

Spans live in memory as tuples (id, name, start, end, parent, job, thread).
The parent is the innermost open span of the same thread; a span opened
by a thread with nothing open (the CLI's alpha pool) is parented to the
current job's root span.
"""

import contextlib
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import fracnoether


def _is_fractional(alpha):
    return float(getattr(alpha, "alpha", alpha)) < 1.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None
        self._job = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _count(self, name, value=1.0):
        with self._lock:
            self.counters[name] += value

    def _peak(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters[name], float(value))

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer._job, threading.get_ident())
                )
            if hook is not None:
                hook(tracer, args, result, None)
            return result

        return traced

    @contextlib.contextmanager
    def job(self, job_id):
        """One job's root span, opened on the main thread."""
        sid = next(self._ids)
        self._root, self._job = sid, job_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((sid, "job", start, end, None, job_id, threading.get_ident()))
            self._root = self._job = None

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "fracnoether" and not modname.startswith("fracnoether."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module.__dict__, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            self._patches.append((value, key, original))

    def install(self):
        for modname, attr, span, hook in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            if span is None:
                replacement = hook(self, original)
            else:
                replacement = self._wrap(span, original, hook)
            self._rebind(original, replacement)

    def restore(self):
        for mapping, key, original in reversed(self._patches):
            mapping[key] = original
        self._patches.clear()


# -- hooks: counters measured where the work happens ------------------------


def _apply_hook(tracer, args, result, exc):
    # slope-form apply at alpha < 1 materialises an n_sub x n_sub float64
    # Toeplitz matrix (computed, not measured, bytes)
    if exc is None and _is_fractional(args[1]):
        tracer._count("fracops.apply_computed_bytes", 8.0 * args[0].n_sub**2)


def _solve_hook(tracer, args, result, exc):
    problem = args[0]
    n, dim = problem.grid.n_nodes, problem.dim
    if exc is not None:
        if isinstance(exc, fracnoether.NumericalFailure):
            tracer._count("solver.numerical_failures")
        return
    # computed work of the dense path: the two weight fills, the flipped
    # copy, the product K, the system matrix and its LU factor are n x n
    # float64 arrays; K costs 2n^3 flops, LU 2n^3/3, the back-solve and the
    # residual 2n^2 per right-hand side each
    tracer._count("solver.computed_bytes", 6 * 8.0 * n * n)
    tracer._count("solver.computed_flops", 2.0 * n**3 + 2.0 * n**3 / 3.0 + 4.0 * n * n * dim)
    tracer._peak("solver.residual_max", result.residual_norm)
    tracer._peak("solver.cond_max", result.condition_estimate)


def _csv_hook(tracer, args, result, exc):
    if exc is None:
        tracer._count("cli.csv_bytes", os.path.getsize(args[0]))


def _count_evaluators(tracer, make_lagrangian):
    """Replacement for make_lagrangian whose specs count evaluator calls."""

    def counted(fn):
        def call(*args):
            tracer._count("lagrangian.evaluator_calls")
            return fn(*args)

        return call

    def instrumented(*args, **kwargs):
        spec = make_lagrangian(*args, **kwargs)
        return type(spec)(
            dim=spec.dim,
            eval=counted(spec.eval),
            d_t=counted(spec.d_t),
            d_x=counted(spec.d_x),
            d_v=counted(spec.d_v),
        )

    return instrumented


# (module, attribute, span name or None, hook).  A None span marks a
# replacement factory instead of a span.
TARGETS = (
    ("fracnoether._kernels", "integral_weights", "kernels.integral_weights", None),
    ("fracnoether._kernels", "l1_weights", "kernels.l1_weights", None),
    ("fracnoether.fracops", "left_integral_matrix", "fracops.left_integral_matrix", None),
    ("fracnoether.fracops", "right_integral_matrix", "fracops.right_integral_matrix", None),
    ("fracnoether.fracops", "caputo_left", "fracops.caputo_left", _apply_hook),
    ("fracnoether.fracops", "caputo_right", "fracops.caputo_right", _apply_hook),
    ("fracnoether.fracops", "rl_left", "fracops.rl_left", _apply_hook),
    ("fracnoether.fracops", "rl_right", "fracops.rl_right", _apply_hook),
    ("fracnoether.fracops", "check_composition", "fracops.check_composition", None),
    ("fracnoether.solver", "assemble", "solver.assemble", None),
    ("fracnoether.solver", "solve", "solver.solve", _solve_hook),
    ("fracnoether.lagrangian", "make_lagrangian", None, _count_evaluators),
    ("fracnoether.lagrangian", "el_residual", "lagrangian.el_residual", None),
    ("fracnoether.lagrangian", "second_el_quantity", "lagrangian.second_el_quantity", None),
    ("fracnoether.noether", "noether_quantity", "noether.noether_quantity", None),
    ("fracnoether.noether", "autonomous_quantity", "noether.autonomous_quantity", None),
    ("fracnoether.noether", "oscillator_quantity", "noether.oscillator_quantity", None),
    (
        "fracnoether.noether",
        "infinitesimal_criterion_residual",
        "noether.infinitesimal_criterion_residual",
        None,
    ),
    ("fracnoether.noether", "weak_theorem_residual", "noether.weak_theorem_residual", None),
    ("fracnoether.noether", "drift", "noether.drift", None),
    ("fracnoether.symmetry", "check_invariance", "symmetry.check_invariance", None),
    ("fracnoether.symmetry", "check_chain_rule", "symmetry.check_chain_rule", None),
    ("fracnoether.symmetry", "check_group_law", "symmetry.check_group_law", None),
    ("fracnoether.symmetry", "check_admissible", "symmetry.check_admissible", None),
    ("fracnoether.symmetry", "check_localization", "symmetry.check_localization", None),
    ("fracnoether.cli", "load_config", "cli.load_config", None),
    ("fracnoether.cli", "cmd_solve", "cli.cmd_solve", None),
    ("fracnoether.cli", "cmd_noether", "cli.cmd_noether", None),
    ("fracnoether.cli", "cmd_check", "cli.cmd_check", None),
    ("fracnoether.cli", "_write_csv", "cli.write_csv", _csv_hook),
)

SPAN_NAMES = tuple(span for _, _, span, _ in TARGETS if span is not None)


# -- reduction to per-layer metrics ------------------------------------------


def _union(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(spans):
    """Per span name: calls, inclusive seconds and self seconds.  Self time
    is a span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _, _, _ in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - _union(children.get(sid, ()), start, end)
    return totals


def layer_metrics(spans, counters, n_jobs, closed_form_err_max):
    """The per-layer metrics of BENCHMARK.json except import.* and trace.*;
    seconds, calls and bytes are per traced job."""
    totals = span_totals(spans)

    def calls(name):
        return totals[name][0] / n_jobs if name in totals else 0.0

    def incl(name):
        return totals[name][1] / n_jobs if name in totals else 0.0

    def self_s(name):
        return totals[name][2] / n_jobs if name in totals else 0.0

    def counter(name):
        return counters.get(name, 0.0) / n_jobs

    m = {
        "cli.load_config_s": (incl("cli.load_config"), "s"),
        "cli.cmd_self_s": (
            sum(self_s(f"cli.cmd_{c}") for c in ("solve", "noether", "check")),
            "s",
        ),
        "cli.csv_bytes": (counter("cli.csv_bytes"), "bytes"),
        "kernels.integral_weights_s": (incl("kernels.integral_weights"), "s"),
        "kernels.l1_weights_s": (incl("kernels.l1_weights"), "s"),
        "kernels.calls": (
            calls("kernels.integral_weights") + calls("kernels.l1_weights"),
            "count",
        ),
        "fracops.left_integral_matrix_s": (incl("fracops.left_integral_matrix"), "s"),
        "fracops.right_integral_matrix_s": (incl("fracops.right_integral_matrix"), "s"),
    }
    for op in ("caputo_left", "caputo_right", "rl_left", "rl_right", "check_composition"):
        m[f"fracops.{op}_s"] = (incl(f"fracops.{op}"), "s")
    m["fracops.apply_calls"] = (
        sum(calls(f"fracops.{op}") for op in ("caputo_left", "caputo_right", "rl_left", "rl_right")),
        "count",
    )
    m["fracops.apply_computed_bytes"] = (counter("fracops.apply_computed_bytes"), "bytes")
    m["solver.assemble_s"] = (incl("solver.assemble"), "s")
    m["solver.solve_self_s"] = (self_s("solver.solve"), "s")
    m["solver.calls"] = (calls("solver.solve"), "count")
    m["solver.numerical_failures"] = (counters.get("solver.numerical_failures", 0.0), "count")
    m["solver.computed_bytes"] = (counter("solver.computed_bytes"), "bytes")
    m["solver.computed_flops"] = (counter("solver.computed_flops"), "flops")
    m["solver.residual_max"] = (counters.get("solver.residual_max", 0.0), "1")
    m["solver.cond_max"] = (counters.get("solver.cond_max", 0.0), "1")
    m["solver.closed_form_err_max"] = (closed_form_err_max, "1")
    m["lagrangian.el_residual_s"] = (incl("lagrangian.el_residual"), "s")
    m["lagrangian.second_el_quantity_s"] = (incl("lagrangian.second_el_quantity"), "s")
    m["lagrangian.evaluator_calls"] = (counter("lagrangian.evaluator_calls"), "count")
    for fn in (
        "noether_quantity",
        "autonomous_quantity",
        "oscillator_quantity",
        "infinitesimal_criterion_residual",
        "weak_theorem_residual",
        "drift",
    ):
        m[f"noether.{fn}_s"] = (incl(f"noether.{fn}"), "s")
        m[f"noether.{fn}_self_s"] = (self_s(f"noether.{fn}"), "s")
    for fn in ("invariance", "chain_rule", "group_law", "admissible", "localization"):
        m[f"symmetry.check_{fn}_s"] = (incl(f"symmetry.check_{fn}"), "s")
    m["trace.unaccounted_s"] = (self_s("job"), "s")
    m["trace.job_s"] = (incl("job"), "s")
    return m


def span_calls(spans):
    """Call count per span name (for the coverage self-check)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for span in spans:
        if span[1] in calls:
            calls[span[1]] += 1
    return calls

