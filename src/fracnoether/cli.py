"""Command-line pipeline: solve problems, evaluate conserved-quantity
candidates, and run symmetry checks, emitting CSV files.

Commands (``fracnoether <command> --config <path> [--out <dir>]``):

* ``solve`` — for each configured order, solve the boundary-value
  problem and write ``solution_alpha<tag>.csv`` (``t,x1,...,xn``) and
  ``residual_alpha<tag>.csv`` (the stationarity residual per node).
* ``noether`` — solve (or take the preset trajectory), evaluate the
  configured quantity series, write ``quantity_alpha<tag>.csv`` and a
  ``drift_summary.csv``; exits 3 when a quantity flagged
  ``expected_conserved`` drifts beyond the configured tolerance.
* ``check`` — run the five structural checks for the configured group
  and Lagrangian and write ``checks.csv``; exits 3 unless all pass.  It
  runs at one order, the first one listed in ``alphas``, which need not
  be the smallest.

Exit codes: 0 success, 1 configuration error (a config file that cannot
be read and an outputs path that cannot be written included), 2
numerical failure, 3 check or conservation failure.  Nothing else is
ever returned.

Orders in a sweep run one after another, in ascending order, and their
files are written in that order.  Values are serialized with 17
significant digits and masked nodes as empty fields; every file starts
with ``#`` comment lines recording the problem, the operator
conventions the command used, and the tolerances in force.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import fracops as F
from . import lagrangian as LG
from . import noether as NO
from . import solver as SV
from . import symmetry as SY
from .config import (
    BCS,
    DEFAULT_GROUP_TOLERANCE,
    GROUPS,
    PROBLEMS,
    QUANTITIES,
    ConfigError,
    RunConfig,
    load_config,
)

CHAIN_RULE_S = 0.5


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _alpha_tag(alpha: float) -> str:
    return format(float(alpha), "g")


def _convention(config: RunConfig, command: str) -> str:
    """The D_a+ convention that ``command`` evaluates with."""
    if command == "noether" and QUANTITIES[config.quantity][0]:
        return config.derivative_convention
    return LG._DEFAULT_CONVENTION


def _comment_lines(config: RunConfig, command: str, alpha=None):
    problem = f"# problem = {config.problem}; interval = [{config.interval[0]:g}, {config.interval[1]:g}]; n_sub = {config.n_sub}"
    if PROBLEMS[config.problem].trajectory is None:
        problem += f"; kappa = {config.kappa:g}"
    if config.omega is not None:
        problem += f"; omega = {config.omega:g}"
    lines = [
        f"# fracnoether {command}",
        problem,
        f"# conventions: {LG._operators(_convention(config, command), right=True)}; "
        "classical derivatives by central differences",
        f"# tolerances: drift {config.drift_tolerance:g}; "
        f"group laws {DEFAULT_GROUP_TOLERANCE:g}; "
        "chain rule and invariance 10x composition residual",
    ]
    if alpha is not None:
        lines.append(f"# alpha = {_alpha_tag(alpha)}")
    return lines


def _write_csv(path, comments, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in comments:
            handle.write(line + "\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _write_outputs(outputs, files):
    """Create the directory ``outputs`` and write each of ``files``, a
    (name, comments, header, rows) tuple, into it; a path that cannot be
    written is a configuration error."""
    try:
        os.makedirs(outputs, exist_ok=True)
        for name, *content in files:
            _write_csv(os.path.join(outputs, name), *content)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write outputs to {outputs!r}: {exc}") from None


def _node_rows(grid, values, mask):
    """CSV rows ``t, v1, ..., vk`` with masked nodes left empty."""
    values = np.atleast_2d(values.T).T  # (n_nodes, k)
    rows = []
    for k, t in enumerate(grid.nodes):
        if mask is None or mask[k]:
            fields = [_fmt(v) for v in values[k]]
        else:
            fields = [""] * values.shape[1]
        rows.append([_fmt(t)] + fields)
    return rows


# ---------------------------------------------------------------------------
# problem realization


def _boundary(config: RunConfig):
    data = np.array(config.bc_data)
    return BCS[config.bc_kind](data[: config.dim], data[config.dim :])


def _make_group(config: RunConfig):
    return GROUPS[config.group][3](config.group_params, config.interval[0])


def _trajectory(config: RunConfig, alpha):
    grid = F.make_grid(config.interval[0], config.interval[1], config.n_sub)
    preset = PROBLEMS[config.problem].trajectory
    if preset is not None:
        return preset(grid)
    problem = SV.LinearProblem(
        grid=grid,
        alpha=alpha,
        dim=config.dim,
        kappa=config.kappa,
        bc=_boundary(config),
    )
    return SV.solve(problem).solution


# ---------------------------------------------------------------------------
# commands


def cmd_solve(config: RunConfig) -> int:
    if PROBLEMS[config.problem].trajectory is not None:
        raise ConfigError(
            f"problem {config.problem!r} has no linear solve; use the noether or check command"
        )
    results = {}
    for alpha in sorted(set(config.alphas)):
        x = _trajectory(config, alpha)
        lagrangian = PROBLEMS[config.problem].lagrangian(config, alpha)
        results[alpha] = x, LG.el_residual(lagrangian, x, alpha)
    # every order is solved and checked before anything is written
    names = [f"x{j + 1}" for j in range(config.dim)]
    residual_names = [f"r{j + 1}" for j in range(config.dim)]
    files = []
    for alpha, (x, residual) in results.items():
        tag, comments = _alpha_tag(alpha), _comment_lines(config, "solve", alpha)
        solution_rows = _node_rows(x.grid, x.values, None)
        residual_rows = _node_rows(x.grid, residual.values, residual.mask)
        files.append((f"solution_alpha{tag}.csv", comments, ["t"] + names, solution_rows))
        files.append((f"residual_alpha{tag}.csv", comments, ["t"] + residual_names, residual_rows))
    _write_outputs(config.outputs, files)
    return 0


def cmd_noether(config: RunConfig) -> int:
    series, group = QUANTITIES[config.quantity][1], _make_group(config)
    lagrangian = PROBLEMS[config.problem].lagrangian
    results = {
        a: series(config, lagrangian(config, a), group, _trajectory(config, a), a)
        for a in sorted(set(config.alphas))
    }
    reports = {}
    for alpha, series in results.items():
        try:
            reports[alpha] = NO.drift(series)
        except ValueError as exc:
            raise ConfigError(f"alpha = {_alpha_tag(alpha)}: {exc}") from None
    # every order is evaluated and reduced before anything is written
    convention = _convention(config, "noether")
    files, summary, offenders = [], [], []
    for alpha, report in reports.items():
        series = report.series
        tag, comments = _alpha_tag(alpha), _comment_lines(config, "noether", alpha)
        rows = _node_rows(series.grid, series.values[:, None], series.mask)
        files.append((f"quantity_alpha{tag}.csv", comments, ["t", "I"], rows))
        summary.append(
            [
                _fmt(alpha),
                _fmt(report.min),
                _fmt(report.max),
                _fmt(report.mean),
                _fmt(report.relative_drift),
                convention,
            ]
        )
        if report.relative_drift > config.drift_tolerance:
            offenders.append((alpha, report.relative_drift))
    header = ["alpha", "min", "max", "mean", "relative_drift", "convention"]
    files.append(("drift_summary.csv", _comment_lines(config, "noether"), header, summary))
    _write_outputs(config.outputs, files)
    if config.expected_conserved and offenders:
        alpha, worst = offenders[0]
        print(
            f"conservation failure: relative drift {worst:.3e} exceeds "
            f"{config.drift_tolerance:g} at alpha = {_alpha_tag(alpha)}",
            file=sys.stderr,
        )
        return 3
    return 0


def _probe_trajectory(grid, dim):
    """Smooth monomial trajectory (t, t^2, ...) anchoring the
    discretization tolerance; solver output at alpha < 1 has boundary
    layers that would inflate it."""
    columns = [grid.nodes ** (j + 1) for j in range(dim)]
    return F.make_trajectory(grid, np.column_stack(columns))


def cmd_check(config: RunConfig) -> int:
    alpha = config.alphas[0]
    group = _make_group(config)
    x = _trajectory(config, alpha)
    L = PROBLEMS[config.problem].lagrangian(config, alpha)
    probe = _probe_trajectory(x.grid, config.dim)

    composition = F.check_composition(x.grid, alpha, probe)
    residuals = (composition.caputo_residual, composition.rl_residual)
    if not np.all(np.isfinite(residuals)):
        # a NaN tolerance would fail every check it is compared against
        raise SV.NumericalFailure(f"composition residual at alpha = {alpha:g} is not finite")
    # floor keeps interpolation rounding from failing structurally
    # commuting groups when the composition residual is itself exact
    tol_discrete = max(10.0 * max(residuals), 1e-9)
    try:
        reports = [
            ("group_law", SY.check_group_law(group, tol=DEFAULT_GROUP_TOLERANCE)),
            ("admissible", SY.check_admissible(group, tol=DEFAULT_GROUP_TOLERANCE)),
            (
                "localization",
                SY.check_localization(
                    group, config.interval[0], tol=DEFAULT_GROUP_TOLERANCE
                ),
            ),
            (
                "chain_rule",
                SY.check_chain_rule(group, probe, alpha, CHAIN_RULE_S, tol=tol_discrete),
            ),
            ("invariance", SY.check_invariance(L, group, x, alpha, tol=tol_discrete)),
        ]
    except ValueError as exc:  # no transformed grid exists
        raise ConfigError(f"group {config.group!r}: {exc}") from None
    except OverflowError as exc:  # math.exp of a large group parameter
        raise ConfigError(f"group {config.group!r}: time map overflows ({exc})") from None

    comments = _comment_lines(config, "check", alpha)
    comments.append(
        f"# group = {config.group}; chain rule at s = {CHAIN_RULE_S:g}; "
        f"discretization tolerance = {tol_discrete:.17g}"
    )
    rows = [
        [name, "true" if r.passed else "false", _fmt(r.max_violation)]
        for name, r in reports
    ]
    _write_outputs(
        config.outputs, [("checks.csv", comments, ["check", "passed", "max_violation"], rows)]
    )
    failed = [name for name, r in reports if not r.passed]
    if failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracnoether",
        description="Fractional variational solves and conservation-law checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve the configured boundary-value problem per order"),
        ("noether", "evaluate the configured conserved-quantity series"),
        ("check", "run the structural symmetry checks"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a key = value file")
        cmd.add_argument("--out", default=None, help="override the outputs directory")
    return parser


_COMMANDS = {"solve": cmd_solve, "noether": cmd_noether, "check": cmd_check}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config)
        if args.out is not None:
            config = replace(config, outputs=args.out)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SV.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
