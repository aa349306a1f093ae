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

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 check or conservation failure.  Nothing else is ever returned.

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
from . import presets as PR
from . import solver as SV
from . import symmetry as SY
from .config import (
    BCS,
    DEFAULT_GROUP_TOLERANCE,
    GROUPS,
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
    if command == "noether" and config.quantity in ("noether", "autonomous"):
        return config.derivative_convention
    return LG._DEFAULT_CONVENTION


def _comment_lines(config: RunConfig, command: str, alpha=None):
    problem = f"# problem = {config.problem}; interval = [{config.interval[0]:g}, {config.interval[1]:g}]; n_sub = {config.n_sub}"
    if config.problem != "example2":
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


def _grid(config: RunConfig):
    return F.make_grid(config.interval[0], config.interval[1], config.n_sub)


def _boundary(config: RunConfig):
    data = np.array(config.bc_data)
    return BCS[config.bc_kind](data[: config.dim], data[config.dim :])


def _lagrangian(config: RunConfig, alpha):
    if config.problem == "oscillator":
        return PR.oscillator_lagrangian(config.omega)
    if config.problem == "example2":
        return PR.example2_lagrangian(alpha)
    return PR.kappa_lagrangian(config.kappa, dim=config.dim)


def _make_group(config: RunConfig):
    return GROUPS[config.group][2](config.group_params, config.interval[0])


def _trajectory(config: RunConfig, alpha):
    grid = _grid(config)
    if config.problem == "example2":
        return PR.example2_trajectory(grid)
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
    if config.problem == "example2":
        raise ConfigError(
            "problem 'example2' has no linear solve; use the noether or check command"
        )
    results = {a: _trajectory(config, a) for a in sorted(set(config.alphas))}
    os.makedirs(config.outputs, exist_ok=True)
    names = [f"x{j + 1}" for j in range(config.dim)]
    for alpha, x in results.items():
        tag = _alpha_tag(alpha)
        comments = _comment_lines(config, "solve", alpha)
        _write_csv(
            os.path.join(config.outputs, f"solution_alpha{tag}.csv"),
            comments,
            ["t"] + names,
            _node_rows(x.grid, x.values, None),
        )
        residual = LG.el_residual(_lagrangian(config, alpha), x, alpha)
        _write_csv(
            os.path.join(config.outputs, f"residual_alpha{tag}.csv"),
            comments,
            ["t"] + [f"r{j + 1}" for j in range(config.dim)],
            _node_rows(x.grid, residual.values, residual.mask),
        )
    return 0


def _quantity(config: RunConfig, x, alpha):
    L = _lagrangian(config, alpha)
    if config.quantity == "noether":
        return NO.noether_quantity(
            L,
            _make_group(config),
            x,
            alpha,
            variant=config.conslaw_variant,
            convention=config.derivative_convention,
        )
    if config.quantity == "autonomous":
        return NO.autonomous_quantity(
            L, x, alpha, convention=config.derivative_convention
        )
    if config.quantity == "oscillator":
        return NO.oscillator_quantity(x, config.omega, alpha)
    return LG.second_el_quantity(L, x, alpha)


def cmd_noether(config: RunConfig) -> int:
    results = {
        a: _quantity(config, _trajectory(config, a), a)
        for a in sorted(set(config.alphas))
    }
    os.makedirs(config.outputs, exist_ok=True)
    convention = _convention(config, "noether")
    summary = []
    offenders = []
    for alpha, series in results.items():
        tag = _alpha_tag(alpha)
        _write_csv(
            os.path.join(config.outputs, f"quantity_alpha{tag}.csv"),
            _comment_lines(config, "noether", alpha),
            ["t", "I"],
            _node_rows(series.grid, series.values[:, None], series.mask),
        )
        try:
            report = NO.drift(series)
        except ValueError as exc:
            raise ConfigError(f"alpha = {_alpha_tag(alpha)}: {exc}") from None
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
    _write_csv(
        os.path.join(config.outputs, "drift_summary.csv"),
        _comment_lines(config, "noether"),
        ["alpha", "min", "max", "mean", "relative_drift", "convention"],
        summary,
    )
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
    L = _lagrangian(config, alpha)
    probe = _probe_trajectory(x.grid, config.dim)

    composition = F.check_composition(x.grid, alpha, probe)
    # floor keeps interpolation rounding from failing structurally
    # commuting groups when the composition residual is itself exact
    tol_discrete = max(
        10.0 * max(composition.caputo_residual, composition.rl_residual),
        1e-9,
    )
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

    os.makedirs(config.outputs, exist_ok=True)
    comments = _comment_lines(config, "check", alpha)
    comments.append(
        f"# group = {config.group}; chain rule at s = {CHAIN_RULE_S:g}; "
        f"discretization tolerance = {tol_discrete:.17g}"
    )
    rows = [
        [name, "true" if r.passed else "false", _fmt(r.max_violation)]
        for name, r in reports
    ]
    _write_csv(
        os.path.join(config.outputs, "checks.csv"),
        comments,
        ["check", "passed", "max_violation"],
        rows,
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
