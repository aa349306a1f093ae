"""Flat ``key = value`` run configuration.

The file format is deliberately minimal: one assignment per line,
``#`` starts a comment, lists are comma-separated.  Every recognized
key maps to a RunConfig field; unknown and duplicate keys are errors so
that a typo cannot silently fall back to a default, and every number
must be finite.

Each run choice is named once, in a table that the CLI reads: ``BCS``,
``GROUPS``, ``QUANTITIES`` and ``PROBLEMS``, whose row holds all that a
problem decides, from its number key and default ``bc`` to its
Lagrangian and its preset trajectory (None when it is solved for).

* ``harmonic2d`` — two-component quadratic problem with kappa = -1 and
  Dirichlet data (1, 2) -> (2, 1) unless ``bc`` overrides it.
* ``oscillator`` — scalar problem with kappa = -omega^2 and initial
  data u(a) = 0, u'(a) = 1; requires ``omega``, with omega^2 finite.
* ``example2`` — the planar homogeneous Lagrangian with its preset
  trajectory q = (t, t^2), for a >= 0 and a finite b^2; no linear solve.
* ``custom`` — quadratic problem with explicit ``kappa`` and ``bc``.

``bc`` is a single comma list: a kind followed by the stacked node
data, e.g. ``bc = dirichlet, 1, 2, 2, 1`` (xa then xb, so the dimension
is half the number count) or ``bc = initial, 0, 1`` (u0 then du0).

``group`` is a name with optional parameters: ``time_translation``,
``dilation[, c]`` (c = 1 by default), ``space_only`` (2 components),
``localized_dilation, lam[, a]`` (a = the interval start by default),
``quadratic_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from . import lagrangian, noether, presets, solver, symmetry
from .noether import VARIANTS


class Problem(NamedTuple):
    """One ``PROBLEMS`` row."""

    dim: Optional[int]  # None: any, read off the bc data
    bc: Optional[tuple]  # default (kind, data); None: bc is required
    number: Optional[str]  # the number key the problem requires
    lagrangian: Callable  # (config, alpha) -> LagrangianSpec
    trajectory: Optional[Callable] = None  # grid -> preset Trajectory
    refuses: Callable = lambda a, b: ""  # (a, b) -> what the interval lacks
    quantity: Optional[str] = None  # its own quantity, the default; None: the first


_QUADRATIC = Problem(None, None, None, lambda c, al: presets.kappa_lagrangian(c.kappa, dim=c.dim))
PROBLEMS = {
    "harmonic2d": _QUADRATIC._replace(dim=2, bc=("dirichlet", (1.0, 2.0, 2.0, 1.0))),
    "oscillator": Problem(
        1, ("initial", (0.0, 1.0)), "omega",
        # the solve takes kappa = -omega^2 but this Lagrangian +omega^2, so the
        # drift reported is that of a Lagrangian the solve does not extremize
        lambda c, al: presets.oscillator_lagrangian(c.omega), quantity="oscillator",
    ),
    # the preset (t, t^2) keeps the powers real for a >= 0, finite for finite b^2
    "example2": Problem(
        2, ("none", ()), None, lambda c, al: presets.example2_lagrangian(al), presets.example2_trajectory,
        lambda a, b: "a >= 0" if a < 0.0 else "a finite b^2" if not math.isfinite(b * b) else "",
    ),
    "custom": _QUADRATIC._replace(number="kappa"),
}
BCS = {"dirichlet": solver.dirichlet, "initial": solver.initial}
# name -> (fewest parameters, most parameters, dimension or None for any,
# constructor from the parameters p and the interval start a); the first
# is the default, and an omitted optional parameter takes the value after
# p: c = 1, base a
GROUPS = {
    "time_translation": (0, 0, None, lambda p, a: symmetry.time_translation()),
    "dilation": (0, 1, None, lambda p, a: symmetry.dilation((*p, 1.0)[0])),
    "space_only": (0, 0, 2, lambda p, a: symmetry.space_rotation()),
    "localized_dilation": (1, 2, None, lambda p, a: symmetry.localized_dilation(p[0], (*p, a)[1])),
    "quadratic_time": (0, 0, None, lambda p, a: symmetry.quadratic_time()),
}
# name -> (whether its D_a+ follows derivative_convention, series from
# the config, Lagrangian, group, trajectory and order); the first is the
# default
QUANTITIES = {
    "noether": (True, lambda c, L, g, x, al: noether.noether_quantity(
        L, g, x, al, variant=c.conslaw_variant, convention=c.derivative_convention)),
    "autonomous": (True, lambda c, L, g, x, al: noether.autonomous_quantity(
        L, x, al, convention=c.derivative_convention)),
    "oscillator": (False, lambda c, L, g, x, al: noether.oscillator_quantity(x, c.omega, al)),
    "q": (False, lambda c, L, g, x, al: lagrangian.second_el_quantity(L, x, al)),
}

DEFAULT_DRIFT_TOLERANCE = 5e-2
DEFAULT_GROUP_TOLERANCE = 1e-6


class ConfigError(ValueError):
    """A configuration file that cannot be turned into a valid run."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; see the module docstring for the file
    format that produces it."""

    problem: str
    alphas: Tuple[float, ...]
    n_sub: int
    interval: Tuple[float, float]
    bc_kind: str
    bc_data: Tuple[float, ...]
    dim: int
    kappa: float
    omega: Optional[float]
    group: str
    group_params: Tuple[float, ...]
    quantity: str
    expected_conserved: bool
    drift_tolerance: float
    conslaw_variant: str
    derivative_convention: str
    outputs: str


def parse_pairs(text: str) -> dict:
    """Parse ``key = value`` lines into a string dict."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _float(pairs, key):
    try:
        value = float(pairs[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {pairs[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {value}")
    return value


def _numbers(pairs, key, items):
    """The non-empty entries of ``items``, taken from ``key``'s value, as
    finite floats."""
    try:
        values = tuple(float(s) for s in items if s)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number list: {pairs[key]!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"key {key!r}: entries must be finite")
    return values


def _float_list(pairs, key):
    values = _numbers(pairs, key, [s.strip() for s in pairs[key].split(",")])
    if not values:
        raise ConfigError(f"key {key!r}: empty list")
    return values


def _tagged(pairs, key, tags):
    """``tag, n1, n2, ...`` as (tag, numbers), the tag one of ``tags``;
    the first tag and no numbers when the key is absent."""
    if key not in pairs:
        return next(iter(tags)), ()
    tag, *items = [s.strip() for s in pairs[key].split(",")]
    return _choice({key: tag}, key, tags), _numbers(pairs, key, items)


def _int(pairs, key):
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {pairs[key]!r}") from None


def _bool(pairs, key):
    value = pairs[key].lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {pairs[key]!r}")


def _choice(pairs, key, allowed, default=None):
    """``key``'s value, one of ``allowed``; ``default`` when the key is
    absent, or the first of ``allowed`` without one."""
    value = pairs.get(key, default or next(iter(allowed)))
    if value not in allowed:
        raise ConfigError(
            f"key {key!r}: expected one of {', '.join(allowed)}; got {value!r}"
        )
    return value


_KNOWN_KEYS = frozenset(
    {
        "problem",
        "alphas",
        "n_sub",
        "interval",
        "bc",
        "kappa",
        "omega",
        "group",
        "quantity",
        "expected_conserved",
        "drift_tolerance",
        "conslaw_variant",
        "derivative_convention",
        "outputs",
    }
)


def make_config(pairs: dict) -> RunConfig:
    """Validate a parsed key dict into a RunConfig."""
    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    for key in ("problem", "alphas", "n_sub"):
        if key not in pairs:
            raise ConfigError(f"missing key {key!r}")

    problem = _choice(pairs, "problem", PROBLEMS)

    alphas = _float_list(pairs, "alphas")
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"key 'alphas': orders must lie in (0, 1], got {a}")

    n_sub = _int(pairs, "n_sub")
    if n_sub < 2:
        raise ConfigError(f"key 'n_sub': must be >= 2, got {n_sub}")

    interval = _float_list(pairs, "interval") if "interval" in pairs else (0.0, 1.0)
    if len(interval) != 2 or not interval[0] < interval[1]:
        raise ConfigError(
            f"key 'interval': expected 'a, b' with a < b, got {pairs['interval']!r}"
        )
    row = PROBLEMS[problem]
    lacks = row.refuses(*interval)
    if lacks:
        raise ConfigError(
            f"key 'interval': problem {problem!r} needs {lacks}, got {pairs['interval']!r}"
        )

    for key in ("omega", "kappa"):
        if key in pairs and key != row.number:
            raise ConfigError(f"key {key!r} is not meaningful for problem {problem!r}")
    if row.number is not None and row.number not in pairs:
        raise ConfigError(f"missing key {row.number!r} (required for the {problem} problem)")
    omega = _float(pairs, "omega") if "omega" in pairs else None
    if omega is not None and omega <= 0.0:
        raise ConfigError(f"key 'omega': must be positive, got {omega}")
    if omega is not None and not math.isfinite(omega * omega):
        raise ConfigError(f"key 'omega': omega**2 must be finite, got {omega}")
    kappa = _float(pairs, "kappa") if "kappa" in pairs else -1.0 if omega is None else -(omega**2)

    dim, bc = row.dim, row.bc
    if "bc" in pairs:
        if row.trajectory is not None:
            raise ConfigError(f"key 'bc' is not meaningful for problem {problem!r}")
        bc = _tagged(pairs, "bc", BCS)
        if len(bc[1]) < 2 or len(bc[1]) % 2:
            raise ConfigError(
                "key 'bc': data must hold two stacked vectors "
                f"(even count >= 2), got {len(bc[1])} numbers"
            )
    elif bc is None:
        raise ConfigError(f"missing key 'bc' (required for the {problem} problem)")
    bc_kind, bc_data = bc
    if bc_data and dim not in (None, len(bc_data) // 2):
        raise ConfigError(
            f"key 'bc': problem {problem!r} is {dim}-dimensional, "
            f"but the data describes {len(bc_data) // 2} components"
        )
    dim = dim or len(bc_data) // 2

    group, group_params = _tagged(pairs, "group", GROUPS)
    lo, hi, group_dim, _ = GROUPS[group]
    if not lo <= len(group_params) <= hi:
        raise ConfigError(
            f"key 'group': {group} takes between {lo} and {hi} parameters, "
            f"got {len(group_params)}"
        )
    if group_dim not in (None, dim):
        raise ConfigError(
            f"key 'group': {group} acts on {group_dim}-component problems, got a {dim}-component one"
        )

    quantity = _choice(pairs, "quantity", QUANTITIES, row.quantity)
    # a problem's own quantity, its default, reads numbers only it has
    owner = next((name for name, r in PROBLEMS.items() if r.quantity == quantity), problem)
    if owner != problem:
        raise ConfigError(f"key 'quantity': the {quantity} quantity requires the {owner} problem")

    expected = _bool(pairs, "expected_conserved") if "expected_conserved" in pairs else False
    tolerance = (
        _float(pairs, "drift_tolerance")
        if "drift_tolerance" in pairs
        else DEFAULT_DRIFT_TOLERANCE
    )
    if tolerance <= 0.0:
        raise ConfigError(f"key 'drift_tolerance': must be positive, got {tolerance}")

    variant = _choice(pairs, "conslaw_variant", VARIANTS)
    convention = _choice(
        pairs, "derivative_convention", lagrangian._LEFT_OPS, lagrangian._DEFAULT_CONVENTION
    )
    outputs = pairs.get("outputs", "out")
    if not outputs:
        raise ConfigError("key 'outputs': empty path")

    return RunConfig(
        problem=problem,
        alphas=alphas,
        n_sub=n_sub,
        interval=(interval[0], interval[1]),
        bc_kind=bc_kind,
        bc_data=bc_data,
        dim=dim,
        kappa=kappa,
        omega=omega,
        group=group,
        group_params=group_params,
        quantity=quantity,
        expected_conserved=expected,
        drift_tolerance=tolerance,
        conslaw_variant=variant,
        derivative_convention=convention,
        outputs=outputs,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return make_config(parse_pairs(text))
