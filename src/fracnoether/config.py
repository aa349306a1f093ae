"""Flat ``key = value`` run configuration.

The file format is deliberately minimal: one assignment per line,
``#`` starts a comment, lists are comma-separated.  Every recognized
key maps to a RunConfig field; unknown and duplicate keys are errors so
that a typo cannot silently fall back to a default.

Problem presets fix most of the physics:

* ``harmonic2d`` — two-component quadratic problem with kappa = -1 and
  Dirichlet data (1, 2) -> (2, 1) unless ``bc`` overrides it.
* ``oscillator`` — scalar problem with kappa = -omega^2 and initial
  data u(a) = 0, u'(a) = 1; requires ``omega``.
* ``example2`` — the planar homogeneous Lagrangian with its preset
  trajectory q = (t, t^2); there is no linear solve for it.
* ``custom`` — quadratic problem with explicit ``kappa`` and ``bc``.

``bc`` is a single comma list: a type tag followed by the stacked node
data, e.g. ``bc = dirichlet, 1, 2, 2, 1`` (xa then xb, so the dimension
is half the number count) or ``bc = initial, 0, 1`` (u0 then du0).

``group`` is a name with optional parameters: ``time_translation``,
``dilation[, c]``, ``space_only``, ``localized_dilation, lam[, a]``,
``quadratic_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

PROBLEMS = ("harmonic2d", "oscillator", "example2", "custom")
GROUPS = (
    "time_translation",
    "dilation",
    "space_only",
    "localized_dilation",
    "quadratic_time",
)
QUANTITIES = ("noether", "autonomous", "oscillator", "q")
VARIANTS = ("conslaw", "conslaw2")
CONVENTIONS = ("caputo", "rl")

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


def _float_list(pairs, key):
    items = [s.strip() for s in pairs[key].split(",")]
    try:
        values = tuple(float(s) for s in items if s)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number list: {pairs[key]!r}") from None
    if not values:
        raise ConfigError(f"key {key!r}: empty list")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: entries must be finite")
    return values


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


def _choice(pairs, key, allowed):
    value = pairs[key]
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

_DEFAULT_BC = {
    "harmonic2d": ("dirichlet", (1.0, 2.0, 2.0, 1.0)),
    "oscillator": ("initial", (0.0, 1.0)),
}


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

    if "interval" in pairs:
        interval = _float_list(pairs, "interval")
        if len(interval) != 2 or not interval[0] < interval[1]:
            raise ConfigError(
                f"key 'interval': expected 'a, b' with a < b, got {pairs['interval']!r}"
            )
    else:
        interval = (0.0, 1.0)
    if problem == "example2" and interval[0] < 0.0:
        raise ConfigError(
            "key 'interval': problem 'example2' needs a >= 0, "
            f"got {pairs['interval']!r}"
        )

    omega = None
    if problem == "oscillator":
        if "omega" not in pairs:
            raise ConfigError("missing key 'omega' (required for the oscillator problem)")
        omega = _float(pairs, "omega")
        if omega <= 0.0:
            raise ConfigError(f"key 'omega': must be positive, got {omega}")
    elif "omega" in pairs:
        raise ConfigError(f"key 'omega' is not meaningful for problem {problem!r}")

    if problem == "custom":
        if "kappa" not in pairs:
            raise ConfigError("missing key 'kappa' (required for the custom problem)")
        kappa = _float(pairs, "kappa")
    elif "kappa" in pairs:
        raise ConfigError(f"key 'kappa' is not meaningful for problem {problem!r}")
    elif problem == "oscillator":
        kappa = -(omega**2)
    else:
        kappa = -1.0

    if problem == "example2":
        if "bc" in pairs:
            raise ConfigError("key 'bc' is not meaningful for problem 'example2'")
        bc_kind, bc_data, dim = "none", (), 2
    else:
        if "bc" in pairs:
            items = [s.strip() for s in pairs["bc"].split(",")]
            if not items or items[0] not in ("dirichlet", "initial"):
                raise ConfigError(
                    f"key 'bc': expected 'dirichlet, ...' or 'initial, ...', got {pairs['bc']!r}"
                )
            bc_kind = items[0]
            try:
                bc_data = tuple(float(s) for s in items[1:] if s)
            except ValueError:
                raise ConfigError(f"key 'bc': not a number list: {pairs['bc']!r}") from None
            if len(bc_data) < 2 or len(bc_data) % 2:
                raise ConfigError(
                    "key 'bc': data must hold two stacked vectors "
                    f"(even count >= 2), got {len(bc_data)} numbers"
                )
        elif problem in _DEFAULT_BC:
            bc_kind, bc_data = _DEFAULT_BC[problem]
        else:
            raise ConfigError("missing key 'bc' (required for the custom problem)")
        dim = len(bc_data) // 2
        fixed = {"harmonic2d": 2, "oscillator": 1}.get(problem)
        if fixed is not None and dim != fixed:
            raise ConfigError(
                f"key 'bc': problem {problem!r} is {fixed}-dimensional, "
                f"but the data describes {dim} components"
            )

    if "group" in pairs:
        items = [s.strip() for s in pairs["group"].split(",")]
        group = items[0]
        if group not in GROUPS:
            raise ConfigError(
                f"key 'group': expected one of {', '.join(GROUPS)}; got {group!r}"
            )
        try:
            group_params = tuple(float(s) for s in items[1:] if s)
        except ValueError:
            raise ConfigError(f"key 'group': bad parameter list: {pairs['group']!r}") from None
    else:
        group, group_params = "time_translation", ()
    limits = {
        "time_translation": (0, 0),
        "dilation": (0, 1),
        "space_only": (0, 0),
        "localized_dilation": (1, 2),
        "quadratic_time": (0, 0),
    }
    lo, hi = limits[group]
    if not lo <= len(group_params) <= hi:
        raise ConfigError(
            f"key 'group': {group} takes between {lo} and {hi} parameters, "
            f"got {len(group_params)}"
        )
    if group == "space_only" and dim != 2:
        raise ConfigError(
            "key 'group': the space_only rotation acts on 2-component problems"
        )

    if "quantity" in pairs:
        quantity = _choice(pairs, "quantity", QUANTITIES)
    else:
        quantity = "oscillator" if problem == "oscillator" else "noether"
    if quantity == "oscillator" and problem != "oscillator":
        raise ConfigError(
            "key 'quantity': the oscillator quantity requires the oscillator problem"
        )

    expected = _bool(pairs, "expected_conserved") if "expected_conserved" in pairs else False
    tolerance = (
        _float(pairs, "drift_tolerance")
        if "drift_tolerance" in pairs
        else DEFAULT_DRIFT_TOLERANCE
    )
    if tolerance <= 0.0:
        raise ConfigError(f"key 'drift_tolerance': must be positive, got {tolerance}")

    variant = (
        _choice(pairs, "conslaw_variant", VARIANTS)
        if "conslaw_variant" in pairs
        else "conslaw"
    )
    convention = (
        _choice(pairs, "derivative_convention", CONVENTIONS)
        if "derivative_convention" in pairs
        else "caputo"
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return make_config(parse_pairs(text))
