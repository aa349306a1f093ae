"""fracnoether: discrete fractional calculus, fractional Euler-Lagrange
solvers, and numerical verification of Noether-type conservation laws."""

from .fracops import (
    FractionalOrder,
    Grid,
    Trajectory,
    caputo_left,
    caputo_right,
    check_composition,
    make_grid,
    make_trajectory,
    rl_left,
    rl_right,
)
from .lagrangian import (
    LagrangianSpec,
    QuantitySeries,
    action,
    el_residual,
    make_lagrangian,
    make_series,
    second_el_quantity,
)
from .noether import (
    DriftReport,
    autonomous_quantity,
    drift,
    infinitesimal_criterion_residual,
    noether_quantity,
    oscillator_quantity,
    weak_theorem_residual,
)
from .presets import (
    example2_lagrangian,
    example2_trajectory,
    kappa_lagrangian,
    oscillator_lagrangian,
)
from .solver import (
    LinearProblem,
    NumericalFailure,
    SolveReport,
    classical_reference,
    dirichlet,
    initial,
    solve,
)
from .symmetry import (
    CheckReport,
    GroupSpec,
    check_admissible,
    check_chain_rule,
    check_group_law,
    check_invariance,
    check_localization,
    dilation,
    localized_dilation,
    quadratic_time,
    space_rotation,
    time_translation,
)

__version__ = "0.1.0"

# Read by perfbench/worker.py for every benchmark record; there is one backend.
BACKEND = "numpy"

__all__ = [
    "__version__",
    "FractionalOrder",
    "Grid",
    "Trajectory",
    "caputo_left",
    "caputo_right",
    "check_composition",
    "make_grid",
    "make_trajectory",
    "rl_left",
    "rl_right",
    "LagrangianSpec",
    "QuantitySeries",
    "action",
    "el_residual",
    "make_lagrangian",
    "make_series",
    "second_el_quantity",
    "DriftReport",
    "autonomous_quantity",
    "drift",
    "infinitesimal_criterion_residual",
    "noether_quantity",
    "oscillator_quantity",
    "weak_theorem_residual",
    "example2_lagrangian",
    "example2_trajectory",
    "kappa_lagrangian",
    "oscillator_lagrangian",
    "LinearProblem",
    "NumericalFailure",
    "SolveReport",
    "classical_reference",
    "dirichlet",
    "initial",
    "solve",
    "CheckReport",
    "GroupSpec",
    "check_admissible",
    "check_chain_rule",
    "check_group_law",
    "check_invariance",
    "check_localization",
    "dilation",
    "localized_dilation",
    "quadratic_time",
    "space_rotation",
    "time_translation",
]
