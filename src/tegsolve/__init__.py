"""Steady states and efficiency of 1-D thermoelectric generators.

Temperature-dependent thermal conductivity and electrical resistivity with a
constant Seebeck coefficient: unique steady state at any load ratio with a
closed-form efficiency, and (possibly several) steady states at a fixed load
resistance, enumerated by scanning the nonlocal constraint.
"""

from .errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    InvalidMaterial,
    NonPositiveHotFlux,
    NonPositiveValue,
    NumericalBlowup,
    TegError,
    ZeroSeebeck,
    ZeroVoltage,
)
from .materials import (
    ClampedLinear,
    Constant,
    Linear,
    LogAffine,
    MaterialPair,
    PropertyModel,
    Reciprocal,
    Table,
    WiedemannFranz,
    clamped_linear,
    constant,
    eval_property,
    linear,
    log_affine,
    model_from_json,
    pair_from_json,
    reciprocal,
    rho_kappa_integral,
    table,
    wiedemann_franz,
)
from .analytic import (
    GeneratorSpec,
    PerformanceReport,
    efficiency,
    figure_of_merit,
    hot_side_relative_flux,
    is_strictly_decreasing,
    matched_initial_slope,
    max_efficiency,
    performance_report,
    shooting_function,
    sherman_relation,
)
from .ivp import (
    HittingTimeQuadrature,
    TemperatureSolution,
    solve_ratio_mode,
)
from .loadmode import (
    LoadResistanceProblem,
    NonuniqueConstruction,
    RootRecord,
    ScanDiagnostics,
    SolutionSet,
    H_of_theta,
    construct_nonunique_example,
    enumerate_solutions,
)

__version__ = "0.1.0"
