"""Exception hierarchy for tegsolve.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps groups of these onto distinct exit codes.
"""


class TegError(Exception):
    """Base class for all tegsolve errors."""


class DomainError(TegError):
    """Evaluation requested outside a model's valid temperature range."""


class NonPositiveValue(TegError):
    """A material property evaluated to a value <= 0."""


class InvalidMaterial(TegError):
    """Material model rejected at construction (bad parameters, bad knots, ...)."""


class DegenerateError(TegError):
    """T_h = T_c: the figure of merit and efficiency formulas are undefined."""


class ZeroSeebeck(TegError):
    """alpha0 = 0 where a nonzero Seebeck coefficient is required."""


class ZeroVoltage(TegError):
    """V = alpha0 * (T_h - T_c) = 0 where a nonzero voltage is required."""


class NumericalBlowup(TegError):
    """The trajectory to the cold-side crossing could not be represented; usually
    a bad material model (the well-posedness assumptions rule this out)."""


class NonPositiveHotFlux(TegError):
    """Hot-side heat flux q_h <= 0; flux-ratio efficiency is not meaningful."""


class ConfigError(TegError):
    """CLI configuration file failed to parse or validate."""
