"""Exception types shared across the solver, simulator and CLI."""


class ExecFeesError(Exception):
    """Base class for all package errors."""


class ConfigError(ExecFeesError):
    """Invalid experiment configuration; message names the offending field."""


class DegenerateRiccati(ExecFeesError):
    """The Riccati denominator 1 - xi*exp(-2a(T-t)/l) vanishes on [0, T]."""


class InvalidRegime(ExecFeesError):
    """Closed-form coefficients requested outside the regime they are derived in."""


class SingularTridiagonal(ExecFeesError):
    """Zero pivot in the implicit solve; the grid/time-step combination is degenerate."""


class NonFinite(ExecFeesError):
    """A solver surface picked up NaN/Inf entries."""


class RequiresZeroRate(ExecFeesError):
    """The TWAP state reduction is only valid for r = 0."""


class OutOfGrid(ExecFeesError):
    """Too many simulated states left the grid hull."""
