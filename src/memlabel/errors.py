"""Exception types shared across the package, and the config-value check."""


class MemlabelError(Exception):
    """Base class for all package errors."""


class ConfigError(MemlabelError):
    """Invalid configuration value, unknown key, or infeasible setup."""


def require(ok, name, value, rule):
    """Raise a ConfigError naming the field and its value unless `ok`.

    Pass `ok` as the rule that must hold (`lr > 0`, not `not lr <= 0`), so a
    NaN value fails it.
    """
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


class NumericError(MemlabelError):
    """Non-finite values or numerically undefined operation."""


class ParseError(MemlabelError):
    """Malformed input file; message names the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrainingDiverged(MemlabelError):
    """Loss became non-finite; the message names the epoch and batch."""
