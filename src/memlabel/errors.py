"""Exception types shared across the package."""


class MemlabelError(Exception):
    """Base class for all package errors."""


class ConfigError(MemlabelError):
    """Invalid configuration value, unknown key, or infeasible setup."""


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
