"""Exception types shared across the package."""


class MtloptError(Exception):
    """Base class for all package errors."""

    #: the task whose forward or backward pass raised the error, if known
    task: int | None = None


class ShapeError(MtloptError, ValueError):
    """Tensor dimensions are inconsistent with the operation's contract."""


class ConfigError(MtloptError, ValueError):
    """Invalid configuration value (bad layer chain, bad hyperparameter, ...)."""


class DataError(MtloptError, ValueError):
    """A batch is missing required inputs or targets."""


class LabelError(MtloptError, ValueError):
    """A class-index target is outside the valid range."""


class NumericError(MtloptError, ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finiteness is required."""


class TapeError(MtloptError, RuntimeError):
    """A computation-tape contract was violated (non-scalar loss, foreign tensor)."""


class StateError(MtloptError, RuntimeError):
    """Mutable state is corrupt or stale (negative variance, outdated snapshot)."""
