"""Exception types shared across the package, and the two predicates every
settings check uses to tell a valid number."""
import sys


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


def is_int(value) -> bool:
    """An integer setting: a Python int, never a bool or another int type."""
    return type(value) is int


def is_number(value) -> bool:
    """A numeric setting: an int or a float, finite as a float. JSON and
    ``--set`` parse Infinity and NaN as floats and a run of digits past the
    float range as an int; no setting takes them."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
