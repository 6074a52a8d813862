"""Exception types raised by the public API, and the rules that raise them.

Each class corresponds to one failure mode of a documented contract, so
callers can catch precisely what they can handle.

This module also owns the range rules every boundary applies to its
parameters: :func:`check_count` for integer counts, seeds and stream ids,
:func:`check_interval` for real rates and tolerances, and
:func:`check_budget` for the compression budget k against the dimension d.
Every input file (map, manifest, trace) is read by :func:`read_text`.
"""
import math
import operator
from pathlib import Path


class FedqError(Exception):
    """Base class for all package errors."""


class MapFormatError(FedqError, ValueError):
    """Base class for grid map parsing failures."""


class RaggedRowsError(MapFormatError):
    """Map rows do not all have the same length."""


class UnknownCharError(MapFormatError):
    """Map contains a character outside {'.', '#', 'G'}."""


class GoalCountError(MapFormatError):
    """Map does not contain exactly one goal cell."""


class EmptyMapError(MapFormatError):
    """Map has no rows."""


class FileFormatError(FedqError, ValueError):
    """A trace file does not have the layout fedq writes."""


class ShapeMismatchError(FedqError, ValueError):
    """Array arguments do not have the shapes the operation requires."""


class DimensionMismatchError(FedqError, ValueError):
    """A sparse payload's indices and values differ in shape, or its indices
    leave [0, d) or are not strictly increasing."""


class NotConvergedError(FedqError, RuntimeError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class ZeroVectorError(FedqError, ValueError):
    """Operation undefined on the all-zero vector."""


class ParamOutOfRangeError(FedqError, ValueError):
    """A hyperparameter violates its documented range."""


class InvalidGammaError(ParamOutOfRangeError):
    """Discount factor outside the open interval (0, 1)."""


class BudgetOutOfRangeError(ParamOutOfRangeError):
    """Compression budget k outside [1, d]."""


def check_count(name: str, value, low: int = 0, high: float = math.inf,
                error: type[ParamOutOfRangeError] = ParamOutOfRangeError) -> int:
    """``value`` as a Python int in [low, high); numpy integers pass, bools and non-integers raise ``error``."""
    if type(value) is not int:  # the common case skips the conversion
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise error(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if not low <= value < high:
        raise error(f"{name} must lie in [{low}, {high}), got {value}")
    return value


def check_interval(name: str, value, low: float = 0, high: float = math.inf, closed: str = "()",
                   error: type[ParamOutOfRangeError] = ParamOutOfRangeError) -> float:
    """``value`` if it lies in the real interval from ``low`` to ``high``, else raise ``error``.

    ``closed`` holds the interval's brackets, e.g. ``"(]"`` for (low, high].
    NaN and non-numbers lie in no interval, and an open infinite end admits
    no infinity: the default (0, inf) holds exactly the positive finite reals.
    """
    try:
        if (low < value if closed[0] == "(" else low <= value) and (
                value < high if closed[1] == ")" else value <= high):
            return value
    except TypeError:  # not a number
        pass
    if low == 0 and high == math.inf:
        rule = f"be {'positive' if closed[0] == '(' else 'non-negative'} and finite"
    else:
        rule = f"lie in {closed[0]}{low}, {high}{closed[1]}"
    raise error(f"{name} must {rule}, got {value!r}")


def check_budget(k: int, d: int) -> None:
    """The compression budget rule: k is an integer in [1, d]."""
    if not 1 <= check_count("budget k", k, error=BudgetOutOfRangeError) <= d:
        raise BudgetOutOfRangeError(f"budget k={k} outside [1, d={d}]")


def read_text(path: str | Path, what: str, error: type[FedqError]) -> str:
    """UTF-8 text of the ``what`` file at ``path``.

    A file that is missing or otherwise unreadable (a directory, no
    permission), or whose bytes are not UTF-8, raises ``error`` naming the path.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text") from exc
