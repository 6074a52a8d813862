"""Exception types raised by the public API, and the rules that raise them.

Each class corresponds to one failure mode of a documented contract, so
callers can catch precisely what they can handle.

This module also owns the rules every boundary applies to its
parameters: :func:`check_count` for integer counts, seeds and stream ids,
:func:`check_interval` for real rates and tolerances, :func:`check_budget`
for the compression budget k (or one per row) against the dimension d,
:func:`check_array` for float arrays, :func:`check_ids` for id arrays and
:func:`check_words` for the uint64 seed words of random streams.
Every input file (map, manifest, trace) is read by :func:`read_text`.
"""
import math
import numbers
import operator
from pathlib import Path

import numpy as np


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


class NonFiniteError(FedqError, ValueError):
    """Operation undefined on a vector holding NaN or an infinity."""


class ParamOutOfRangeError(FedqError, ValueError):
    """A hyperparameter violates its documented range."""


class InvalidGammaError(ParamOutOfRangeError):
    """Discount factor outside the open interval (0, 1)."""


class BudgetOutOfRangeError(ParamOutOfRangeError):
    """Compression budget k outside [1, d]."""


def check_count(name: str, value, low: int = 0, high: float = math.inf,
                error: type[ParamOutOfRangeError] = ParamOutOfRangeError) -> int:
    """``value`` as a Python int in [low, high); numpy integers and 0-d integer arrays pass, bools and
    non-integers (any other array among them) raise ``error``."""
    if type(value) is not int:  # the common case skips the conversion
        try:
            index = None if isinstance(value, bool) else operator.index(value)
        except TypeError:  # no __index__, or an array that is not one integer
            index = None
        if index is None:
            raise error(f"{name} must be an integer, got {value!r}")
        value = index
    if not low <= value < high:
        raise error(f"{name} must lie in [{low}, {high}), got {value}")
    return value


def check_interval(name: str, value, low: float = 0, high: float = math.inf, closed: str = "()",
                   error: type[ParamOutOfRangeError] = ParamOutOfRangeError) -> float:
    """``value`` as a Python float if it lies in the real interval from ``low`` to ``high``, else raise ``error``.

    ``closed`` holds the interval's brackets, e.g. ``"(]"`` for (low, high].  Only real scalars lie in an
    interval: bools, arrays and other non-numbers raise ``error``, as do NaN and a real too large for a float
    (``10**400``).  The float is compared, so an open infinite end admits no infinity: the default (0, inf)
    holds exactly the positive finite floats.  Every message shows ``value`` as it was passed.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or Fraction past the float range
        raise error(f"{name} must be a real number a float can hold, got {value!r}") from None
    if (low < real if closed[0] == "(" else low <= real) and (
            real < high if closed[1] == ")" else real <= high):
        return real
    if low == 0 and high == math.inf:
        rule = f"be {'positive' if closed[0] == '(' else 'non-negative'} and finite"
    else:
        rule = f"lie in {closed[0]}{low}, {high}{closed[1]}"
    raise error(f"{name} must {rule}, got {value!r}")


def check_budget(k, d: int, rows: int | None = None):
    """The compression budget rule: k is an integer in [1, d] (a 0-d integer array among them), returned
    as a Python int, or, with ``rows``, an (rows,) integer array of per-row budgets, each in [1, d],
    returned as int64 (uncopied if it is), so no caller computes with a budget in a narrower or unsigned dtype."""
    if rows is None or not isinstance(k, np.ndarray) or k.ndim == 0:
        k = check_count("budget k", k, error=BudgetOutOfRangeError)
        if not 1 <= k <= d:
            raise BudgetOutOfRangeError(f"budget k={k} outside [1, d={d}]")
        return k
    # a few rows: Python's min and max beat numpy's reductions
    ks = k.tolist() if k.shape == (rows,) and k.dtype.kind in "iu" else None
    if ks is None or rows and not (1 <= min(ks) and max(ks) <= d):
        raise BudgetOutOfRangeError(f"per-row budgets must be {rows} integers in [1, d={d}], got {k!r}")
    return k.astype(np.int64, copy=False)


def _as_array(name: str, value, error: type[FedqError], dtype=None) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged, or content numpy cannot convert
        raise error(f"{name} must be a numeric array: {exc}") from None


def check_array(name: str, value, ndim: int | None = None, shape: tuple | None = None,
                error: type[FedqError] = ShapeMismatchError) -> np.ndarray:
    """``value`` as a float64 array (uncopied if it is one) with ``ndim`` axes and of ``shape``, where
    given; a wrong shape raises ``error``, as does content numpy cannot convert (strings, objects, ragged)."""
    array = _as_array(name, value, error, np.float64)
    if (ndim is not None and array.ndim != ndim) or (shape is not None and array.shape != shape):
        want = shape if shape is not None else f"of a {ndim}-D array"
        raise error(f"{name} must have shape {want}, got {array.shape}")
    return array


def check_ids(name: str, values, high: int, error: type[FedqError] = ParamOutOfRangeError) -> np.ndarray:
    """:func:`check_count` for arrays: ``values`` as an int64 array (uncopied if it is one) of ids in [0, high).

    Any dtype but an integer one (bools, floats, strings, objects) raises ``error``, save in an empty
    array.  One maximum over the ids' unsigned view finds the negative ones too: they view as 2**63 or more,
    as do the uint64 entries that int64 cannot hold.
    """
    values = _as_array(name, values, error)
    if values.size and values.dtype.kind not in "iu":
        raise error(f"{name} must be integers in [0, {high}), got dtype {values.dtype}")
    ids = values.astype(np.int64, copy=False)
    if ids.size and ids.view(np.uint64).max() >= min(high, 2**63):
        raise error(f"{name} must be integers in [0, {high}), got entries from {values.min()} to {values.max()}")
    return ids


def check_words(name: str, values) -> np.ndarray:
    """``values`` as the C-ordered rows of an (n, 4) uint64 array (uncopied if they are), PCG64's seed words.

    PCG64 reads each row's four words from the row's start, so any other
    dtype (floats would be read as bits) or shape (short rows would be read
    past their end) raises ``ShapeMismatchError``, and rows that are not
    C-ordered are copied into rows that are.
    """
    words = _as_array(name, values, ShapeMismatchError)
    if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != 4:
        raise ShapeMismatchError(f"{name} must be an (n, 4) uint64 array, got shape {words.shape} "
                                 f"and dtype {words.dtype}")
    return np.ascontiguousarray(words)


def read_text(path: str | Path, what: str, error: type[FedqError]) -> str:
    """UTF-8 text of the ``what`` file at ``path``.

    A file that is missing or otherwise unreadable (a directory, no
    permission), or whose bytes are not UTF-8, raises ``error`` naming the path,
    as does a path that is neither a ``str`` nor an ``os.PathLike``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except TypeError:  # only Path() raises it, on a path of another type
        raise error(f"{what} path must be a str or os.PathLike, got {path!r}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text") from exc
