"""Exception types raised by the public API.

Each class corresponds to one failure mode of a documented contract, so
callers can catch precisely what they can handle.
"""


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
    """A trace or q* cache file does not have the layout fedq writes."""


class ShapeMismatchError(FedqError, ValueError):
    """Array arguments do not have the shapes the operation requires."""


class DimensionMismatchError(FedqError, ValueError):
    """Sparse payload dimension differs from the expected flat dimension."""


class NotConvergedError(FedqError, RuntimeError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class ZeroVectorError(FedqError, ValueError):
    """Operation undefined on the all-zero vector."""


class EmptyAgentListError(FedqError, ValueError):
    """Server aggregation called with no agent payloads."""


class ParamOutOfRangeError(FedqError, ValueError):
    """A hyperparameter violates its documented range."""


class InvalidGammaError(ParamOutOfRangeError):
    """Discount factor outside the open interval (0, 1)."""


class BudgetOutOfRangeError(ParamOutOfRangeError):
    """Compression budget k outside [1, d]."""
