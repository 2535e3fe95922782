"""Exception types shared across the package."""

from __future__ import annotations


class TgeomError(Exception):
    """Base class for every error raised by this package."""


class DuplicateLabel(TgeomError):
    """A point label occurs more than once in one space."""


class InvalidLabel(TgeomError):
    """A point label is empty, contains whitespace or is not UTF-8 text.

    Such a label could not be written to a table file and read back.
    """


class InvalidTolerance(TgeomError, ValueError):
    """A tolerance is negative, NaN or infinite."""


class DuplicateEntry(TgeomError):
    """The same ordered point pair was assigned two conflicting values."""


class MissingEntry(TgeomError):
    """An off-diagonal pair has no value in either direction."""


class NonzeroDiagonal(TgeomError):
    """A supplied diagonal value exceeds the space tolerance."""


class NonFiniteValue(TgeomError):
    """A value or coordinate is NaN or infinite, or a σ value lies beyond ±SIGMA_BOUND."""


class DimensionMismatch(TgeomError):
    """Coordinate vectors of different dimensions were combined."""


class EmptySpace(TgeomError):
    """Construction would produce a space with no points."""


class UnknownPoint(TgeomError):
    """A label does not belong to the space it is used with."""


class ChainMismatch(TgeomError):
    """Vectors can only be added when the end of one is the origin of the other."""


class NotGuaranteed(TgeomError):
    """No always-defined construction exists for the requested combination."""


class SearchLimitExceeded(TgeomError):
    """The space is larger than the configured exhaustive-search limit."""


class OracleLimitExceeded(TgeomError):
    """The space is larger than the hard limit of the naive reference solver."""


class TableParseError(TgeomError):
    """A table file violates the format; carries the offending line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason
