"""Exception types shared across the package."""

__all__ = [
    "GraphFormatError",
    "InternalCheckError",
    "NotAutomorphismError",
    "PartitionError",
    "PreconditionError",
    "QbmgError",
    "SizeCapError",
    "UnknownVertexError",
]


class QbmgError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(QbmgError):
    """Malformed graph, partition, permutation, or spec text.

    Carries the 1-based line number (and column when identifiable) of the
    offending input.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class UnknownVertexError(QbmgError):
    """An operation referenced a vertex that is not in the graph."""

    def __init__(self, vertex: str):
        self.vertex = vertex
        super().__init__(f"unknown vertex {vertex!r}")


class SizeCapError(QbmgError):
    """A resource cap was exceeded (vertex count, group order, enumeration width)."""


class PartitionError(QbmgError):
    """A vertex partition violates a quotient precondition."""


class NotAutomorphismError(QbmgError):
    """A permutation offered as an automorphism fails to be one."""


class PreconditionError(QbmgError):
    """An operation's stated precondition does not hold for the input."""


class InternalCheckError(QbmgError):
    """A built-in cross-check failed; indicates a bug in this package, not bad input."""
