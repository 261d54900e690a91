"""Error types shared across the package."""

from __future__ import annotations

__all__ = ["CapacityError", "ConvergenceError", "GraphFormatError"]


class CapacityError(Exception):
    """An exact or exhaustive operation was asked to exceed its documented size cap."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Attributes:
        last_value: the last scalar estimate (if any).
        last_iterate: the last iterate (if any): a vector for the eigen
            solve, the evaluated (t, worst TV) curve for the mixing search.
        iterations: number of iterations performed.
    """

    def __init__(self, message, last_value=None, last_iterate=None, iterations=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_iterate = last_iterate
        self.iterations = iterations


class GraphFormatError(ValueError):
    """A graph file failed to parse or violated a format invariant.

    Attributes:
        line: 1-based line number of the offending line, or None for
            file-level problems.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
