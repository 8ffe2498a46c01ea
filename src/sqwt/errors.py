"""Exception types shared across the package."""

from __future__ import annotations


class SquareWaveError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(SquareWaveError):
    """A vector or series length does not match the grid it is used with."""


class FileFormatError(SquareWaveError):
    """A file could not be read, parsed or written; carries the path and, when known, the line."""

    def __init__(self, path: str, message: str, line: int | None = None):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
