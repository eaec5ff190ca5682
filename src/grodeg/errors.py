"""Shared exception types."""


class ParseError(ValueError):
    """Syntax or validation error in textual input, carrying a source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def clipped(text: str) -> str:
    """``text`` cut to its first 20 characters and an ellipsis, so that an
    error message that echoes input stays short."""
    return text if len(text) <= 20 else text[:20] + "…"


class FieldMismatchError(ValueError):
    """Arithmetic attempted between scalars of different fields."""


class ContextMismatchError(ValueError):
    """Operation attempted between objects over different ring contexts."""


class ResourceLimitError(RuntimeError):
    """Computation aborted because a configured resource cap was hit."""


class DegreeCapExceeded(ResourceLimitError):
    """Buchberger completion exceeded the configured degree cap."""


class ScanBoundExceeded(ResourceLimitError):
    """Order scan requested on a ring with more variables than the bound allows."""
