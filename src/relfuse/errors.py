"""Exception and warning types shared across the package."""

__all__ = [
    "RelfuseError",
    "RbdError",
    "RbdSyntaxError",
    "DataFormatError",
    "BindingError",
    "NotEstimableError",
    "PrecisionRecoveryWarning",
]


class RelfuseError(Exception):
    """Base class for errors raised by this package."""


class RbdError(RelfuseError):
    """Invalid reliability block diagram structure."""


class RbdSyntaxError(RbdError):
    """Syntax error in block diagram source text, with position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


class DataFormatError(RelfuseError):
    """Malformed input file (CSV or JSON), with row context where known."""


class BindingError(RelfuseError):
    """Dataset or prior references that do not resolve against the diagram."""


class NotEstimableError(RelfuseError):
    """Query beyond the range where the posterior is estimable."""


class PrecisionRecoveryWarning(UserWarning):
    """Recovered precisions were clamped or capped, or a merged prior's mean was monotonized.

    One warning per clamp kind per ``recover_precision`` call, and one per
    non-monotone ``merge_priors`` call; each names how many grid points it covers.
    """
