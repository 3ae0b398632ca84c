"""Exception types shared across the package."""


class CohprobeError(Exception):
    """Base class for all errors raised by cohprobe."""


class InputError(CohprobeError, ValueError):
    """An argument or input value outside what the computation accepts."""


class InhomogeneousSum(CohprobeError):
    """Sum of homogeneous polynomials of different degrees."""


class ZeroDegreeGenerator(CohprobeError):
    """A generator was declared with weight < 1."""


class NonHomogeneousRelation(CohprobeError):
    """A defining relation is not homogeneous (or has degree < 2)."""


class DegreeBoundExceeded(CohprobeError):
    """A computation was requested beyond the certified degree bound."""


class NotDegreeOneGenerated(CohprobeError):
    """Veronese cross-checks require an algebra generated in degree 1."""


class HilbertMismatch(CohprobeError):
    """A discovered Veronese presentation disagrees with the ambient dimensions."""


class WindowTooShallow(CohprobeError):
    """A cohproj Hom stabilization needs more truncation levels than the window
    has, or a window on which the source module is not zero."""


class ParseError(CohprobeError):
    """Malformed polynomial or algebra file input."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)
