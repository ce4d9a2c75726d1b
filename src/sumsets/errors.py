"""Exception hierarchy. Every library-raised error derives from SumsetError."""


class SumsetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSet(SumsetError):
    """Raised when a set cannot be constructed (e.g. empty input)."""


class InvalidSetLiteral(SumsetError):
    """Raised when a textual set literal cannot be parsed."""


class InvalidDilation(SumsetError):
    """Raised for dilation by zero, which would collapse the set."""


class InvalidFold(SumsetError):
    """Raised when the fold count h is out of range for the sumset kind."""


class KernelOverflow(SumsetError):
    """Raised when an input would exceed one of the kernel's guards: the
    oracle's h * max|a_i| <= 2^62 magnitude margin, the layered DP's budget
    of mask bits, the oracle's budget of terms to add, or a scan's budget
    of prefix blocks."""


class DomainViolation(SumsetError):
    """Raised when an operation restricted to positive / zero-containing
    sets receives a set outside that domain."""


class DegenerateSet(SumsetError):
    """Raised by ``inverse.regenerate`` on a classification that matched no
    family."""


class InvalidFamily(SumsetError):
    """Raised when requested family parameters fall outside the family's
    validity range."""


class NotApplicable(SumsetError):
    """Raised when a bound formula or scan target does not apply to the
    given (k, h, family) combination."""


class EmptySpace(SumsetError):
    """Raised when a scan's search space contains no sets."""


class EngineMismatch(SumsetError):
    """Raised when the naive and layered engines disagree. Always a bug."""


class TheoremViolation(SumsetError):
    """Raised when a theorem-backed bound or classification fails on a
    concrete set. Always an implementation bug, never a discovery."""
