"""Exception types shared across the package.

The CLI maps these onto exit codes: a UsageError (bad arguments or config)
exits with 2, a CapabilityError with 3, a failed verification with 4.
"""


class PauliBenchError(Exception):
    """Base class for all package errors."""


class UsageError(PauliBenchError, ValueError):
    """Invalid arguments or config: bad sizes, labels, distributions, keys."""


class CapabilityError(PauliBenchError):
    """Request exceeds a documented resource limit (qubit count, memory)."""


class FitError(PauliBenchError):
    """Decay fit could not be performed (too few usable points)."""
