"""Exception types shared across the package, and the bounded repr that
error messages use to echo a value (or another exception's text).

The CLI maps these onto exit codes: a UsageError (bad arguments or config)
exits with 2, a CapabilityError with 3, a failed verification with 4.
"""

import reprlib
from itertools import islice


class PauliBenchError(Exception):
    """Base class for all package errors."""


class UsageError(PauliBenchError, ValueError):
    """Invalid arguments or config: bad sizes, labels, distributions, keys."""


class CapabilityError(PauliBenchError):
    """Request exceeds a documented resource limit (qubit count, memory)."""


class FitError(PauliBenchError):
    """Decay fit could not be performed (too few usable points)."""


# An echoed value is cut to _ECHO_CHARS characters, so one bad value cannot
# flood stderr; a value whose repr fits is shown as repr shows it.
_ECHO_CHARS = 100


class _Echo(reprlib.Repr):
    """A bounded repr whose limits leave any repr of up to _ECHO_CHARS
    characters as it is (such a value nests at most _ECHO_CHARS // 2 deep),
    and which keeps a dict's key order, as repr does."""

    def __init__(self):
        super().__init__()
        self.maxlevel = self.maxlist = self.maxdict = _ECHO_CHARS // 2
        self.maxstring = self.maxlong = self.maxother = _ECHO_CHARS

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{" + self.fillvalue + "}"
        pieces = [f"{self.repr1(key, level - 1)}: {self.repr1(val, level - 1)}"
                  for key, val in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append(self.fillvalue)
        return "{" + ", ".join(pieces) + "}"


_ECHO = _Echo()


def _cut(text: str) -> str:
    """`text` for an error message, cut to _ECHO_CHARS characters."""
    if len(text) <= _ECHO_CHARS:
        return text
    return text[:_ECHO_CHARS - 3] + _ECHO.fillvalue


def _shown(value) -> str:
    """`repr(value)` for an error message, cut in depth and in length."""
    return _cut(_ECHO.repr(value))
