"""Exception hierarchy shared across the package.

CLI exit codes: InputError/PreconditionError -> 2, BudgetError -> 3,
FormatError -> 4.
"""


class HamclosureError(Exception):
    """Base class for all package errors."""


class InputError(HamclosureError, ValueError):
    """A caller passed an argument outside the operation's domain."""


class PreconditionError(HamclosureError):
    """A stated hypothesis of the operation does not hold for the input."""


class ParameterError(PreconditionError):
    """Family construction parameters violate a construction clause."""


class FormatError(HamclosureError, ValueError):
    """Malformed serialized input (graph6, edge list, params file, trace)."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class BudgetError(HamclosureError):
    """An exact search refused to continue past its configured budget."""


class NonUniqueMinimumError(HamclosureError):
    """The supergraph search found incomparable minima (no least element)."""
