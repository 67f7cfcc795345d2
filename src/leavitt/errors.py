"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, WindowOverflow -> 3,
verification failures -> 1.
"""


class LeavittError(Exception):
    """Base class for all package errors."""


class InputError(LeavittError, ValueError):
    """Invalid argument: unknown id, broken precondition, malformed file."""


class WindowOverflow(LeavittError):
    """A module action left the enumeration window.

    Raised instead of silently truncating, so bounded verification stays
    sound.  Carries a description of the escaping basis element.
    """

    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"basis element escapes the window: {element}")


class MalformedSystem(LeavittError):
    """A branching system violated a structural contract (e.g. duplicate
    basis elements in its enumeration)."""


class InternalCheckError(LeavittError):
    """Two independent evaluation routes that must agree disagreed."""
