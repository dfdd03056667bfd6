"""Exception hierarchy shared by the whole package.

Four failure families matter to callers, and each carries the CLI exit
code and stderr label it is reported with: malformed input (1, "error"),
violated mathematical preconditions (2, "precondition failed"),
exhausted enumeration budgets (3, "budget exhausted"), and internal
checks that failed (4, "internal error", also the base class's).
"""


class SftactError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4
    label = "internal error"


class InputError(SftactError):
    """Malformed or inconsistent input data (bad schema, bad dimensions,
    negative entries, non-bijective permutations, unknown names)."""

    exit_code = 1
    label = "error"


class PreconditionError(SftactError):
    """A mathematical precondition of an operation does not hold
    (matrix not zero-one, presentation not irreducible, map not
    right-resolving, action invariance violated, and so on)."""

    exit_code = 2
    label = "precondition failed"


class LimitExceededError(SftactError):
    """A closure or search would exceed the caller's size limit."""

    exit_code = 3
    label = "budget exhausted"


class CapExceededError(LimitExceededError):
    """An enumeration produced more objects than the caller's cap."""


class InternalError(SftactError):
    """A computed result failed a check that holds for every valid input:
    a defect in this package, not in its input."""
