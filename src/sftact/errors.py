"""Exception hierarchy shared by the whole package.

Four failure families matter to callers (and map onto CLI exit codes):
malformed input, violated mathematical preconditions, exhausted
enumeration budgets, and internal checks that failed.
"""


class SftactError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SftactError):
    """Malformed or inconsistent input data (bad schema, bad dimensions,
    negative entries, non-bijective permutations, unknown names)."""


class PreconditionError(SftactError):
    """A mathematical precondition of an operation does not hold
    (matrix not zero-one, presentation not irreducible, map not
    right-resolving, action invariance violated, and so on)."""


class CapExceededError(SftactError):
    """An enumeration produced more objects than the caller's cap."""


class LimitExceededError(SftactError):
    """A closure or search would exceed the caller's size limit."""


class InternalError(SftactError):
    """A computed result failed a check that holds for every valid input:
    a defect in this package, not in its input."""
