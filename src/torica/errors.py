"""Shared exception types.

Every domain error the library raises deliberately lives here, so callers
(and the CLI) can map them to stable error codes, and so does `charge`, the
one check of a count against its budget.
"""


class ToricaError(Exception):
    """Base class for all deliberate domain errors."""

    code = "ERROR"


class NotStronglyConvex(ToricaError):
    """The cone contains a nonzero linear subspace where it must not."""

    code = "NOT_STRONGLY_CONVEX"


class NotPointed(ToricaError):
    """Hilbert basis requested for a cone containing a line."""

    code = "NOT_POINTED"


class NotHomogeneous(ToricaError):
    """A graded computation received non-homogeneous input."""

    code = "NOT_HOMOGENEOUS"


class InfiniteCokernel(ToricaError):
    """A monomial map whose cokernel is infinite where finiteness is required."""

    code = "INFINITE_COKERNEL"


class VarietyMismatch(ToricaError):
    """Divisor arithmetic mixing objects from different varieties."""

    code = "VARIETY_MISMATCH"


class NoSolution(ToricaError):
    """The requested class equation has no solution."""

    code = "NO_SOLUTION"


class NonUnique(ToricaError):
    """The requested class equation has several solutions."""

    code = "NON_UNIQUE"

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class BudgetExceeded(ToricaError):
    """An enumeration or a computation would go past its documented budget.

    Raised by `charge` for every count the library keeps, and by the CLI
    for an answer with too many digits to print; docs/formats.md, "Error
    object", lists every budget and its message. `budget` is the limit that
    tripped.
    """

    code = "BUDGET_EXCEEDED"

    def __init__(self, message, budget):
        super().__init__(message)
        self.budget = budget


def charge(count, budget, message, **fields):
    """`count` while it is at most `budget`; past it, BudgetExceeded.

    `message` is a template filled with `count`, `budget` and `fields`.
    """
    if count > budget:
        raise BudgetExceeded(message.format(count=count, budget=budget, **fields), budget)
    return count
