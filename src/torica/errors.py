"""Shared exception types.

Every domain error the library raises deliberately lives here, so callers
(and the CLI) can map them to stable error codes.
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

    Raised when a lattice computation would count more than 10^6
    simplices and parallelepiped nodes, or more than 10^6 dominance tests
    in its sieve, before more than 10^6 standard monomials are listed, and
    when a Groebner basis computation reduces more than 5,000 S-pairs or
    finds more than 1,000 elements. Parsing one polynomial stops before
    its products (those of powers included) multiply more than 10^6 pairs
    of terms. A Hilbert numerator stops before it is built when a
    generator has degree over 10^6. The CLI's `div multiplicity` stops
    before printing an answer of more digits than Python converts an int
    to a string (4,300 by default). `budget` is the limit that tripped.
    """

    code = "BUDGET_EXCEEDED"

    def __init__(self, message, budget):
        super().__init__(message)
        self.budget = budget
