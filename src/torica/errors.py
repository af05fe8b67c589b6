"""Shared exception types.

Every domain error the library raises deliberately lives here, so callers
(and the CLI) can map them to stable error codes, and so does `BUDGETS`: each
count's `Budget` by site name, the one declaration of its limit and message.
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

    Raised by `Budget.charge` for every count in `BUDGETS`, and by the CLI
    for an answer with too many digits to print; docs/formats.md, "Budgets",
    lists every budget and its message. `budget` is the limit that tripped.
    """

    code = "BUDGET_EXCEEDED"

    def __init__(self, message, budget):
        super().__init__(message)
        self.budget = budget


class Budget:
    """One count's site name, limit and message, a template on `count`, `budget` and its fields."""

    __slots__ = ("site", "limit", "message")

    def __init__(self, site, limit, message):
        self.site, self.limit, self.message = site, limit, message

    def charge(self, count, **fields):
        """`count` while within `limit`, read at each call; past it, BudgetExceeded with `message` filled."""
        if count > self.limit:
            raise BudgetExceeded(self.message.format(count=count, budget=self.limit, **fields), self.limit)
        return count


TRIANGULATION = Budget(
    "cone.triangulation",
    10**6,
    "triangulation counted {count} simplices and parallelepiped nodes, over its budget of {budget}",
)
SIEVE = Budget("cone.sieve", 10**6, "minimal sieve ran {count} dominance tests, over its budget of {budget}")
PAIRS = Budget(
    "polyring.pairs", 5000, "Groebner basis reduced {budget} S-pairs with {left} left, over its budget"
)
BASIS = Budget("polyring.basis", 1000, "Groebner basis grew past {budget} elements, over its budget")
REDUCTION = Budget("polyring.reduction", 10**6, "reduction ran {count} steps, over its budget of {budget}")
PARSE = Budget(
    "polyring.parse", 10**6, "parsing multiplied {count} pairs of terms, over its budget of {budget}"
)
STANDARD_MONOMIALS = Budget(
    "polyring.standard_monomials",
    10**6,
    "quotient has {count} standard monomials, over its budget of {budget}",
)
DEGREE = Budget(
    "polyring.degree", 10**6, "a generator has degree over {budget}, the Hilbert numerator budget"
)
FACTORS = Budget("toric.factors", 10**5, "S^k x A^s has {count} factors, over its budget of {budget}")
SCAN = Budget("divisor.scan", 10**5, "mcm scan spans {count} classes, over its budget of {budget}")
BUDGETS = {b.site: b for b in (TRIANGULATION, SIEVE, PAIRS, BASIS, REDUCTION, PARSE, STANDARD_MONOMIALS,
                               DEGREE, FACTORS, SCAN)}
