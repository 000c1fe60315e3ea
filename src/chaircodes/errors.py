"""Exception types shared across the package."""


class ChairCodesError(Exception):
    """Base class for all package-specific errors."""


class InvalidChair(ChairCodesError, ValueError):
    """Chair parameters violate 0 < k_i < l_i or are not exact numbers."""


class DimensionMismatch(ChairCodesError, ValueError):
    """A point or matrix does not match the ambient dimension."""


class NotDiscrete(ChairCodesError):
    """Operation requires a chair with integer side lengths."""


class BudgetExceeded(ChairCodesError):
    """An enumeration would exceed the configured budget."""


class NotInvertible(ChairCodesError):
    """Requested modular inverse does not exist (gcd > 1)."""


class NonSquare(ChairCodesError, ValueError):
    """Operation requires a square matrix."""


class SingularMatrix(ChairCodesError):
    """Operation requires a nonsingular matrix."""


class NonIntegerLattice(ChairCodesError):
    """Operation requires a lattice with integer basis vectors."""


class HypothesisViolated(ChairCodesError):
    """Splitting-construction hypothesis fails; carries the offending index."""

    def __init__(self, index: int, message: str = ""):
        self.index = index  # 1-based coordinate of the offending notch side
        super().__init__(message or f"k_{index} shares a factor with the group order")


class NotPerfect(ChairCodesError):
    """A code's lattice is not a perfect code (or not a packing) for its sphere."""


class NotATiling(ChairCodesError):
    """Coloring requested from a lattice that does not tile the chair."""


class BadParameters(ChairCodesError, ValueError):
    """Arguments outside an operation's documented domain."""
