"""Exception types shared across the package."""


class SenseAllocError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SenseAllocError, ValueError):
    """An input value is NaN, infinite, or outside its domain."""


class DegenerateClassifierError(SenseAllocError):
    """All classifier weights are zero; the allocation problem is undefined."""


class InfeasibleAllocationError(SenseAllocError):
    """A resource vector violates the budget, nonnegativity, or floor constraints."""


class InvalidNoiseModelError(SenseAllocError):
    """A noise model fails the positivity / monotonicity / convexity checks."""


class BudgetTooSmallError(SenseAllocError):
    """The bit budget cannot cover the one-bit-per-feature minimum."""


class InfeasibleSetError(SenseAllocError):
    """The target simplex {sum r = R, r >= floor} is empty."""


class UnattainableLossError(SenseAllocError):
    """The requested loss level lies below the loss at any budget: at or below
    the data-term floor, or below a noise term that stops falling."""


class RankDeficiencyError(SenseAllocError):
    """The normal equations are singular and no penalty regularizes them."""


class GridTooLargeError(SenseAllocError):
    """A brute-force grid search would exceed its evaluation cap."""


class ConfigError(SenseAllocError):
    """An experiment or CLI configuration is malformed."""


class DataError(SenseAllocError):
    """A dataset file is malformed or empty after cleaning."""
