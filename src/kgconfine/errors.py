"""Exception types shared across the package."""


class KGConfineError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KGConfineError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SingularParameter(KGConfineError, ValueError):
    """1 + c1 is numerically a non-positive integer, so series denominators vanish."""


class TruncationFailure(KGConfineError, RuntimeError):
    """An adaptive summation did not converge within its term budget."""

    def __init__(self, message: str, partial_sum: float, n_terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.n_terms = n_terms


class ConfigError(KGConfineError, ValueError):
    """Invalid or incomplete run configuration."""
