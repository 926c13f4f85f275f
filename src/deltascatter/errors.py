"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input value violates a constructor or CLI contract."""


class DomainError(ValueError):
    """No finite double answer at this argument: outside a function's accuracy
    domain, at a singular point, or beyond the largest double."""
