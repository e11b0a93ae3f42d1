"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a run configuration cannot be parsed or validated."""


class HeaderMismatchError(ValueError):
    """Raised when kernel dumps disagree on a header key they must share."""


class MemoryBudgetError(RuntimeError):
    """Raised when a computation would exceed the configured memory budget."""
