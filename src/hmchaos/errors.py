"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented parameter range."""


class BudgetError(PreconditionError):
    """A request exceeds a size budget that is checked before allocation."""
