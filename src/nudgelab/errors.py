"""Semantic exception hierarchy.

Every failure mode maps to one category so callers (and the CLI exit-code
logic) can dispatch without string matching.
"""


class NudgelabError(Exception):
    """Base class for all package errors."""

    category = "error"


class ConfigurationError(NudgelabError):
    """Structural mismatch: dimensions, incompatible shapes, bad config."""

    category = "configuration"


class DomainError(NudgelabError):
    """Mathematical domain violation (e.g. nonpositive variance)."""

    category = "domain"


class UsageError(NudgelabError):
    """An operation was called in a way its contract forbids."""

    category = "usage"


class InputError(NudgelabError):
    """A payload value is outside its allowed range."""

    category = "input"


class DataValidationError(NudgelabError):
    """Behavior-data file failed schema or row validation."""

    category = "validation"

    def __init__(self, message, row_errors=None):
        super().__init__(message)
        self.row_errors = list(row_errors) if row_errors else []
