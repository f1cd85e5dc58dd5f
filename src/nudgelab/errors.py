"""Semantic exception hierarchy.

Every failure mode maps to one category so callers (and the CLI exit-code
logic) can dispatch without string matching.  ``open_input`` and
``open_output`` map a file that cannot be read or written to that
hierarchy too.
"""

from contextlib import contextmanager
from pathlib import Path

__all__ = ["NudgelabError", "ConfigurationError", "DomainError", "UsageError",
           "InputError", "DataValidationError", "open_input", "open_output"]


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


@contextmanager
def open_input(path, what: str, newline: str | None = None):
    """``open(path, newline=newline)`` for reading, where a file that cannot
    be read (a directory, no permission, bytes the text encoding rejects)
    raises a DataValidationError that names ``what``."""
    try:
        with open(path, newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        reason = str(exc)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    else:
        return
    raise DataValidationError(f"cannot read {what} {path}: {reason}")


@contextmanager
def open_output(path, newline: str | None = None):
    """``open(path, "w", newline=newline)`` after making its directory, where
    a path that cannot be written (a file where a directory must go, no
    permission, a full disk) raises a UsageError that names it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        reason = exc.strerror or str(exc)
        if exc.filename not in (None, str(path)):
            reason = f"{exc.filename}: {reason}"
    else:
        return
    raise UsageError(f"cannot write {path}: {reason}")
